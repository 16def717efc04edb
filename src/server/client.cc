#include "server/client.hh"

#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "server/conn.hh"
#include "support/logging.hh"

namespace interp::server {

using std::chrono::duration_cast;
using std::chrono::microseconds;
using std::chrono::steady_clock;

// --- Client ----------------------------------------------------------------

Client
Client::connectTo(const Endpoint &ep)
{
    int fd = ep.connect();
    if (fd < 0)
        fatal("loadgen: connect %s: %s", ep.path.c_str(),
              std::strerror(errno));
    Client client(fd);
    std::string hello;
    encodeHello(hello);
    client.sendAll(hello);
    return client;
}

Client
Client::connectUnix(const std::string &path)
{
    if (path.empty())
        fatal("loadgen: bad socket path \"\"");
    return connectTo({path});
}

Client
Client::connect(const std::string &spec)
{
    Endpoint ep;
    if (!Endpoint::parse(spec, ep))
        fatal("loadgen: bad endpoint \"%s\" (want unix:PATH or a path)",
              spec.c_str());
    return connectTo(ep);
}

Client::Client(Client &&other) noexcept
    : fd_(other.fd_), in_(std::move(other.in_)), nextId_(other.nextId_)
{
    other.fd_ = -1;
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = other.fd_;
        in_ = std::move(other.in_);
        nextId_ = other.nextId_;
        other.fd_ = -1;
    }
    return *this;
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
Client::sendAll(const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
            off += (size_t)n;
            continue;
        }
        if (errno == EINTR)
            continue;
        fatal("loadgen: send: %s", std::strerror(errno));
    }
}

void
Client::sendEval(const EvalRequest &req)
{
    std::string out;
    encodeEvalRequest(out, req);
    sendAll(out);
}

void
Client::sendStats(uint32_t id)
{
    std::string out;
    StatsRequest req;
    req.id = id;
    encodeStatsRequest(out, req);
    sendAll(out);
}

bool
Client::parseOne(EvalResponse &resp)
{
    std::string payload;
    switch (takeFrame(in_, payload, kMaxResponseBytes)) {
      case FrameResult::Incomplete:
        return false;
      case FrameResult::Malformed:
        fatal("loadgen: malformed response frame");
      case FrameResult::Frame:
        break;
    }
    if (!decodeResponse(payload, resp))
        fatal("loadgen: undecodable response payload");
    return true;
}

bool
Client::receive(EvalResponse &resp, bool wait)
{
    while (!parseOne(resp)) {
        char buf[64 * 1024];
        ssize_t n = ::recv(fd_, buf, sizeof(buf), wait ? 0 : MSG_DONTWAIT);
        if (n > 0) {
            in_.append(buf, (size_t)n);
            continue;
        }
        if (n == 0)
            fatal("loadgen: server closed the connection");
        if (!wait && (errno == EAGAIN || errno == EWOULDBLOCK))
            return false;
        if (errno != EINTR)
            fatal("loadgen: recv: %s", std::strerror(errno));
    }
    return true;
}

EvalResponse
Client::recv()
{
    EvalResponse resp;
    receive(resp, true);
    return resp;
}

bool
Client::tryRecv(EvalResponse &resp)
{
    return receive(resp, false);
}

EvalResponse
Client::eval(const EvalRequest &req)
{
    sendEval(req);
    return recv();
}

std::string
Client::stats()
{
    sendStats(nextId_++);
    EvalResponse resp = recv();
    if (resp.status != Status::Ok)
        fatal("loadgen: STATS answered %s", statusName(resp.status));
    return resp.result;
}

// --- load generator --------------------------------------------------------

uint64_t
LoadgenTotals::percentile(double q) const
{
    if (latencyUs.empty())
        return 0;
    std::vector<uint64_t> sorted = latencyUs;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = (size_t)(q * (double)(sorted.size() - 1));
    return sorted[idx];
}

std::string
LoadgenReport::table() const
{
    std::string out;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "%-14s %6s %6s %6s %6s %6s %9s %9s %9s\n", "mode",
                  "sent", "ok", "shed", "ddl", "err", "p50_us",
                  "p95_us", "p99_us");
    out += line;
    auto row = [&](const std::string &name, const LoadgenTotals &t) {
        std::snprintf(line, sizeof(line),
                      "%-14s %6" PRIu64 " %6" PRIu64 " %6" PRIu64
                      " %6" PRIu64 " %6" PRIu64 " %9" PRIu64
                      " %9" PRIu64 " %9" PRIu64 "\n",
                      name.c_str(), t.sent, t.ok, t.shed, t.deadline,
                      t.error, t.percentile(0.50), t.percentile(0.95),
                      t.percentile(0.99));
        out += line;
    };
    for (const auto &entry : byMode)
        row(entry.first, entry.second);
    row("ALL", all);

    if (!byClass.empty()) {
        std::snprintf(line, sizeof(line),
                      "%-14s %6s %6s %6s %6s %6s %9s %9s %9s\n",
                      "class", "sent", "ok", "shed", "ddl", "err",
                      "p50_us", "p95_us", "p99_us");
        out += line;
        for (const auto &entry : byClass)
            row(entry.first, entry.second);
    }

    if (!byEndpoint.empty()) {
        std::snprintf(line, sizeof(line),
                      "%-24s %6s %6s %6s %8s %7s %7s %9s\n",
                      "endpoint", "sent", "ok", "conn", "connfail",
                      "reconn", "resent", "abandoned");
        out += line;
        for (const auto &entry : byEndpoint) {
            const EndpointTotals &e = entry.second;
            std::snprintf(line, sizeof(line),
                          "%-24s %6" PRIu64 " %6" PRIu64 " %6" PRIu64
                          " %8" PRIu64 " %7" PRIu64 " %7" PRIu64
                          " %9" PRIu64 "\n",
                          entry.first.c_str(), e.sent, e.ok,
                          e.connects, e.connectFailures, e.reconnects,
                          e.retriesSent, e.abandoned);
            out += line;
        }
    }
    return out;
}

namespace {

struct Tally
{
    explicit Tally(const LoadgenOptions &opt_) : opt(opt_) {}

    const LoadgenOptions &opt;
    std::mutex mu;
    LoadgenReport report;

    void
    note(const EvalRequest &req, const EvalResponse &resp,
         uint64_t latency_us)
    {
        std::lock_guard<std::mutex> lock(mu);
        std::vector<LoadgenTotals *> buckets = {
            &report.byMode[harness::langName(req.mode)], &report.all};
        if (opt.classOf)
            buckets.push_back(&report.byClass[opt.classOf(req)]);
        for (LoadgenTotals *t : buckets) {
            ++t->sent;
            switch (resp.status) {
              case Status::Ok:
                ++t->ok;
                t->latencyUs.push_back(latency_us);
                break;
              case Status::Shed:
                ++t->shed;
                break;
              case Status::Deadline:
                ++t->deadline;
                break;
              case Status::Error:
                ++t->error;
                break;
            }
        }
        if (opt.onResponse)
            opt.onResponse(req, resp);
    }

    /** Mutate one endpoint's transport tallies under the lock. */
    template <class F>
    void
    endpoint(const std::string &name, F f)
    {
        std::lock_guard<std::mutex> lock(mu);
        f(report.byEndpoint[name]);
    }
};

/**
 * Connect to @p spec with bounded retries; transport outcomes are
 * tallied per endpoint instead of aborting the whole run. Empty
 * optional after opt.connectAttempts refusals.
 */
std::optional<Client>
connectWithRetry(const LoadgenOptions &opt, const std::string &spec,
                 Tally &tally)
{
    for (unsigned attempt = 0; attempt < opt.connectAttempts;
         ++attempt) {
        try {
            ScopedFatalThrow contain;
            Client conn = Client::connect(spec);
            tally.endpoint(spec,
                           [](EndpointTotals &e) { ++e.connects; });
            return conn;
        } catch (const FatalError &) {
            tally.endpoint(spec, [](EndpointTotals &e) {
                ++e.connectFailures;
            });
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }
    return std::nullopt;
}

/**
 * Closed loop against one endpoint: a dropped connection is re-opened
 * and the in-flight request re-sent (both tallied per endpoint), so
 * one dying shard degrades the report instead of killing the run.
 */
void
closedLoopClient(const LoadgenOptions &opt, unsigned client_index,
                 Tally &tally)
{
    const std::string &spec =
        opt.endpoints[client_index % opt.endpoints.size()];
    std::optional<Client> conn = connectWithRetry(opt, spec, tally);

    for (unsigned i = 0; i < opt.requestsPerClient; ++i) {
        if (!conn) {
            tally.endpoint(spec, [&](EndpointTotals &e) {
                e.abandoned += opt.requestsPerClient - i;
            });
            return;
        }
        EvalRequest req =
            opt.mix[(client_index + i) % opt.mix.size()];
        req.id = i + 1;
        for (;;) {
            try {
                ScopedFatalThrow contain;
                tally.endpoint(
                    spec, [](EndpointTotals &e) { ++e.sent; });
                auto t0 = steady_clock::now();
                EvalResponse resp = conn->eval(req);
                auto t1 = steady_clock::now();
                if (resp.id != req.id)
                    fatal("loadgen: response id %u for request %u",
                          resp.id, req.id);
                tally.note(req, resp,
                           (uint64_t)duration_cast<microseconds>(
                               t1 - t0)
                               .count());
                if (resp.status == Status::Ok)
                    tally.endpoint(
                        spec, [](EndpointTotals &e) { ++e.ok; });
                break;
            } catch (const FatalError &) {
                // The connection died under us (shard restart, proxy
                // drop): reconnect and resend this request.
                conn = connectWithRetry(opt, spec, tally);
                if (!conn) {
                    tally.endpoint(spec, [&](EndpointTotals &e) {
                        e.abandoned += opt.requestsPerClient - i;
                    });
                    return;
                }
                tally.endpoint(spec, [](EndpointTotals &e) {
                    ++e.reconnects;
                    ++e.retriesSent;
                });
            }
        }
    }
}

/**
 * Open loop against one endpoint: connect with retry and accounting;
 * a mid-run drop is fatal (the open schedule cannot be replayed
 * honestly).
 */
void
openLoopClient(const LoadgenOptions &opt, unsigned client_index,
               Tally &tally)
{
    const std::string &spec =
        opt.endpoints[client_index % opt.endpoints.size()];
    std::optional<Client> conn = connectWithRetry(opt, spec, tally);
    if (!conn) {
        tally.endpoint(spec, [&](EndpointTotals &e) {
            e.abandoned += opt.requestsPerClient;
        });
        return;
    }

    // Each client offers rate/clients; stagger starts so the
    // aggregate arrival stream interleaves instead of bursting.
    double per_client = opt.openRatePerSec / (double)opt.clients;
    auto period = microseconds((uint64_t)(1e6 / per_client));
    auto start = steady_clock::now() +
                 (period * client_index) / opt.clients;

    std::unordered_map<uint32_t, steady_clock::time_point> sent_at;
    std::unordered_map<uint32_t, EvalRequest> req_of;
    auto settle = [&](const EvalResponse &resp) {
        auto it = sent_at.find(resp.id);
        if (it == sent_at.end())
            fatal("loadgen: response for unknown id %u", resp.id);
        uint64_t us = (uint64_t)duration_cast<microseconds>(
                          steady_clock::now() - it->second)
                          .count();
        tally.note(req_of[resp.id], resp, us);
        if (resp.status == Status::Ok)
            tally.endpoint(spec, [](EndpointTotals &e) { ++e.ok; });
        sent_at.erase(it);
        req_of.erase(resp.id);
    };

    for (unsigned i = 0; i < opt.requestsPerClient; ++i) {
        std::this_thread::sleep_until(start + period * i);
        EvalRequest req =
            opt.mix[(client_index + i) % opt.mix.size()];
        req.id = i + 1;
        // Open loop: latency includes any send-side slip, measured
        // from the scheduled instant.
        sent_at[req.id] = start + period * i;
        req_of[req.id] = req;
        tally.endpoint(spec, [](EndpointTotals &e) { ++e.sent; });
        conn->sendEval(req);
        EvalResponse resp;
        while (conn->tryRecv(resp))
            settle(resp);
    }
    while (!sent_at.empty())
        settle(conn->recv());
}

} // namespace

LoadgenReport
runLoadgen(const LoadgenOptions &opt)
{
    if (opt.mix.empty())
        fatal("loadgen: empty request mix");
    if (opt.clients == 0)
        fatal("loadgen: need at least one client");
    if (opt.endpoints.empty())
        fatal("loadgen: no endpoints");

    Tally tally(opt);
    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (unsigned c = 0; c < opt.clients; ++c)
        threads.emplace_back([&opt, c, &tally] {
            if (opt.openRatePerSec > 0)
                openLoopClient(opt, c, tally);
            else
                closedLoopClient(opt, c, tally);
        });
    for (std::thread &t : threads)
        t.join();
    return tally.report;
}

bool
langFromName(const std::string &name, harness::Lang &out)
{
    static const std::pair<const char *, harness::Lang> kAliases[] = {
        {"jvm", harness::Lang::Java},
        {"jvm-quick", harness::Lang::JavaQuick},
        {"threaded", harness::Lang::MipsiThreaded},
    };
    for (const harness::ModeInfo &m : harness::kModes)
        if (strcasecmp(name.c_str(), m.name) == 0) {
            out = m.lang;
            return true;
        }
    for (const auto &alias : kAliases)
        if (strcasecmp(name.c_str(), alias.first) == 0) {
            out = alias.second;
            return true;
        }
    return false;
}

} // namespace interp::server
