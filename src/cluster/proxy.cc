#include "cluster/proxy.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "support/logging.hh"

namespace interp::cluster {

using server::EvalRequest;
using server::EvalResponse;
using server::Status;
using std::chrono::duration_cast;
using std::chrono::microseconds;
using std::chrono::milliseconds;

namespace {

uint64_t
elapsedMicros(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to)
{
    return (uint64_t)duration_cast<microseconds>(to - from).count();
}

} // namespace

// --- lifecycle -------------------------------------------------------------

Proxy::Proxy(const ProxyConfig &config)
    : cfg(config),
      ring((int)config.shards.size(), kVnodes),
      front("interproxy",
            [this](uint64_t conn, const std::string &payload) {
                handleFrontFrame(conn, payload);
            })
{
    shards.resize(cfg.shards.size());
    for (size_t i = 0; i < cfg.shards.size(); ++i) {
        shards[i].ep = cfg.shards[i];
        if (shards[i].ep.name.empty())
            shards[i].ep.name = "s" + std::to_string(i);
    }
}

Proxy::~Proxy()
{
    for (Shard &s : shards)
        if (s.conn.fd >= 0)
            ::close(s.conn.fd);
}

void
Proxy::start()
{
    if (cfg.shards.empty())
        fatal("interproxy: no shards configured");
    front.listen(cfg.unixPath);
    for (size_t i = 0; i < shards.size(); ++i)
        connectShard((int)i);
}

void
Proxy::stop()
{
    front.stop();
}

// --- event loop ------------------------------------------------------------

int
Proxy::pollTimeoutMs(Clock::time_point now) const
{
    bool have = false;
    Clock::time_point next{};
    auto consider = [&](Clock::time_point t) {
        if (!have || t < next) {
            next = t;
            have = true;
        }
    };
    for (const Shard &s : shards) {
        if (s.conn.fd < 0)
            consider(s.nextAttempt);
        else if (s.up && !s.probeOutstanding)
            consider(s.nextProbe);
        for (const auto &entry : s.inflight)
            consider(entry.second.deadline);
    }
    for (const auto &agg : aggs)
        if (!agg->done)
            consider(agg->deadline);
    if (!have)
        return -1;
    if (next <= now)
        return 0;
    auto ms = duration_cast<milliseconds>(next - now).count() + 1;
    return ms > 60'000 ? 60'000 : (int)ms;
}

void
Proxy::run()
{
    // The shard connections ride in the Frontend's poll() set; backs[i]
    // is the shard of fds[i].
    std::vector<pollfd> fds;
    std::vector<int> backs;
    for (;;) {
        fds.clear();
        backs.clear();
        for (size_t si = 0; si < shards.size(); ++si) {
            const server::Conn &bc = shards[si].conn;
            if (bc.fd < 0)
                continue;
            short events = POLLIN;
            if (!bc.out.empty())
                events |= POLLOUT;
            fds.push_back({bc.fd, events, 0});
            backs.push_back((int)si);
        }
        if (!front.poll(fds, pollTimeoutMs(Clock::now())))
            break;

        for (size_t i = 0; i < fds.size(); ++i) {
            short rev = fds[i].revents;
            int shard = backs[i];
            // The shard may have been failed (fds closed) by an earlier
            // event in this same batch; skip stale entries.
            server::Conn &bc = shards[(size_t)shard].conn;
            if (!rev || bc.fd != fds[i].fd)
                continue;
            if (rev & (POLLIN | POLLHUP | POLLERR | POLLNVAL))
                readBack(shard);
            if (bc.fd == fds[i].fd && (rev & POLLOUT))
                writeBack(shard);
        }

        runTimers(Clock::now());
    }
}

void
Proxy::runTimers(Clock::time_point now)
{
    std::vector<uint32_t> expired;
    for (size_t i = 0; i < shards.size(); ++i) {
        Shard &s = shards[i];
        if (s.conn.fd < 0 && now >= s.nextAttempt)
            connectShard((int)i);
        else if (s.up && !s.probeOutstanding && now >= s.nextProbe)
            sendProbe((int)i);

        expired.clear();
        for (const auto &entry : s.inflight)
            if (now >= entry.second.deadline)
                expired.push_back(entry.first);
        for (uint32_t id : expired) {
            // failShard() inside this loop clears the map; re-check.
            auto it = s.inflight.find(id);
            if (it == s.inflight.end())
                continue;
            Outstanding o = std::move(it->second);
            s.inflight.erase(it);
            if (o.kind != Outstanding::Kind::Probe) {
                abandon(s, std::move(o), " timed out");
                continue;
            }
            ++s.gauge.probeFailures;
            ++s.probeMisses;
            s.probeOutstanding = false;
            if (!s.up || s.probeMisses >= kProbeMissLimit)
                failShard((int)i, "health probes missed");
        }
    }

    for (auto &agg : aggs)
        if (!agg->done && now >= agg->deadline)
            finishAgg(agg);
    aggs.erase(std::remove_if(
                   aggs.begin(), aggs.end(),
                   [](const std::shared_ptr<StatsAgg> &a) {
                       return a->done;
                   }),
               aggs.end());
}

// --- front side ------------------------------------------------------------

void
Proxy::handleFrontFrame(uint64_t conn_id, const std::string &payload)
{
    switch (server::requestVerb(payload)) {
      case (uint8_t)server::Verb::Eval: {
        EvalRequest req;
        if (!decodeEvalRequest(payload, req)) {
            front.close(conn_id);
            return;
        }
        stats_.note(server::Counter::Accepted, req.mode);
        Outstanding o;
        o.kind = Outstanding::Kind::Eval;
        o.frontId = conn_id;
        o.clientReqId = req.id;
        o.req = std::move(req);
        o.retriesLeft = cfg.maxRetries;
        o.sentAt = Clock::now();
        dispatchEval(std::move(o));
        return;
      }
      case (uint8_t)server::Verb::Stats: {
        server::StatsRequest req;
        if (!decodeStatsRequest(payload, req)) {
            front.close(conn_id);
            return;
        }
        startStatsFanout(conn_id, req.id);
        return;
      }
      default:
        front.close(conn_id);
    }
}

// --- routing ---------------------------------------------------------------

void
Proxy::dispatchEval(Outstanding o)
{
    std::vector<int> cand;
    ring.candidatesFor(
        routingKey((uint8_t)o.req.mode, o.req.program), cand);
    int target = -1;
    for (int c : cand) {
        if (std::find(o.tried.begin(), o.tried.end(), c) !=
            o.tried.end())
            continue;
        const Shard &s = shards[(size_t)c];
        if (!s.up || s.inflight.size() >= kMaxInflightPerShard)
            continue;
        target = c;
        break;
    }

    if (target >= 0) {
        if (o.tried.empty() && target != cand[0])
            // First choice was not the home shard: the ring routed
            // around a dead or full shard (DEGRADED accounting).
            stats_.noteRerouted();
        o.tried.push_back(target);
        forwardTo(target, std::move(o));
        return;
    }

    bool any_alive = std::any_of(shards.begin(), shards.end(),
                                 [](const Shard &s) { return s.up; });
    if (!any_alive && std::any_of(shards.begin(), shards.end(),
                                  [](const Shard &s) {
                                      return s.conn.fd >= 0;
                                  })) {
        parked.push_back(std::move(o));
        return;
    }
    EvalResponse resp;
    if (any_alive) {
        // Aggregate capacity: every alive shard is full or shed.
        resp.status = Status::Shed;
        resp.result = "cluster at capacity: all shards refused";
    } else {
        resp.status = Status::Error;
        resp.result = "no alive shards";
    }
    deliver(o, std::move(resp));
}

void
Proxy::dispatchParked()
{
    std::vector<Outstanding> waiting = std::move(parked);
    parked.clear();
    for (Outstanding &o : waiting)
        dispatchEval(std::move(o));
}

void
Proxy::forwardTo(int shard_index, Outstanding o)
{
    Shard &s = shards[(size_t)shard_index];
    uint32_t id = nextBackendId++;
    o.deadline = Clock::now() + milliseconds(cfg.forwardTimeoutMs);

    EvalRequest wire = o.req;
    wire.id = id;
    encodeEvalRequest(s.conn.out, wire);

    ++s.gauge.forwarded;
    stats_.noteForwarded();
    s.inflight.emplace(id, std::move(o));
    writeBack(shard_index);
}

void
Proxy::deliver(Outstanding &o, EvalResponse resp)
{
    stats_.note(server::outcomeCounter(resp.status), o.req.mode);
    if (resp.status == Status::Ok)
        stats_.noteLatency(o.req.mode,
                           elapsedMicros(o.sentAt, Clock::now()));
    resp.id = o.clientReqId;
    front.reply(o.frontId, resp);
}

// --- back side -------------------------------------------------------------

void
Proxy::connectShard(int shard_index)
{
    Shard &s = shards[(size_t)shard_index];
    int fd = s.ep.connect(/*nonblocking=*/true);
    if (fd < 0) {
        // Refused: back off quietly (down events are counted by
        // failShard(), not by each failed retry).
        scheduleReconnect(s);
        return;
    }
    s.conn.fd = fd;
    s.conn.in.clear();
    s.conn.out.clear();
    server::encodeHello(s.conn.out); // first bytes on the wire
    // The shard stays down until it answers this probe.
    s.probeMisses = 0;
    sendProbe(shard_index);
}

void
Proxy::scheduleReconnect(Shard &s)
{
    s.backoffMs = s.backoffMs
                      ? std::min(s.backoffMs * 2, kConnectBackoffMaxMs)
                      : kConnectBackoffMs;
    s.nextAttempt = Clock::now() + milliseconds(s.backoffMs);
}

void
Proxy::readBack(int shard_index)
{
    server::Conn &bc = shards[(size_t)shard_index].conn;
    if (!bc.fill()) {
        failShard(shard_index,
                  errno ? std::strerror(errno) : "connection closed");
        return;
    }

    std::string payload;
    for (;;) {
        server::FrameResult r = server::takeFrame(
            bc.in, payload, server::kMaxResponseBytes);
        if (r == server::FrameResult::Incomplete)
            return;
        if (r == server::FrameResult::Malformed) {
            failShard(shard_index, "malformed response frame");
            return;
        }
        EvalResponse resp;
        if (!decodeResponse(payload, resp)) {
            failShard(shard_index, "undecodable response payload");
            return;
        }
        handleBackResponse(shard_index, resp);
        // failShard() inside the handler invalidates the buffer.
        if (bc.fd < 0)
            return;
    }
}

void
Proxy::writeBack(int shard_index)
{
    server::Conn &bc = shards[(size_t)shard_index].conn;
    if (bc.fd >= 0 && !bc.flush())
        failShard(shard_index, std::strerror(errno));
}

void
Proxy::handleBackResponse(int shard_index, const EvalResponse &resp)
{
    Shard &s = shards[(size_t)shard_index];
    auto it = s.inflight.find(resp.id);
    if (it == s.inflight.end()) {
        // Answered after we gave up on it (timeout/retry). The
        // timeout path already delivered to the client, counted the
        // outcome, and erased the id — which is what makes this drop
        // safe: no second deliver, no second latency sample, and the
        // in-flight gauge (the map size) was already decremented
        // exactly once when the id was erased. Count and drop.
        stats_.noteLateReply();
        ++s.gauge.lateReplies;
        return;
    }
    Outstanding o = std::move(it->second);
    s.inflight.erase(it);

    switch (o.kind) {
      case Outstanding::Kind::Probe:
        s.probeOutstanding = false;
        s.probeMisses = 0;
        if (!s.up) {
            // The first answer on this connection: the shard is up.
            s.up = true;
            if (s.gauge.downEvents > 0)
                ++s.gauge.reconnects;
            s.backoffMs = 0;
            dispatchParked();
        }
        return;
      case Outstanding::Kind::Stats:
        if (!o.agg->done) {
            o.agg->collected.push_back(resp.result);
            if (--o.agg->waiting == 0)
                finishAgg(o.agg);
        }
        return;
      case Outstanding::Kind::Eval:
        break;
    }

    switch (resp.status) {
      case Status::Ok:
        ++s.gauge.ok;
        break;
      case Status::Shed:
        ++s.gauge.shed;
        break;
      case Status::Deadline:
        ++s.gauge.deadline;
        break;
      case Status::Error:
        ++s.gauge.error;
        break;
    }

    if (resp.status == Status::Shed && o.retriesLeft > 0) {
        // This shard refused; try the next ring candidate. The
        // client sees SHED only when the whole cluster refuses.
        --o.retriesLeft;
        stats_.noteRetry();
        dispatchEval(std::move(o));
        return;
    }
    deliver(o, resp);
}

void
Proxy::failShard(int shard_index, const char *reason)
{
    Shard &s = shards[(size_t)shard_index];
    if (s.conn.fd < 0)
        return;
    ::close(s.conn.fd);
    s.conn = server::Conn{};
    s.probeOutstanding = false;
    s.probeMisses = 0;
    scheduleReconnect(s);

    // A connection that never answered carries only its first probe:
    // the shard was never up, so nothing went down. Parked EVALs wait
    // for it no longer.
    auto inflight = std::move(s.inflight);
    s.inflight.clear();
    if (!s.up) {
        dispatchParked();
        return;
    }
    s.up = false;
    ++s.gauge.downEvents;
    stats_.noteShardFailure();
    if (!inflight.empty() || s.gauge.downEvents == 1)
        warn("interproxy: shard %s down (%s), %zu in flight",
             s.ep.name.c_str(), reason, inflight.size());

    for (auto &entry : inflight)
        if (entry.second.kind != Outstanding::Kind::Probe)
            abandon(s, std::move(entry.second),
                    std::string(" failed: ") + reason);
}

void
Proxy::abandon(Shard &s, Outstanding o, const std::string &why)
{
    if (o.kind == Outstanding::Kind::Stats) {
        if (!o.agg->done && --o.agg->waiting == 0)
            finishAgg(o.agg);
        return;
    }
    ++s.gauge.error;
    if (o.retriesLeft > 0) {
        --o.retriesLeft;
        stats_.noteRetry();
        dispatchEval(std::move(o));
        return;
    }
    EvalResponse resp;
    resp.status = Status::Error;
    resp.result = "shard " + s.ep.name + why;
    deliver(o, std::move(resp));
}

void
Proxy::sendProbe(int shard_index)
{
    Shard &s = shards[(size_t)shard_index];
    Outstanding o;
    o.kind = Outstanding::Kind::Probe;
    o.deadline = Clock::now() + milliseconds(kStatsTimeoutMs);
    s.probeOutstanding = true;
    s.nextProbe = Clock::now() + milliseconds(kProbeIntervalMs);
    sendStats(shard_index, std::move(o));
}

void
Proxy::sendStats(int shard_index, Outstanding o)
{
    Shard &s = shards[(size_t)shard_index];
    uint32_t id = nextBackendId++;
    server::StatsRequest req;
    req.id = id;
    encodeStatsRequest(s.conn.out, req);
    s.inflight.emplace(id, std::move(o));
    writeBack(shard_index);
}

// --- stats -----------------------------------------------------------------

void
Proxy::startStatsFanout(uint64_t conn_id, uint32_t client_req_id)
{
    auto agg = std::make_shared<StatsAgg>();
    agg->frontId = conn_id;
    agg->clientReqId = client_req_id;
    agg->deadline = Clock::now() + milliseconds(kStatsTimeoutMs);

    for (size_t i = 0; i < shards.size(); ++i) {
        if (!shards[i].up)
            continue;
        Outstanding o;
        o.kind = Outstanding::Kind::Stats;
        o.deadline = agg->deadline;
        o.agg = agg;
        ++agg->waiting;
        sendStats((int)i, std::move(o));
    }

    if (agg->waiting == 0)
        finishAgg(agg);
    else
        aggs.push_back(agg);
}

void
Proxy::finishAgg(const std::shared_ptr<StatsAgg> &agg)
{
    if (agg->done)
        return;
    agg->done = true;
    EvalResponse resp;
    resp.id = agg->clientReqId;
    resp.status = Status::Ok;
    resp.result =
        stats_.renderJson(gauges(), mergeShardStats(agg->collected));
    front.reply(agg->frontId, resp);
}

std::vector<ShardGauges>
Proxy::gauges() const
{
    std::vector<ShardGauges> out;
    out.reserve(shards.size());
    for (const Shard &s : shards) {
        ShardGauges g = s.gauge;
        g.name = s.ep.name;
        g.state = s.up ? "up" : "down";
        g.inflight = s.inflight.size();
        out.push_back(std::move(g));
    }
    return out;
}

} // namespace interp::cluster
