/**
 * @file
 * interpd end-to-end and unit tests.
 *
 * The end-to-end suite runs a real Server (event loop on its own
 * thread, workers on the harness pool) against a Unix-domain socket
 * and drives it through the same loadgen code path the CLI tool uses.
 * It pins the acceptance contract of the serving mode:
 *
 *   identity   every OK response is byte-identical to what the batch
 *              harness produces for the same spec (commands, native
 *              instructions, stdout) — serving must not perturb the
 *              measurement, even with several modes in flight;
 *   order      one worker runs requests in arrival order, whatever
 *              their modes, and a daemon torn down with requests
 *              queued runs none of them;
 *   shedding   an over-capacity burst yields SHED responses and zero
 *              crashes, and every request id is answered exactly once;
 *   deadlines  an already-expired deadline returns DEADLINE without
 *              executing; a mid-run expiry aborts at a safepoint;
 *   stats      STATS counters reconcile exactly with client-observed
 *              totals.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/un.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>

#include "harness/runner.hh"
#include "server/client.hh"
#include "server/conn.hh"
#include "server/server.hh"
#include "server/stats.hh"
#include "support/logging.hh"
#include "tracefile/reader.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::server;
using harness::Lang;

namespace {

/** A running daemon on a private Unix socket, torn down on scope exit. */
class TestServer
{
  public:
    explicit TestServer(ServerConfig cfg)
    {
        static int counter = 0;
        char path[96];
        std::snprintf(path, sizeof(path), "/tmp/interpd_test_%d_%d.sock",
                      (int)::getpid(), counter++);
        cfg.unixPath = path;
        server = std::make_unique<Server>(cfg);
        server->start();
        loop = std::thread([this] { server->run(); });
    }

    ~TestServer()
    {
        server->stop();
        loop.join();
        server.reset();
    }

    const std::string &path() const { return server->config().unixPath; }
    Server &daemon() { return *server; }

  private:
    std::unique_ptr<Server> server;
    std::thread loop;
};

/** What the batch harness measures for a micro spec under `mode`. */
harness::Measurement
batchMeasure(Lang mode, const std::string &op, int iterations)
{
    harness::BenchSpec spec =
        harness::microBench(harness::modeInfo(mode).baseline, op,
                            iterations);
    spec.lang = mode;
    return harness::run(spec, {}, nullptr, /*with_machine=*/false);
}

/** Send @p req, which carries a short deadline, until one attempt
 *  is cut off during execution rather than in the queue (under load a
 *  short deadline can also expire before the worker takes it). */
EvalResponse
evalUntilCutOffRunning(Client &conn, const EvalRequest &req)
{
    EvalResponse resp;
    for (int attempt = 0; attempt < 20; ++attempt) {
        resp = conn.eval(req);
        if (resp.result != "deadline expired before execution")
            break;
    }
    return resp;
}

EvalRequest
microRequest(Lang mode, uint32_t iterations)
{
    EvalRequest req;
    req.mode = mode;
    req.program = "micro:a=b+c";
    req.iterations = iterations;
    return req;
}

} // namespace

// --- protocol unit tests ---------------------------------------------------

TEST(Protocol, EvalRequestRoundTrip)
{
    EvalRequest req;
    req.id = 7;
    req.mode = Lang::JavaQuick;
    req.flags = kFlagRecordTrace | kFlagWithMachine;
    req.deadlineMs = 1500;
    req.maxCommands = 123456789;
    req.iterations = 42;
    req.kind = ProgramKind::Inline;
    req.program = "puts \"hi\"";

    std::string wire;
    encodeEvalRequest(wire, req);

    std::string payload;
    ASSERT_EQ(takeFrame(wire, payload, kMaxRequestBytes),
              FrameResult::Frame);
    EXPECT_TRUE(wire.empty());
    EXPECT_EQ(requestVerb(payload), (uint8_t)Verb::Eval);

    EvalRequest back;
    ASSERT_TRUE(decodeEvalRequest(payload, back));
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.mode, req.mode);
    EXPECT_EQ(back.flags, req.flags);
    EXPECT_EQ(back.deadlineMs, req.deadlineMs);
    EXPECT_EQ(back.maxCommands, req.maxCommands);
    EXPECT_EQ(back.iterations, req.iterations);
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.program, req.program);
}

TEST(Protocol, ResponseRoundTripAndPartialFrames)
{
    EvalResponse resp;
    resp.id = 99;
    resp.status = Status::Deadline;
    resp.commands = 1;
    resp.instructions = 2;
    resp.cycles = 3;
    resp.queueMicros = 4;
    resp.serviceMicros = 5;
    resp.result = "late";

    std::string wire;
    encodeResponse(wire, resp);

    // Feed the stream a byte at a time: Incomplete until the last one.
    std::string buf, payload;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        buf.push_back(wire[i]);
        ASSERT_EQ(takeFrame(buf, payload, kMaxResponseBytes),
                  FrameResult::Incomplete);
    }
    buf.push_back(wire.back());
    ASSERT_EQ(takeFrame(buf, payload, kMaxResponseBytes),
              FrameResult::Frame);

    EvalResponse back;
    ASSERT_TRUE(decodeResponse(payload, back));
    EXPECT_EQ(back.id, resp.id);
    EXPECT_EQ(back.status, resp.status);
    EXPECT_EQ(back.result, resp.result);
    EXPECT_EQ(back.queueMicros, resp.queueMicros);
}

TEST(Protocol, MalformationsAreRejected)
{
    // Oversized frame length.
    std::string buf("\xff\xff\xff\xff", 4);
    std::string payload;
    EXPECT_EQ(takeFrame(buf, payload, kMaxRequestBytes),
              FrameResult::Malformed);

    // Unknown mode byte.
    EvalRequest req;
    req.program = "des";
    std::string wire;
    encodeEvalRequest(wire, req);
    ASSERT_EQ(takeFrame(wire, payload, kMaxRequestBytes),
              FrameResult::Frame);
    std::string bad = payload;
    bad[5] = (char)0x7f; // mode field (verb + u32 id precede it)
    EvalRequest back;
    EXPECT_FALSE(decodeEvalRequest(bad, back));

    // Truncated payload.
    bad = payload.substr(0, payload.size() - 1);
    EXPECT_FALSE(decodeEvalRequest(bad, back));
    // Trailing garbage.
    bad = payload + "x";
    EXPECT_FALSE(decodeEvalRequest(bad, back));

    // STATS decoder rejects an EVAL payload and vice versa.
    StatsRequest sback;
    EXPECT_FALSE(decodeStatsRequest(payload, sback));
}

TEST(Protocol, StatsRequestRoundTrip)
{
    StatsRequest req;
    req.id = 31337;
    std::string wire;
    encodeStatsRequest(wire, req);
    std::string payload;
    ASSERT_EQ(takeFrame(wire, payload, kMaxRequestBytes),
              FrameResult::Frame);
    EXPECT_EQ(requestVerb(payload), (uint8_t)Verb::Stats);
    StatsRequest back;
    ASSERT_TRUE(decodeStatsRequest(payload, back));
    EXPECT_EQ(back.id, req.id);
}

TEST(Protocol, RecvBufferBurstDrainsIdenticalFrames)
{
    // The O(F*B) regression: a large pipelined burst used to cost one
    // whole-buffer memmove per frame. The RecvBuffer drain must hand
    // back exactly the frame sequence the string-based drain does, in
    // every chunking, with hello handling included.
    std::string wire;
    encodeHello(wire);
    constexpr int kFrames = 4000;
    for (int i = 0; i < kFrames; ++i) {
        EvalRequest req;
        req.id = (uint32_t)i;
        req.mode = Lang::Tcl;
        // Sizes vary so frame boundaries land at every chunk offset.
        req.program = std::string(1 + (i * 37) % 300, 'a' + i % 26);
        encodeEvalRequest(wire, req);
    }

    auto drainString = [&](size_t chunk) {
        std::vector<std::string> frames;
        std::string buf, payload;
        bool greeted = false;
        for (size_t off = 0; off < wire.size(); off += chunk) {
            buf.append(wire, off, std::min(chunk, wire.size() - off));
            if (!greeted) {
                if (takeHello(buf) != HelloResult::Ok)
                    continue;
                greeted = true;
            }
            while (takeFrame(buf, payload, kMaxRequestBytes) ==
                   FrameResult::Frame)
                frames.push_back(payload);
        }
        EXPECT_TRUE(buf.empty());
        return frames;
    };
    auto drainRecv = [&](size_t chunk) {
        std::vector<std::string> frames;
        RecvBuffer buf;
        std::string payload;
        bool greeted = false;
        for (size_t off = 0; off < wire.size(); off += chunk) {
            size_t n = std::min(chunk, wire.size() - off);
            buf.append(wire.data() + off, n);
            if (!greeted) {
                if (takeHello(buf) != HelloResult::Ok)
                    continue;
                greeted = true;
            }
            while (takeFrame(buf, payload, kMaxRequestBytes) ==
                   FrameResult::Frame)
                frames.push_back(payload);
        }
        EXPECT_TRUE(buf.empty());
        return frames;
    };

    // One poll cycle delivering the whole burst, typical read sizes,
    // and a pathological byte-at-a-time trickle over a small prefix.
    for (size_t chunk : {wire.size(), (size_t)65536, (size_t)4096,
                         (size_t)1023}) {
        std::vector<std::string> want = drainString(chunk);
        std::vector<std::string> got = drainRecv(chunk);
        ASSERT_EQ(want.size(), got.size()) << "chunk " << chunk;
        EXPECT_EQ(want.size(), (size_t)kFrames) << "chunk " << chunk;
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(want[i], got[i])
                << "chunk " << chunk << " frame " << i;
    }
}

TEST(Protocol, RecvBufferCompactsOncePerAppendCycle)
{
    // consume() must not move bytes; the erase happens lazily on the
    // next append. size()/data() always describe the unread suffix.
    RecvBuffer buf;
    buf.append("abcdef", 6);
    buf.consume(4);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(std::string(buf.data(), buf.size()), "ef");
    buf.append("gh", 2);
    EXPECT_EQ(std::string(buf.data(), buf.size()), "efgh");
    buf.consume(4);
    EXPECT_TRUE(buf.empty());
    // Defensive clamp: a consume past the end empties, never UB.
    buf.append("xy", 2);
    buf.consume(99);
    EXPECT_TRUE(buf.empty());
    buf.clear();
    EXPECT_TRUE(buf.empty());
}

// --- stats unit tests ------------------------------------------------------

TEST(LatencyHistogram, BucketsAreLog2)
{
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0);
    EXPECT_EQ(LatencyHistogram::bucketOf(1), 0);
    EXPECT_EQ(LatencyHistogram::bucketOf(2), 1);
    EXPECT_EQ(LatencyHistogram::bucketOf(3), 1);
    EXPECT_EQ(LatencyHistogram::bucketOf(1023), 9);
    EXPECT_EQ(LatencyHistogram::bucketOf(1024), 10);
    EXPECT_EQ(LatencyHistogram::bucketFloor(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketFloor(10), 1024u);
    EXPECT_EQ(LatencyHistogram::bucketCeil(0), 1u);
    EXPECT_EQ(LatencyHistogram::bucketCeil(10), 2047u);
    // Every value lands in the bucket that brackets it:
    // floor <= v <= ceil.
    for (uint64_t v :
         {0ull, 1ull, 7ull, 100ull, 4095ull, 1ull << 20}) {
        int b = LatencyHistogram::bucketOf(v);
        EXPECT_LE(LatencyHistogram::bucketFloor(b), v);
        EXPECT_GE(LatencyHistogram::bucketCeil(b), v);
    }

    LatencyHistogram h;
    for (int i = 0; i < 99; ++i)
        h.add(10); // bucket 3: [8, 16)
    h.add(100000); // bucket 16: [65536, 131072)
    EXPECT_EQ(h.count(), 100u);
    // Quantiles resolve to the bucket's inclusive upper bound, so
    // they never under-report the tail (the old floor answer turned
    // a p99 of 10us into "8us").
    EXPECT_EQ(h.quantile(0.50), 15u);
    EXPECT_EQ(h.quantile(0.99), 15u);
    EXPECT_EQ(h.quantile(1.0), 131071u);
    EXPECT_LE(10u, h.quantile(0.50));
    EXPECT_LE(100000u, h.quantile(1.0));
}

TEST(LatencyHistogram, QuantileNeverBelowExactQuantile)
{
    // The histogram quantile and LoadgenTotals::percentile use the
    // same rank formula (q * (n-1) over the sorted samples); with
    // ceiling resolution the coarse answer must bound the exact one
    // from above at every probed quantile.
    std::vector<uint64_t> samples;
    LatencyHistogram h;
    uint64_t v = 1;
    for (int i = 0; i < 500; ++i) {
        v = (v * 2862933555777941757ull + 3037000493ull) % 200000;
        samples.push_back(v);
        h.add(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        uint64_t exact =
            samples[(size_t)(q * (double)(samples.size() - 1))];
        EXPECT_LE(exact, h.quantile(q)) << "q=" << q;
    }
}

TEST(ServerStatsJson, RenderAndParse)
{
    ServerStats stats;
    stats.note(Counter::Accepted, Lang::Tcl);
    stats.note(Counter::Served, Lang::Tcl);
    stats.note(Counter::Accepted, Lang::Mipsi);
    stats.note(Counter::Shed, Lang::Mipsi);
    stats.noteLatency(10, 1000);

    std::string json = stats.renderJson(3, 2);
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "accepted", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.served", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.MIPSI.shed", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "queued_jobs", v));
    EXPECT_EQ(v, 3u);
    ASSERT_TRUE(statsJsonUint(json, "idle_workers", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(json, "histograms.total_us.count", v));
    EXPECT_EQ(v, 1u);
    EXPECT_FALSE(statsJsonUint(json, "modes.Perl.served", v));
    EXPECT_FALSE(statsJsonUint(json, "no.such.path", v));
}

TEST(ServerStatsJson, LookupsMatchKeysAtTheirOwnDepth)
{
    // A key is matched only among the members of the object the path
    // has reached: a nested "x" never answers for a top-level one.
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint("{\"a\":{\"x\":1},\"x\":2}", "x", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint("{\"a\":{\"x\":1},\"x\":2}", "a.x", v));
    EXPECT_EQ(v, 1u);
    EXPECT_FALSE(statsJsonUint("{\"a\":{\"x\":1}}", "x", v));
    // Strings, arrays and nested objects are stepped over whole.
    std::string doc = "{\"id\":\"{\\\"x\\\":9,[\",\"b\":[[1,2],[3,4]],"
                      "\"c\":{\"d\":{\"x\":5}},\"x\":7}";
    ASSERT_TRUE(statsJsonUint(doc, "x", v));
    EXPECT_EQ(v, 7u);
    ASSERT_TRUE(statsJsonUint(doc, "c.d.x", v));
    EXPECT_EQ(v, 5u);
    EXPECT_FALSE(statsJsonUint(doc, "c.x", v));
    EXPECT_FALSE(statsJsonUint("{\"x\":", "x", v));
    EXPECT_FALSE(statsJsonUint("", "x", v));
}

TEST(ModeNames, EveryModeRoundTripsThroughItsName)
{
    for (const harness::ModeInfo &m : harness::kModes) {
        Lang back = Lang::C;
        ASSERT_TRUE(langFromName(m.name, back)) << m.name;
        EXPECT_EQ(back, m.lang) << m.name;
        std::string lower = m.name;
        for (char &c : lower)
            c = (char)std::tolower((unsigned char)c);
        ASSERT_TRUE(langFromName(lower, back)) << lower;
        EXPECT_EQ(back, m.lang) << lower;
    }
    Lang alias = Lang::C;
    ASSERT_TRUE(langFromName("jvm", alias));
    EXPECT_EQ(alias, Lang::Java);
    ASSERT_TRUE(langFromName("jvm-quick", alias));
    EXPECT_EQ(alias, Lang::JavaQuick);
    ASSERT_TRUE(langFromName("threaded", alias));
    EXPECT_EQ(alias, Lang::MipsiThreaded);
    EXPECT_FALSE(langFromName("cobol", alias));
    EXPECT_FALSE(langFromName("", alias));
}

TEST(ProgramCatalog, MicroCacheStopsGrowingAtItsCap)
{
    // The client picks a micro's iteration count, so it can name
    // unboundedly many keys; only the first kMaxMicroEntries stay warm.
    ProgramCatalog catalog;
    const uint32_t cap = ProgramCatalog::kMaxMicroEntries;
    for (uint32_t iters = 1; iters <= cap; ++iters)
        catalog.resolve(Lang::Tcl, "micro:a=b+c", iters);
    CatalogCounters c = catalog.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, cap);
    EXPECT_EQ(c.loads, cap);

    // An early key still hits, in any mode of its baseline...
    catalog.resolve(Lang::TclBytecode, "micro:a=b+c", 1);
    EXPECT_EQ(catalog.counters().hits, 1u);

    // ...and a new key misses on every resolve, built the same way.
    std::string source =
        harness::microBench(Lang::Tcl, "a=b+c", cap + 1).source;
    for (int i = 0; i < 3; ++i) {
        harness::BenchSpec spec =
            catalog.resolve(Lang::TclJit, "micro:a=b+c", cap + 1);
        EXPECT_EQ(spec.lang, Lang::TclJit);
        EXPECT_EQ(spec.source, source);
    }
    c = catalog.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, cap + 3);
    EXPECT_EQ(c.loads, cap + 3);
}

TEST(ProgramCatalog, ResolvedSpecsMeasureLikeTheRegistry)
{
    // A served run measures what the study measures: the catalog's
    // spec (a shared image or module) and the registry's spec (built
    // from source) agree on every counted total, in every mode, over
    // the programs the repository benchmark serves.
    ProgramCatalog catalog;
    int pairs = 0;
    for (const char *name :
         {"des", "spin", "matmul", "kanren", "hanoi", "tcllex"}) {
        const workloads::Workload *wl = workloads::find(name);
        ASSERT_TRUE(wl) << name;
        for (const harness::ModeInfo &m : harness::kModes) {
            if (!wl->supports(m.lang))
                continue;
            SCOPED_TRACE(std::string(m.name) + "/" + name);
            harness::Measurement served =
                harness::run(catalog.resolve(m.lang, name, 0), {},
                             nullptr, /*with_machine=*/false);
            harness::Measurement study =
                harness::run(workloads::specFor(*wl, m.lang), {},
                             nullptr, /*with_machine=*/false);
            const trace::Profile &a = served.profile, &b = study.profile;
            EXPECT_EQ(served.commands, study.commands);
            EXPECT_EQ(a.commands(), b.commands());
            EXPECT_EQ(a.fetchDecodeInsts(), b.fetchDecodeInsts());
            EXPECT_EQ(a.executeInsts(), b.executeInsts());
            EXPECT_EQ(a.precompileInsts(), b.precompileInsts());
            EXPECT_EQ(a.nativeLibInsts(), b.nativeLibInsts());
            EXPECT_EQ(a.memModelInsts(), b.memModelInsts());
            EXPECT_EQ(a.systemInsts(), b.systemInsts());
            EXPECT_EQ(served.stdoutText, study.stdoutText);
            ++pairs;
        }
    }
    EXPECT_EQ(pairs, 58);
}

// --- endpoint parsing (outside input) --------------------------------------

TEST(Endpoint, OnlyUnixSocketPathsParse)
{
    Endpoint ep;
    ASSERT_TRUE(Endpoint::parse("unix:/tmp/s0.sock", ep));
    EXPECT_EQ(ep.path, "/tmp/s0.sock");
    ASSERT_TRUE(Endpoint::parse("unix:s0.sock", ep));
    EXPECT_EQ(ep.path, "s0.sock");
    ASSERT_TRUE(Endpoint::parse("/tmp/s1.sock", ep));
    EXPECT_EQ(ep.path, "/tmp/s1.sock");
    ASSERT_TRUE(Endpoint::parse("run/s2.sock", ep));
    EXPECT_EQ(ep.path, "run/s2.sock");

    // The longest path a sockaddr_un holds, and one byte more.
    const size_t room = sizeof(sockaddr_un::sun_path) - 1;
    std::string longest = "/" + std::string(room - 1, 'x');
    EXPECT_TRUE(Endpoint::parse(longest, ep));
    EXPECT_TRUE(Endpoint::parse("unix:" + longest, ep));
    EXPECT_FALSE(Endpoint::parse(longest + "x", ep));
    EXPECT_FALSE(Endpoint::parse("unix:" + longest + "x", ep));

    for (const char *bad : {"tcp:8080", "8080", "unix:", "", "s0.sock",
                            "localhost:8080"})
        EXPECT_FALSE(Endpoint::parse(bad, ep)) << '"' << bad << '"';
}

// --- end-to-end: identity under concurrency --------------------------------

TEST(ServerEndToEnd, LoadgenMatchesBatchHarnessAcrossModes)
{
    const uint32_t kIters = 300;
    std::vector<Lang> modes;
    for (const harness::ModeInfo &m : harness::kModes)
        modes.push_back(m.lang);

    // The serving path must reproduce the batch harness bit for bit.
    std::map<Lang, harness::Measurement> expected;
    for (Lang mode : modes)
        expected.emplace(mode,
                         batchMeasure(mode, "a=b+c", (int)kIters));

    ServerConfig cfg;
    cfg.workers = 2;
    TestServer ts(cfg);

    LoadgenOptions opt;
    opt.endpoints = {ts.path()};
    opt.clients = 4;
    // Each client walks the whole mix, so every mode is sent.
    opt.requestsPerClient = (unsigned)modes.size();
    for (Lang mode : modes)
        opt.mix.push_back(microRequest(mode, kIters));
    opt.onResponse = [&expected](const EvalRequest &req,
                                 const EvalResponse &resp) {
        SCOPED_TRACE(harness::langName(req.mode));
        ASSERT_EQ(resp.status, Status::Ok) << resp.result;
        const harness::Measurement &m = expected.at(req.mode);
        EXPECT_EQ(resp.commands, m.commands);
        EXPECT_EQ(resp.instructions, m.profile.instructions());
        EXPECT_EQ(resp.result, m.stdoutText);
        EXPECT_EQ(resp.cycles, 0u); // no kFlagWithMachine
    };

    LoadgenReport report = runLoadgen(opt);
    EXPECT_EQ(report.all.sent, opt.clients * modes.size());
    EXPECT_EQ(report.all.ok, report.all.sent);

    // STATS reconciles exactly with the client-observed totals.
    Client conn = Client::connectUnix(ts.path());
    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "accepted", v));
    EXPECT_EQ(v, report.all.sent);
    ASSERT_TRUE(statsJsonUint(json, "served", v));
    EXPECT_EQ(v, report.all.ok);
    ASSERT_TRUE(statsJsonUint(json, "shed", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(statsJsonUint(json, "deadline", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(statsJsonUint(json, "failed", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(statsJsonUint(json, "histograms.total_us.count", v));
    EXPECT_EQ(v, report.all.ok);
    for (Lang mode : modes) {
        std::string path = std::string("modes.") +
                           harness::langName(mode) + ".served";
        ASSERT_TRUE(statsJsonUint(json, path, v)) << path;
        EXPECT_EQ(v, report.byMode.at(harness::langName(mode)).ok);
    }
}

// --- end-to-end: backpressure ----------------------------------------------

TEST(ServerEndToEnd, OverCapacityBurstShedsWithoutCrashing)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxQueue = 2;
    TestServer ts(cfg);

    // Pipeline a burst far beyond queue capacity; every id must come
    // back exactly once, sheds must appear, nothing may crash.
    const uint32_t kBurst = 12;
    Client conn = Client::connectUnix(ts.path());
    for (uint32_t i = 1; i <= kBurst; ++i) {
        EvalRequest req = microRequest(Lang::Tcl, 20000);
        req.id = i;
        conn.sendEval(req);
    }

    std::map<uint32_t, Status> outcomes;
    for (uint32_t i = 0; i < kBurst; ++i) {
        EvalResponse resp = conn.recv();
        EXPECT_TRUE(outcomes.emplace(resp.id, resp.status).second)
            << "duplicate response for id " << resp.id;
    }
    ASSERT_EQ(outcomes.size(), kBurst);

    uint64_t ok = 0, shed = 0;
    for (const auto &entry : outcomes) {
        ASSERT_TRUE(entry.second == Status::Ok ||
                    entry.second == Status::Shed)
            << "id " << entry.first << " -> "
            << statusName(entry.second);
        (entry.second == Status::Ok ? ok : shed)++;
    }
    EXPECT_GE(ok, 1u);   // at least the in-flight request ran
    EXPECT_GE(shed, 1u); // the burst exceeded queue + in-flight
    EXPECT_EQ(ok + shed, kBurst);

    // And the daemon is still healthy afterwards.
    EvalRequest again = microRequest(Lang::Tcl, 300);
    again.id = 777;
    EvalResponse resp = conn.eval(again);
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;

    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "accepted", v));
    EXPECT_EQ(v, (uint64_t)kBurst + 1);
    ASSERT_TRUE(statsJsonUint(json, "shed", v));
    EXPECT_EQ(v, shed);
    ASSERT_TRUE(statsJsonUint(json, "served", v));
    EXPECT_EQ(v, ok + 1);
}

// --- end-to-end: arrival order and shutdown --------------------------------

TEST(ServerEndToEnd, OneWorkerAnswersInArrivalOrderAcrossModes)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    // A slow Tcl run holds the only worker while MIPSI, Java, MIPSI
    // requests queue behind it. The pool is one FIFO, so they run and
    // answer in send order; no mode jumps the queue.
    Client conn = Client::connectUnix(ts.path());
    const Lang modes[] = {Lang::Tcl, Lang::Mipsi, Lang::Java,
                          Lang::Mipsi};
    for (uint32_t i = 0; i < 4; ++i) {
        EvalRequest req = microRequest(modes[i], i == 0 ? 20000 : 300);
        req.id = i + 1;
        conn.sendEval(req);
    }
    for (uint32_t i = 0; i < 4; ++i) {
        EvalResponse resp = conn.recv();
        EXPECT_EQ(resp.id, i + 1) << "answer " << i << " out of order";
        EXPECT_EQ(resp.status, Status::Ok) << resp.result;
    }
}

TEST(ServerEndToEnd, DestroyingTheServerDropsQueuedRequests)
{
    char dir[96];
    std::snprintf(dir, sizeof(dir), "/tmp/interpd_test_drop_%d",
                  (int)::getpid());

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.recordDir = dir;
    auto ts = std::make_unique<TestServer>(cfg);

    // One long run (cut off by its deadline) holds the only worker;
    // three recording requests queue behind it. A request that runs
    // leaves a tape in the record directory.
    Client conn = Client::connectUnix(ts->path());
    EvalRequest slow = microRequest(Lang::Tcl, 2'000'000);
    slow.id = 1;
    slow.deadlineMs = 2000;
    conn.sendEval(slow);
    for (uint32_t id = 2; id <= 4; ++id) {
        EvalRequest req = microRequest(Lang::Mipsi, 300);
        req.id = id;
        req.flags = kFlagRecordTrace;
        conn.sendEval(req);
    }
    Client probe = Client::connectUnix(ts->path());
    uint64_t queued = 0, idle = 1;
    for (int tries = 0; tries < 200 && (queued != 3 || idle != 0);
         ++tries) {
        std::string json = probe.stats();
        statsJsonUint(json, "queued_jobs", queued);
        statsJsonUint(json, "idle_workers", idle);
        if (queued != 3 || idle != 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(queued, 3u);
    ASSERT_EQ(idle, 0u);

    // Teardown waits for the running request only; the queued ones
    // never start, so no tape is written.
    ts.reset();
    size_t tapes = 0;
    if (DIR *d = ::opendir(dir)) {
        while (struct dirent *ent = ::readdir(d))
            if (ent->d_name[0] != '.') {
                ++tapes;
                std::remove((std::string(dir) + "/" + ent->d_name).c_str());
            }
        ::closedir(d);
    }
    ::rmdir(dir);
    EXPECT_EQ(tapes, 0u) << "a queued request ran during teardown";
}

// --- end-to-end: deadlines -------------------------------------------------

TEST(ServerEndToEnd, ExpiredDeadlineReturnsWithoutExecuting)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());

    // A (no deadline) occupies the single worker; B (deadline 0 =
    // already expired) must be answered DEADLINE at dequeue with zero
    // work done. FIFO order makes this deterministic.
    EvalRequest a = microRequest(Lang::Mipsi, 20000);
    a.id = 1;
    EvalRequest b = microRequest(Lang::Mipsi, 20000);
    b.id = 2;
    b.deadlineMs = 0;
    conn.sendEval(a);
    conn.sendEval(b);

    std::map<uint32_t, EvalResponse> responses;
    for (int i = 0; i < 2; ++i) {
        EvalResponse resp = conn.recv();
        responses[resp.id] = resp;
    }
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].status, Status::Ok) << responses[1].result;
    EXPECT_EQ(responses[2].status, Status::Deadline);
    EXPECT_EQ(responses[2].commands, 0u);
    EXPECT_EQ(responses[2].instructions, 0u);
    EXPECT_EQ(responses[2].result, "deadline expired before execution");

    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "deadline", v));
    EXPECT_EQ(v, 1u);
}

TEST(ServerEndToEnd, MidRunDeadlineAbortsAtSafepoint)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    // Big enough to run well past the deadline; a trace safepoint
    // must cut it off (or the dequeue check, if the queue was slow —
    // either way: DEADLINE, never a full run).
    EvalRequest req = microRequest(Lang::Tcl, 2'000'000);
    req.id = 5;
    req.deadlineMs = 1;
    EvalResponse resp = conn.eval(req);
    EXPECT_EQ(resp.status, Status::Deadline);
    EXPECT_EQ(resp.commands, 0u);
}

TEST(ServerEndToEnd, DeadlineInsideAnArtifactBuildIsContained)
{
    // Java-tier2 builds its artifact in-run, inside routine scopes; a
    // deadline that fires at a safepoint there must unwind to a
    // DEADLINE answer, and the daemon must go on serving.
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    EvalRequest req;
    req.id = 1;
    req.mode = Lang::JavaTier2;
    req.program = "des";
    req.deadlineMs = 2;
    EvalResponse resp = evalUntilCutOffRunning(conn, req);
    EXPECT_EQ(resp.status, Status::Deadline);
    EXPECT_EQ(resp.result, "deadline expired during execution");

    resp = conn.eval(microRequest(Lang::Java, 300));
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;
}

TEST(ServerEndToEnd, DeadlineInsideDeepRecursionIsContained)
{
    // A 140-deep Tcl recursion keeps hundreds of routine scopes live
    // when the deadline fires in the loop at its bottom. Their
    // returns, emitted by the unwind, must reach no sink and throw
    // nothing, with or without the machine: the request answers
    // DEADLINE and the daemon goes on serving.
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    for (uint8_t flags : {uint8_t{0}, kFlagWithMachine}) {
        EvalRequest req;
        req.id = 1;
        req.mode = Lang::Tcl;
        req.kind = ProgramKind::Inline;
        req.flags = flags;
        req.program = "proc f {n} {if {$n > 0} {f [expr {$n-1}]} else "
                      "{set i 0; while {$i < 10000000} {incr i}}}; f 140";
        req.deadlineMs = 200;
        EvalResponse resp = evalUntilCutOffRunning(conn, req);
        EXPECT_EQ(resp.status, Status::Deadline) << resp.result;
        EXPECT_EQ(resp.result, "deadline expired during execution");

        resp = conn.eval(microRequest(Lang::Tcl, 300));
        EXPECT_EQ(resp.status, Status::Ok) << resp.result;
    }
}

TEST(ServerEndToEnd, TooManyCommandNamesAnswerError)
{
    // An inline Tcl program that names more distinct commands than a
    // CommandId numbers fails its own request, not the daemon: the
    // request answers ERROR and the next one on the connection OK.
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    EvalRequest req;
    req.id = 1;
    req.mode = Lang::Tcl;
    req.kind = ProgramKind::Inline;
    req.program = "for {set i 0} {$i < 70000} {incr i} "
                  "{ proc p$i {} {} ; p$i }";
    EvalResponse resp = conn.eval(req);
    EXPECT_EQ(resp.status, Status::Error) << resp.result;
    EXPECT_NE(resp.result.find("distinct command names"), std::string::npos)
        << resp.result;

    resp = conn.eval(microRequest(Lang::Tcl, 300));
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;
}

TEST(ServerEndToEnd, BudgetStopIsAnsweredOkWithTheBudgetsCommands)
{
    // A command budget that runs out inside an expression stops
    // perlish and tclish where they stand: the request is answered OK
    // with the budget's commands retired, not failed by an operator
    // that went on with an empty value.
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    const struct
    {
        Lang mode;
        const char *program;
        uint64_t budget;
    } cases[] = {
        {Lang::Perl, "spin", 20'000},  {Lang::Tcl, "rxmatch", 20'000},
        {Lang::Tcl, "tcllex", 20'000}, {Lang::Perl, "des", 2'000},
        {Lang::Perl, "matmul", 2'000}, {Lang::Tcl, "des", 2'000},
    };
    uint32_t id = 0;
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(harness::langName(c.mode)) + "/" +
                     c.program);
        EvalRequest req;
        req.id = ++id;
        req.mode = c.mode;
        req.program = c.program;
        req.maxCommands = c.budget;
        EvalResponse resp = conn.eval(req);
        EXPECT_EQ(resp.status, Status::Ok) << resp.result;
        EXPECT_EQ(resp.commands, c.budget);
    }
}

TEST(ServerEndToEnd, MixedClassLoadSplitsOutcomesByClass)
{
    // A heterogeneous interactive:batch mix through one overloaded
    // daemon: deadline misses and sheds must be attributable to the
    // traffic class that suffered them, and the client-side per-class
    // ledger must reconcile with the server's STATS counters.
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxQueue = 2;
    TestServer ts(cfg);

    auto named = [](const char *name, uint32_t deadline) {
        EvalRequest req;
        req.mode = Lang::Mipsi;
        req.kind = ProgramKind::Named;
        req.program = name;
        req.deadlineMs = deadline;
        return req;
    };

    LoadgenOptions opt;
    opt.endpoints = {ts.path()};
    opt.clients = 4;
    opt.requestsPerClient = 8;
    opt.openRatePerSec = 2000; // far beyond one worker + queue of 2
    // Interactive requests carry an already-expired deadline, so any
    // that reach the worker are answered DEADLINE deterministically;
    // batch requests are unbounded registry runs slow enough (~70ms)
    // that the open-loop schedule must overflow the queue.
    opt.mix.push_back(named("spin", 0));
    opt.mix.push_back(named("matmul", kNoDeadline));
    opt.classOf = [](const EvalRequest &req) {
        const workloads::Workload *w = workloads::find(req.program);
        return std::string(
            w ? workloads::trafficName(w->traffic) : "other");
    };

    LoadgenReport report = runLoadgen(opt);

    ASSERT_EQ(report.byClass.size(), 2u);
    const LoadgenTotals &inter = report.byClass.at("interactive");
    const LoadgenTotals &batch = report.byClass.at("batch");

    // The classes partition the run exactly.
    EXPECT_EQ(report.all.sent, 32u);
    EXPECT_EQ(inter.sent, 16u);
    EXPECT_EQ(batch.sent, 16u);
    for (const LoadgenTotals *t : {&inter, &batch})
        EXPECT_EQ(t->sent,
                  t->ok + t->shed + t->deadline + t->error);

    // Deadline enforcement lands only on the class that set one: an
    // expired-deadline request never executes, so interactive gets no
    // OK and at least one DEADLINE, while batch can never miss.
    EXPECT_EQ(inter.ok, 0u);
    EXPECT_GE(inter.deadline, 1u);
    EXPECT_EQ(batch.deadline, 0u);
    EXPECT_EQ(inter.error, 0u);
    EXPECT_EQ(batch.error, 0u);
    // The overload must shed, yet batch work still completes.
    EXPECT_GE(report.all.shed, 1u);
    EXPECT_GE(batch.ok, 1u);

    // Server-side accounting reconciles with the per-class view:
    // every DEADLINE the daemon counted was an interactive request,
    // every SHED is in the client ledger.
    Client conn = Client::connectUnix(ts.path());
    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "deadline", v));
    EXPECT_EQ(v, inter.deadline);
    ASSERT_TRUE(statsJsonUint(json, "shed", v));
    EXPECT_EQ(v, report.all.shed);
}

// --- end-to-end: containment, inline programs, recording -------------------

TEST(ServerEndToEnd, PoisonedProgramIsContainedAsError)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());

    // Inline tclish program that works.
    EvalRequest good;
    good.id = 1;
    good.mode = Lang::Tcl;
    good.kind = ProgramKind::Inline;
    good.program = "puts \"served inline\"";
    EvalResponse resp = conn.eval(good);
    ASSERT_EQ(resp.status, Status::Ok) << resp.result;
    EXPECT_EQ(resp.result, "served inline\n");
    EXPECT_GT(resp.commands, 0u);

    // A poisoned program fails its own request, not the daemon.
    EvalRequest bad;
    bad.id = 2;
    bad.mode = Lang::Tcl;
    bad.kind = ProgramKind::Inline;
    bad.program = "no_such_command_at_all 1 2 3";
    resp = conn.eval(bad);
    EXPECT_EQ(resp.status, Status::Error);
    EXPECT_FALSE(resp.result.empty());

    // An unknown catalog name likewise.
    EvalRequest unknown;
    unknown.id = 3;
    unknown.mode = Lang::Perl;
    unknown.program = "no-such-benchmark";
    resp = conn.eval(unknown);
    EXPECT_EQ(resp.status, Status::Error);

    // The daemon survived both and still serves.
    resp = conn.eval(good);
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;

    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "failed", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(json, "served", v));
    EXPECT_EQ(v, 2u);
}

TEST(ServerEndToEnd, RecordFlagWritesReplayableTape)
{
    char dir[96];
    std::snprintf(dir, sizeof(dir), "/tmp/interpd_test_tapes_%d",
                  (int)::getpid());

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.recordDir = dir;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    EvalRequest req = microRequest(Lang::Java, 300);
    req.id = 44;
    req.flags = kFlagRecordTrace;
    EvalResponse resp = conn.eval(req);
    ASSERT_EQ(resp.status, Status::Ok) << resp.result;

    // The tape exists, is finalized, and records the same run.
    // microBench names the spec after the op; -r44 is the request id.
    std::string tape = std::string(dir) + "/java-a_b_c-r44.itr";
    tracefile::TraceReader reader(tape);
    EXPECT_EQ(reader.meta().commands, resp.commands);
    EXPECT_TRUE(reader.meta().finished);
    std::remove(tape.c_str());
    ::rmdir(dir);
}

// --- end-to-end: open loop -------------------------------------------------

TEST(ServerEndToEnd, OpenLoopAccountsForEveryRequest)
{
    ServerConfig cfg;
    cfg.workers = 2;
    TestServer ts(cfg);

    LoadgenOptions opt;
    opt.endpoints = {ts.path()};
    opt.clients = 2;
    opt.requestsPerClient = 5;
    opt.openRatePerSec = 200; // paced sends, pipelined receives
    opt.mix.push_back(microRequest(Lang::Tcl, 300));
    opt.mix.push_back(microRequest(Lang::Mipsi, 300));

    LoadgenReport report = runLoadgen(opt);
    EXPECT_EQ(report.all.sent, 10u);
    EXPECT_EQ(report.all.ok + report.all.shed + report.all.deadline +
                  report.all.error,
              10u);
    EXPECT_EQ(report.all.ok, report.all.latencyUs.size());
    EXPECT_FALSE(report.table().empty());
}

// --- histogram edge cases ---------------------------------------------------

TEST(LatencyHistogram, QuantileOnEmptyIsZero)
{
    // An empty histogram has no samples to rank; every quantile is 0,
    // never a bucket bound hallucinated from zero counts. The proxy
    // renders quantiles for shards that have served nothing yet.
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 0u) << "q=" << q;
}

TEST(LatencyHistogram, MergeFromPartialPeerIsExactAtBucketGrain)
{
    // Merging a peer that has seen only some buckets (the common
    // cluster case: a shard that answered a handful of requests)
    // must equal the histogram of the concatenated sample sets —
    // bucket by bucket, count included.
    std::vector<uint64_t> mine = {1, 9, 9, 300, 70000};
    std::vector<uint64_t> peers = {10, 10000};

    LatencyHistogram a;
    for (uint64_t v : mine)
        a.add(v);
    LatencyHistogram b;
    for (uint64_t v : peers)
        b.add(v);
    LatencyHistogram all;
    for (uint64_t v : mine)
        all.add(v);
    for (uint64_t v : peers)
        all.add(v);

    a.mergeFrom(b);
    EXPECT_EQ(a.count(), all.count());
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(a.bucket(i), all.bucket(i)) << "bucket " << i;
    for (double q : {0.5, 0.99, 1.0})
        EXPECT_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;

    // Merging into an empty histogram reproduces the peer exactly;
    // merging an empty peer is a no-op.
    LatencyHistogram empty;
    empty.mergeFrom(all);
    EXPECT_EQ(empty.count(), all.count());
    LatencyHistogram before = all;
    LatencyHistogram nothing;
    all.mergeFrom(nothing);
    EXPECT_EQ(all.count(), before.count());
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(all.bucket(i), before.bucket(i));
}

// --- end-to-end: dynamic tier-up -------------------------------------------

TEST(ServerEndToEnd, TierPromotionFiresAndPreservesIdentity)
{
    const uint32_t kIters = 300;

    // Baseline ground truth from the batch harness: every response,
    // whatever tier it ran at, must reproduce these.
    harness::Measurement java =
        batchMeasure(Lang::Java, "a=b+c", (int)kIters);
    harness::Measurement tcl =
        batchMeasure(Lang::Tcl, "a=b+c", (int)kIters);

    ServerConfig cfg;
    cfg.workers = 1; // sequential requests -> deterministic ladder
    cfg.tier.enabled = true;
    cfg.tier.remedyAfter = 2;
    cfg.tier.tier2After = 4;
    cfg.tier.commandsPerPoint = 1'000'000'000;
    cfg.tier.decayEvery = 1'000'000;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    const int kRequests = 6;
    std::vector<uint64_t> javaInsts, tclInsts;
    for (int i = 0; i < kRequests; ++i) {
        EvalResponse jr = conn.eval(microRequest(Lang::Java, kIters));
        ASSERT_EQ(jr.status, Status::Ok) << jr.result;
        EXPECT_EQ(jr.commands, java.commands) << "request " << i;
        EXPECT_EQ(jr.result, java.stdoutText) << "request " << i;
        javaInsts.push_back(jr.instructions);

        EvalResponse tr = conn.eval(microRequest(Lang::Tcl, kIters));
        ASSERT_EQ(tr.status, Status::Ok) << tr.result;
        EXPECT_EQ(tr.commands, tcl.commands) << "request " << i;
        EXPECT_EQ(tr.result, tcl.stdoutText) << "request " << i;
        tclInsts.push_back(tr.instructions);
    }

    // The cold run is the baseline; the fully-promoted run must be
    // spending measurably fewer native instructions per request.
    EXPECT_EQ(javaInsts.front(), java.profile.instructions());
    EXPECT_EQ(tclInsts.front(), tcl.profile.instructions());
    EXPECT_LT(javaInsts.back(), javaInsts.front());
    EXPECT_LT(tclInsts.back(), tclInsts.front());

    // STATS carries the promotion ledger, attributed to the baseline
    // request mode.
    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tier_up_remedy", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tiered_runs", v));
    EXPECT_EQ(v, (uint64_t)kRequests - 1);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tier_up_remedy", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tiered_runs", v));
    EXPECT_EQ(v, (uint64_t)kRequests - 1);
    // Daemon-total rollup includes the tier counters.
    ASSERT_TRUE(statsJsonUint(json, "tier_up_remedy", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(json, "tier_up_tier2", v));
    EXPECT_EQ(v, 2u);
}

TEST(ServerEndToEnd, FailedBuilderHandsItsRungBack)
{
    // The request picked to build Java-tier2's artifact hits its
    // deadline before it publishes. The next request must take the
    // rung over, not run a tier below like every request after it.
    harness::BenchSpec quick_spec =
        workloads::specFor(*workloads::find("des"), Lang::JavaQuick);
    uint64_t quick_insts =
        harness::run(quick_spec, {}, nullptr, /*with_machine=*/false)
            .profile.instructions();

    ServerConfig cfg;
    cfg.workers = 1; // sequential requests -> deterministic ladder
    cfg.tier.enabled = true;
    cfg.tier.remedyAfter = 1;
    cfg.tier.tier2After = 1;
    cfg.tier.commandsPerPoint = 1'000'000'000;
    cfg.tier.decayEvery = 1'000'000;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    EvalRequest req;
    req.mode = Lang::Java;
    req.program = "des";
    req.deadlineMs = 1;
    EvalResponse resp = evalUntilCutOffRunning(conn, req);
    ASSERT_EQ(resp.result, "deadline expired during execution");
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(conn.stats(), "modes.Java.tiered_runs", v));
    ASSERT_EQ(v, 1u);

    req.deadlineMs = kNoDeadline;
    for (int i = 0; i < 2; ++i) {
        resp = conn.eval(req);
        ASSERT_EQ(resp.status, Status::Ok) << resp.result;
        // Java-tier2's inline caches spend fewer instructions than
        // Java-quick, whether this request builds the artifact (the
        // cut-off builder died before its publish) or runs the one
        // it published just before it died.
        EXPECT_LT(resp.instructions, quick_insts) << "request " << i;
    }
    ASSERT_TRUE(statsJsonUint(conn.stats(), "modes.Java.tiered_runs", v));
    EXPECT_EQ(v, 3u);
}

TEST(ServerEndToEnd, TierPromotionSafeUnderConcurrency)
{
    // The shared-mutable-program regression: many workers running —
    // and promoting — the same catalog program at once. Every
    // response must stay byte-identical to the batch harness, and
    // each promotion threshold must fire exactly once no matter how
    // many requests race across it.
    const uint32_t kIters = 300;
    harness::Measurement java =
        batchMeasure(Lang::Java, "a=b+c", (int)kIters);

    ServerConfig cfg;
    cfg.workers = 4;
    cfg.maxQueue = 256;
    cfg.tier.enabled = true;
    cfg.tier.remedyAfter = 3;
    cfg.tier.tier2After = 6;
    cfg.tier.commandsPerPoint = 1'000'000'000;
    cfg.tier.decayEvery = 1'000'000;
    TestServer ts(cfg);

    LoadgenOptions opt;
    opt.endpoints = {ts.path()};
    opt.clients = 4;
    opt.requestsPerClient = 8;
    opt.mix.push_back(microRequest(Lang::Java, kIters));
    opt.onResponse = [&java](const EvalRequest &,
                             const EvalResponse &resp) {
        ASSERT_EQ(resp.status, Status::Ok) << resp.result;
        EXPECT_EQ(resp.commands, java.commands);
        EXPECT_EQ(resp.result, java.stdoutText);
    };
    LoadgenReport report = runLoadgen(opt);
    EXPECT_EQ(report.all.sent, 32u);
    EXPECT_EQ(report.all.ok, 32u);

    Client conn = Client::connectUnix(ts.path());
    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tier_up_remedy", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tiered_runs", v));
    EXPECT_GE(v, 2u);
}

TEST(ServerEndToEnd, JitPromotionClimbsToTierThreeAndPreservesIdentity)
{
    // The tier-3 rung over the wire: a hot catalog program must climb
    // baseline -> remedy -> tier-2 -> jit without the client seeing
    // anything but identical answers and a falling instruction bill.
    // Mipsi additionally exercises the aside-build: the first tier-3
    // request compiles and publishes the stencil program, later ones
    // load it from the catalog slot.
    const uint32_t kIters = 300;
    harness::Measurement mipsi =
        batchMeasure(Lang::Mipsi, "a=b+c", (int)kIters);
    harness::Measurement tcl =
        batchMeasure(Lang::Tcl, "a=b+c", (int)kIters);

    ServerConfig cfg;
    cfg.workers = 1; // sequential requests -> deterministic ladder
    cfg.tier.enabled = true;
    cfg.tier.remedyAfter = 2;
    cfg.tier.tier2After = 4;
    cfg.tier.jitAfter = 6;
    cfg.tier.commandsPerPoint = 1'000'000'000;
    cfg.tier.decayEvery = 1'000'000;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    const int kRequests = 9; // three requests past the jit threshold
    std::vector<uint64_t> mipsiInsts, tclInsts;
    for (int i = 0; i < kRequests; ++i) {
        EvalResponse mr = conn.eval(microRequest(Lang::Mipsi, kIters));
        ASSERT_EQ(mr.status, Status::Ok) << mr.result;
        EXPECT_EQ(mr.commands, mipsi.commands) << "request " << i;
        EXPECT_EQ(mr.result, mipsi.stdoutText) << "request " << i;
        mipsiInsts.push_back(mr.instructions);

        EvalResponse tr = conn.eval(microRequest(Lang::Tcl, kIters));
        ASSERT_EQ(tr.status, Status::Ok) << tr.result;
        EXPECT_EQ(tr.commands, tcl.commands) << "request " << i;
        EXPECT_EQ(tr.result, tcl.stdoutText) << "request " << i;
        tclInsts.push_back(tr.instructions);
    }

    EXPECT_EQ(mipsiInsts.front(), mipsi.profile.instructions());
    EXPECT_EQ(tclInsts.front(), tcl.profile.instructions());
    // Fully promoted beats both the cold run and the tier it came
    // from (the request right before the jit threshold).
    EXPECT_LT(mipsiInsts.back(), mipsiInsts.front());
    EXPECT_LT(tclInsts.back(), tclInsts.front());
    EXPECT_LT(mipsiInsts.back(), mipsiInsts[4]);
    EXPECT_LT(tclInsts.back(), tclInsts[4]);
    // Mipsi's builder request compiles in-run; once the published
    // stencil program is loaded the compile charge disappears.
    EXPECT_LT(mipsiInsts.back(), mipsiInsts[5]);

    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "modes.MIPSI.tier_up_jit", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tier_up_jit", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.MIPSI.tiered_runs", v));
    EXPECT_EQ(v, (uint64_t)kRequests - 1);
    // Daemon-total rollup carries the new counter.
    ASSERT_TRUE(statsJsonUint(json, "tier_up_jit", v));
    EXPECT_EQ(v, 2u);
}
