/**
 * @file
 * Byte pins for the three STATS documents: an interpd ServerStats
 * rendering, the interproxy cluster document, and a mergeShardStats()
 * fold of shard documents. Each is built from fixed counters, gauges
 * and latencies and compared with the exact string the renderers
 * produced when the pin was captured, so a change to the counter
 * plumbing cannot move one byte of what loadgen, the benchmark and
 * operators scrape.
 *
 * The documents are populated through countServer()/countProxy(),
 * which work against both counter APIs the stats classes have had:
 * one note method per counter, and the indexed note(counter, mode).
 * The pins were captured with the first and hold unchanged under the
 * second.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/stats.hh"
#include "harness/runner.hh"
#include "server/stats.hh"

namespace {

using namespace interp;
using namespace interp::server;
using namespace interp::cluster;
using harness::Lang;

/** A mode argument either API accepts (the proxy's counters once took
 *  the wire byte, the daemon's the enum). */
struct AnyMode
{
    Lang lang;
    operator Lang() const { return lang; }
    operator uint8_t() const { return (uint8_t)lang; }
};

/** The counter type of an indexed note(counter, mode) method. */
template <class C, class Counter, class M>
Counter counterParam(void (C::*)(Counter, M));

/** Count event @p c of @p mode, @p n times: c indexes the STATS key
 *  order accepted, served, shed, deadline, failed, tier_up_remedy,
 *  tier_up_tier2, tier_up_jit, tiered_runs. */
template <class Stats>
void
countServer(Stats &s, int c, Lang mode, int n)
{
    AnyMode m{mode};
    for (int i = 0; i < n; ++i) {
        if constexpr (requires { &Stats::note; }) {
            s.note(decltype(counterParam(&Stats::note))(c), m);
        } else {
            switch (c) {
              case 0: s.noteAccepted(m); break;
              case 1: s.noteServed(m); break;
              case 2: s.noteShed(m); break;
              case 3: s.noteDeadline(m); break;
              case 4: s.noteFailed(m); break;
              case 5: s.noteTierRemedy(m); break;
              case 6: s.noteTierTier2(m); break;
              case 7: s.noteTierJit(m); break;
              case 8: s.noteTieredRun(m); break;
            }
        }
    }
}

/** countServer() for the proxy's five per-mode counters. */
template <class Stats>
void
countProxy(Stats &s, int c, Lang mode, int n)
{
    AnyMode m{mode};
    for (int i = 0; i < n; ++i) {
        if constexpr (requires { &Stats::note; }) {
            s.note(decltype(counterParam(&Stats::note))(c), m);
        } else {
            switch (c) {
              case 0: s.noteAccepted(m); break;
              case 1: s.noteServed(m); break;
              case 2: s.noteShed(m); break;
              case 3: s.noteDeadline(m); break;
              case 4: s.noteFailed(m); break;
            }
        }
    }
}

/** Every counter non-zero in four modes, plus latencies, catalog and
 *  shard id. */
std::string
firstShardDoc()
{
    ServerStats s;
    const Lang modes[] = {Lang::Mipsi, Lang::Tcl, Lang::JavaTier2,
                          Lang::TclJit};
    for (int k = 0; k < 4; ++k)
        for (int c = 0; c < 9; ++c)
            countServer(s, c, modes[k], 1 + c + 2 * k);
    s.noteLatency(0, 1);
    s.noteLatency(3, 40);
    s.noteLatency(17, 900);
    s.noteLatency(250, 70000);
    s.noteLatency(1, 1u << 22);
    return s.renderJson(2, 1, CatalogCounters{11, 4, 3}, "s7");
}

/** A second shard: other modes, no shard id, tier counters zero. */
std::string
secondShardDoc()
{
    ServerStats s;
    for (int c = 0; c < 5; ++c) {
        countServer(s, c, Lang::Java, 3 + c);
        countServer(s, c, Lang::Perl, 1 + 2 * c);
    }
    s.noteLatency(5, 60);
    s.noteLatency(9, 5000);
    return s.renderJson(0, 2, CatalogCounters{6, 2, 2});
}

std::string
mergedDoc()
{
    return mergeShardStats(
        {firstShardDoc(), secondShardDoc(), "not a stats document"});
}

std::string
clusterDoc()
{
    ClusterStats s;
    const Lang modes[] = {Lang::Java, Lang::Tcl, Lang::MipsiJit};
    for (int k = 0; k < 3; ++k)
        for (int c = 0; c < 5; ++c)
            countProxy(s, c, modes[k], 2 + c + k);
    s.noteLatency(AnyMode{Lang::Java}, 700);
    s.noteLatency(AnyMode{Lang::Java}, 12000);
    s.noteLatency(AnyMode{Lang::MipsiJit}, 3);
    for (int i = 0; i < 9; ++i)
        s.noteForwarded();
    s.noteRetry();
    s.noteRetry();
    s.noteRerouted();
    s.noteShardFailure();
    for (int i = 0; i < 3; ++i)
        s.noteLateReply();

    std::vector<ShardGauges> shards(3);
    shards[0].name = "s0";
    shards[0].state = "up";
    shards[0].inflight = 2;
    shards[0].forwarded = 7;
    shards[0].ok = 4;
    shards[0].shed = 1;
    shards[0].deadline = 1;
    shards[0].error = 1;
    shards[0].reconnects = 1;
    shards[0].lateReplies = 2;
    shards[1].name = "s1";
    shards[1].state = "connecting";
    shards[1].probeFailures = 3;
    shards[2].name = "s2";
    shards[2].state = "down";
    shards[2].forwarded = 2;
    shards[2].error = 2;
    shards[2].downEvents = 1;
    shards[2].lateReplies = 1;
    return s.renderJson(shards, mergedDoc());
}

// The documents as rendered when the pins were captured.

const char *const kFirstShard =
    R"({"shard_id":"s7","accepted":16,"served":20,"shed":24,)"
    R"("deadline":28,"failed":32,"tier_up_remedy":36,"tier_up_tier2":)"
    R"(40,"tier_up_jit":44,"tiered_runs":48,"queued_jobs":2,)"
    R"("idle_workers":1,"catalog":{"hits":11,"misses":4,"loads":3},)"
    R"("modes":{"MIPSI":{"accepted":1,"served":2,"shed":3,)"
    R"("deadline":4,"failed":5,"tier_up_remedy":6,"tier_up_tier2":7,)"
    R"("tier_up_jit":8,"tiered_runs":9},"Tcl":{"accepted":3,)"
    R"("served":4,"shed":5,"deadline":6,"failed":7,"tier_up_remedy":8)"
    R"(,"tier_up_tier2":9,"tier_up_jit":10,"tiered_runs":11},)"
    R"("Java-tier2":{"accepted":5,"served":6,"shed":7,"deadline":8,)"
    R"("failed":9,"tier_up_remedy":10,"tier_up_tier2":11,)"
    R"("tier_up_jit":12,"tiered_runs":13},"Tcl-jit":{"accepted":7,)"
    R"("served":8,"shed":9,"deadline":10,"failed":11,"tier_up_remedy")"
    R"(:12,"tier_up_tier2":13,"tier_up_jit":14,"tiered_runs":15}},)"
    R"("histograms":{"queue_us":{"count":5,"p50":3,"p95":31,)"
    R"("p99":31,"buckets":[[0,2],[2,1],[16,1],[128,1]]},"service_us":)"
    R"({"count":5,"p50":1023,"p95":131071,"p99":131071,"buckets":[[0,)"
    R"(1],[32,1],[512,1],[65536,1],[4194304,1]]},"total_us":{"count":)"
    R"(5,"p50":1023,"p95":131071,"p99":131071,"buckets":[[0,)"
    R"(1],[32,1],[512,1],[65536,1],[4194304,1]]}}})";

const char *const kSecondShard =
    R"({"accepted":4,"served":7,"shed":10,"deadline":13,"failed":16,)"
    R"("tier_up_remedy":0,"tier_up_tier2":0,"tier_up_jit":0,)"
    R"("tiered_runs":0,"queued_jobs":0,"idle_workers":2,"catalog":{"h)"
    R"(its":6,"misses":2,"loads":2},"modes":{"Java":{"accepted":3,)"
    R"("served":4,"shed":5,"deadline":6,"failed":7,"tier_up_remedy":0)"
    R"(,"tier_up_tier2":0,"tier_up_jit":0,"tiered_runs":0},)"
    R"("Perl":{"accepted":1,"served":3,"shed":5,"deadline":7,)"
    R"("failed":9,"tier_up_remedy":0,"tier_up_tier2":0,"tier_up_jit":)"
    R"(0,"tiered_runs":0}},"histograms":{"queue_us":{"count":2,)"
    R"("p50":7,"p95":7,"p99":7,"buckets":[[4,1],[8,1]]},"service_us":)"
    R"({"count":2,"p50":63,"p95":63,"p99":63,"buckets":[[32,)"
    R"(1],[4096,1]]},"total_us":{"count":2,"p50":127,"p95":127,)"
    R"("p99":127,"buckets":[[64,1],[4096,1]]}}})";

const char *const kMerged =
    R"({"shards_reporting":2,"accepted":20,"served":27,"shed":34,)"
    R"("deadline":41,"failed":48,"tier_up_remedy":36,"tier_up_tier2":)"
    R"(40,"tier_up_jit":44,"tiered_runs":48,"catalog":{"hits":17,)"
    R"("misses":6,"loads":5},"histograms":{"queue_us":{"count":7,)"
    R"("p50":7,"p95":31,"p99":31,"buckets":[[0,2],[2,1],[4,)"
    R"(1],[8,1],[16,1],[128,1]]},"service_us":{"count":7,)"
    R"("p50":1023,"p95":131071,"p99":131071,"buckets":[[0,)"
    R"(1],[32,2],[512,1],[4096,1],[65536,1],[4194304,1]]},)"
    R"("total_us":{"count":7,"p50":1023,"p95":131071,"p99":131071,)"
    R"("buckets":[[0,1],[32,1],[64,1],[512,1],[4096,1],[65536,)"
    R"(1],[4194304,1]]}}})";

const char *const kCluster =
    R"({"proxy":{"accepted":9,"served":12,"shed":15,"deadline":18,)"
    R"("failed":21,"forwarded":9,"retries":2,"rerouted":1,)"
    R"("shard_failures":1,"late_replies":3,"shards_up":1,)"
    R"("degraded":2},"modes":{"Java":{"accepted":2,"served":3,)"
    R"("shed":4,"deadline":5,"failed":6},"Tcl":{"accepted":3,)"
    R"("served":4,"shed":5,"deadline":6,"failed":7},"MIPSI-jit":{"acc)"
    R"(epted":4,"served":5,"shed":6,"deadline":7,"failed":8}},)"
    R"("mode_latency_us":{"Java":{"count":2,"p50":1023,"p95":1023,)"
    R"("p99":1023,"buckets":[[512,1],[8192,1]]},"MIPSI-jit":{"count":)"
    R"(1,"p50":3,"p95":3,"p99":3,"buckets":[[2,1]]}},"shards":{"s0":{)"
    R"("state":"up","inflight":2,"forwarded":7,"ok":4,"shed":1,)"
    R"("deadline":1,"error":1,"down_events":0,"reconnects":1,)"
    R"("probe_failures":0,"late_replies":2},"s1":{"state":"connecting)"
    R"(","inflight":0,"forwarded":0,"ok":0,"shed":0,"deadline":0,)"
    R"("error":0,"down_events":0,"reconnects":0,"probe_failures":3,)"
    R"("late_replies":0},"s2":{"state":"down","inflight":0,)"
    R"("forwarded":2,"ok":0,"shed":0,"deadline":0,"error":2,)"
    R"("down_events":1,"reconnects":0,"probe_failures":0,)"
    R"("late_replies":1}},"merged":{"shards_reporting":2,)"
    R"("accepted":20,"served":27,"shed":34,"deadline":41,)"
    R"("failed":48,"tier_up_remedy":36,"tier_up_tier2":40,)"
    R"("tier_up_jit":44,"tiered_runs":48,"catalog":{"hits":17,)"
    R"("misses":6,"loads":5},"histograms":{"queue_us":{"count":7,)"
    R"("p50":7,"p95":31,"p99":31,"buckets":[[0,2],[2,1],[4,)"
    R"(1],[8,1],[16,1],[128,1]]},"service_us":{"count":7,)"
    R"("p50":1023,"p95":131071,"p99":131071,"buckets":[[0,)"
    R"(1],[32,2],[512,1],[4096,1],[65536,1],[4194304,1]]},)"
    R"("total_us":{"count":7,"p50":1023,"p95":131071,"p99":131071,)"
    R"("buckets":[[0,1],[32,1],[64,1],[512,1],[4096,1],[65536,)"
    R"(1],[4194304,1]]}}}})";

} // namespace

TEST(StatsBytes, ServerDocument)
{
    EXPECT_EQ(firstShardDoc(), kFirstShard);
    EXPECT_EQ(secondShardDoc(), kSecondShard);
}

TEST(StatsBytes, MergedDocument)
{
    EXPECT_EQ(mergedDoc(), kMerged);
}

TEST(StatsBytes, ClusterDocument)
{
    EXPECT_EQ(clusterDoc(), kCluster);
}
