/**
 * @file
 * interproxy observability: cluster-wide counters and aggregation.
 *
 * Three layers, all served by the proxy's STATS verb in one JSON
 * document:
 *
 *   proxy    counters the router observes itself: per-mode outcome
 *            counts (as seen by clients), forwards, SHED-retries,
 *            reroutes away from dead home shards (the DEGRADED
 *            accounting), synthesized shard-failure errors, late
 *            replies — plus per-mode log2 latency histograms of
 *            forward -> response time (client-observed tail latency
 *            of the whole cluster).
 *   shards   per-shard gauges: state (up/down), in-flight,
 *            forwarded/outcome counts, down events, reconnects,
 *            probe failures.
 *   merged   the sum of the shards' own ServerStats documents,
 *            gathered by STATS fan-out: counter sums, catalog sums,
 *            and the three latency histograms folded together with
 *            LatencyHistogram::mergeFrom() — cluster-wide queue/
 *            service/total tails at log2 resolution.
 *
 * ClusterStats is owned and mutated by the proxy's event-loop thread
 * only (the proxy is single-threaded), so it needs no locking.
 */

#ifndef INTERP_CLUSTER_STATS_HH
#define INTERP_CLUSTER_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "server/stats.hh"

namespace interp::cluster {

/** Snapshot of one shard's health and traffic, rendered per shard. */
struct ShardGauges
{
    std::string name;
    const char *state = "down"; ///< "up" | "down"
    size_t inflight = 0;        ///< requests awaiting a reply
    uint64_t forwarded = 0;     ///< EVAL frames sent (incl. retries)
    uint64_t ok = 0;
    uint64_t shed = 0;
    uint64_t deadline = 0;
    uint64_t error = 0;
    uint64_t downEvents = 0;    ///< transitions into "down"
    uint64_t reconnects = 0;    ///< successful re-establishments
    uint64_t probeFailures = 0; ///< health probes timed out/refused
    /** Replies that arrived after the proxy gave up on the request
     *  (timeout/retry); dropped without touching client state. */
    uint64_t lateReplies = 0;
};

/** Event-loop-thread-only counters of the router itself. */
class ClusterStats
{
  public:
    /** Count one request outcome (the first kOutcomeCounters
     *  counters) of @p mode. */
    void
    note(server::Counter c, harness::Lang mode)
    {
        ++modes_[(int)mode][c];
    }

    void noteForwarded() { ++forwarded_; }
    void noteRetry() { ++retries_; }
    void noteRerouted() { ++rerouted_; }
    void noteShardFailure() { ++shardFailures_; }
    void noteLateReply() { ++lateReplies_; }

    /** Forward -> response time of one answered request. */
    void
    noteLatency(harness::Lang mode, uint64_t micros)
    {
        latency_[(int)mode].add(micros);
    }

    /**
     * The cluster STATS document: proxy counters + per-mode latency
     * histograms, the per-shard gauge objects, and @p merged_object
     * (a JSON object rendered by mergeShardStats(), or "{}" when no
     * shard answered) under "merged". Deterministic key order.
     */
    std::string renderJson(const std::vector<ShardGauges> &shards,
                           const std::string &merged_object) const;

  private:
    server::ModeCounters modes_[harness::kNumModes];
    server::LatencyHistogram latency_[harness::kNumModes];
    uint64_t forwarded_ = 0;
    uint64_t retries_ = 0;
    uint64_t rerouted_ = 0;
    uint64_t shardFailures_ = 0;
    uint64_t lateReplies_ = 0;
};

/**
 * Fold the ServerStats JSON documents of several shards into one
 * object: counter and catalog sums, and queue/service/total
 * histograms merged bucket-by-bucket (parse with
 * statsJsonHistogram(), fold with mergeFrom()), each looked up by its
 * name in the server/stats.hh tables. A key a shard does not render
 * (tier_up_jit from a pre-jit build) counts as zero.
 * "shards_reporting" records how many documents went in — a dead
 * shard's counters are simply absent, which the caller surfaces via
 * the gauges instead.
 */
std::string mergeShardStats(const std::vector<std::string> &shard_jsons);

} // namespace interp::cluster

#endif // INTERP_CLUSTER_STATS_HH
