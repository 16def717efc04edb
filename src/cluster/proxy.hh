/**
 * @file
 * interproxy: the sharded-cluster front-end router.
 *
 * One thread (the caller of run()) owns a poll() event loop that is a
 * client-facing interpd on one side (the connection core in
 * server/conn.hh, shared with interpd) and a pipelined interpd client
 * on the other:
 *
 *   routing    every EVAL is consistent-hashed by (mode, program)
 *              onto one of N interpd shards (HashRing with kVnodes
 *              virtual nodes per shard), so each program warms
 *              exactly one shard's catalog and repeat traffic stays
 *              hot. Requests are forwarded over one non-blocking
 *              unix-socket connection per shard with proxy-assigned
 *              ids and demultiplexed back to the right client
 *              connection and client-chosen id, preserving full
 *              pipelining with out-of-order replies end to end.
 *   failover   a shard is up only once it has answered a probe on
 *              its current connection: each connect sends the hello
 *              and a first probe, and a connection whose first probe
 *              goes unanswered for kStatsTimeoutMs is closed. An EVAL
 *              that finds no shard up while one still awaits that
 *              answer (a proxy just started) waits for it. A shard
 *              that refuses connections, closes mid-request, times
 *              out, or misses kProbeMissLimit health probes in a row
 *              is marked down: its in-flight requests are retried on
 *              the next ring candidate (bounded retries) or answered
 *              ERROR, new requests route around it (explicit DEGRADED
 *              accounting in STATS), and reconnects back off
 *              exponentially until it answers again.
 *   shedding   a shard's SHED answer makes the proxy retry the next
 *              candidate; the client sees SHED only when every
 *              alive shard has refused — backpressure at aggregate
 *              cluster capacity, not at one unlucky shard.
 *   stats      STATS fans out to every alive shard, merges their
 *              ServerStats documents (histograms folded with
 *              LatencyHistogram::mergeFrom) and renders them with
 *              the router's own counters and per-shard gauges.
 *
 * The proxy executes nothing itself, so the loop never blocks on
 * interpreter work; it is purely I/O-bound and single-threaded.
 */

#ifndef INTERP_CLUSTER_PROXY_HH
#define INTERP_CLUSTER_PROXY_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/ring.hh"
#include "cluster/stats.hh"
#include "server/conn.hh"
#include "server/protocol.hh"

namespace interp::cluster {

/** Where one interpd shard listens. */
struct ShardEndpoint : server::Endpoint
{
    std::string name; ///< identity in STATS ("s0", "s1", ... )
};

struct ProxyConfig
{
    /** Front-side unix socket, same semantics as ServerConfig. */
    std::string unixPath;

    std::vector<ShardEndpoint> shards;

    /** Re-dispatch budget per request (shard SHED / death / timeout). */
    uint32_t maxRetries = 2;
    /** Per-forwarded-request reply deadline at a shard. */
    uint32_t forwardTimeoutMs = 30000;
};

/** Virtual nodes per shard on the hash ring. */
constexpr unsigned kVnodes = 64;
/** Reconnect backoff after a shard goes down: doubles per failed
 *  attempt up to the max. */
constexpr uint32_t kConnectBackoffMs = 50;
constexpr uint32_t kConnectBackoffMaxMs = 2000;
/** Health-probe (STATS) period against every up shard. */
constexpr uint32_t kProbeIntervalMs = 250;
/** Consecutive missed probes before the shard is marked down. */
constexpr uint32_t kProbeMissLimit = 2;
/** Probe / STATS fan-out reply deadline. */
constexpr uint32_t kStatsTimeoutMs = 1000;
/** Proxy-side in-flight cap per shard; a full shard is skipped on
 *  the ring exactly like a down one. */
constexpr size_t kMaxInflightPerShard = 1024;

class Proxy
{
  public:
    explicit Proxy(const ProxyConfig &config);

    /** run() must have returned (or never been called). */
    ~Proxy();

    Proxy(const Proxy &) = delete;
    Proxy &operator=(const Proxy &) = delete;

    /** Bind the front socket and connect to every shard. fatal() on
     *  setup errors (shard connects are retried, not fatal — a
     *  cluster may come up proxy-first). */
    void start();

    /** Event loop; returns after stop(). Call from one thread only. */
    void run();

    /** Ask run() to return; callable from any thread / signal. */
    void stop();

    const ProxyConfig &config() const { return cfg; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One STATS fan-out awaiting shard replies. */
    struct StatsAgg
    {
        uint64_t frontId = 0;
        uint32_t clientReqId = 0;
        int waiting = 0;
        bool done = false;
        Clock::time_point deadline;
        std::vector<std::string> collected;
    };

    /** One frame sent to a shard and not yet answered. */
    struct Outstanding
    {
        enum class Kind : uint8_t { Eval, Probe, Stats };
        Kind kind = Kind::Eval;
        Clock::time_point deadline;
        // Eval
        uint64_t frontId = 0;
        uint32_t clientReqId = 0;
        server::EvalRequest req;
        uint32_t retriesLeft = 0;
        std::vector<int> tried; ///< shards already attempted
        Clock::time_point sentAt;
        // Stats fan-out
        std::shared_ptr<StatsAgg> agg;
    };

    struct Shard
    {
        ShardEndpoint ep;
        /** Answered a probe on this connection. Else down: connected
         *  and awaiting the first answer, or awaiting nextAttempt. */
        bool up = false;
        server::Conn conn;
        std::unordered_map<uint32_t, Outstanding> inflight;
        uint32_t backoffMs = 0;
        Clock::time_point nextAttempt; ///< reconnect timer (Down)
        Clock::time_point nextProbe;   ///< health-probe timer (Up)
        bool probeOutstanding = false;
        uint32_t probeMisses = 0;
        ShardGauges gauge; ///< traffic and health counts (STATS)
    };

    void handleFrontFrame(uint64_t conn_id, const std::string &payload);

    // --- routing ----------------------------------------------------------
    /** Forward @p o to the best candidate, or synthesize SHED/ERROR
     *  back to its client when the ring is exhausted; park it while
     *  no shard is up but one is awaiting its first probe answer. */
    void dispatchEval(Outstanding o);
    /** Dispatch every parked EVAL again. */
    void dispatchParked();
    void forwardTo(int shard_index, Outstanding o);
    void deliver(Outstanding &o, server::EvalResponse resp);

    // --- back side --------------------------------------------------------
    /** Connect and send the hello and a first probe, whose answer
     *  marks the shard up; or schedule the next attempt. */
    void connectShard(int shard_index);
    /** Back off the shard's next connect attempt; the backoff resets
     *  only when the shard answers. */
    static void scheduleReconnect(Shard &s);
    void readBack(int shard_index);
    void writeBack(int shard_index);
    void handleBackResponse(int shard_index,
                            const server::EvalResponse &resp);
    /** Close the shard's connection, mark it down, fail over its
     *  in-flight work and schedule a reconnect. */
    void failShard(int shard_index, const char *reason);
    /** Give up on @p o (not a probe) at shard @p s: retry an EVAL
     *  elsewhere or answer ERROR "shard <name><why>"; a STATS
     *  fan-out stops waiting for this shard. */
    void abandon(Shard &s, Outstanding o, const std::string &why);
    void sendProbe(int shard_index);
    /** Send a STATS request for @p o (a probe or a fan-out leg). */
    void sendStats(int shard_index, Outstanding o);

    // --- stats ------------------------------------------------------------
    void startStatsFanout(uint64_t conn_id, uint32_t client_req_id);
    void finishAgg(const std::shared_ptr<StatsAgg> &agg);
    std::vector<ShardGauges> gauges() const;

    // --- timers -----------------------------------------------------------
    int pollTimeoutMs(Clock::time_point now) const;
    void runTimers(Clock::time_point now);

    ProxyConfig cfg;
    HashRing ring;
    ClusterStats stats_;
    server::Frontend front;

    std::vector<Shard> shards;
    uint32_t nextBackendId = 1;
    std::vector<std::shared_ptr<StatsAgg>> aggs;
    /** EVALs that found no shard up while a connected shard had not
     *  yet answered its first probe (a proxy just started): dispatched
     *  again once a shard comes up or the last such connection is
     *  closed, so at most kStatsTimeoutMs later. */
    std::vector<Outstanding> parked;
};

} // namespace interp::cluster

#endif // INTERP_CLUSTER_PROXY_HH
