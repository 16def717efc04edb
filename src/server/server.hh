/**
 * @file
 * interpd: the interpreter-as-a-service daemon.
 *
 * One thread (the caller of run()) owns a poll() event loop that
 * accepts connections on a Unix-domain socket, frames requests (see
 * protocol.hh) and writes responses — the connection core in
 * conn.hh, shared with interproxy; execution happens on a
 * harness::ThreadPool. The structure is the classic
 * single-threaded-accept / pooled-execute serving shape:
 *
 *   admission   each admitted EVAL becomes one pool job that owns the
 *               request, so requests run in arrival order. When
 *               ServerConfig::maxQueue jobs are already waiting the
 *               request is answered SHED immediately — explicit
 *               backpressure instead of unbounded buffering.
 *   deadlines   each request may carry a relative deadline; it is
 *               enforced at dequeue (expired requests are answered
 *               DEADLINE without being executed) and at the trace
 *               layer's safepoints during execution (the run's
 *               trace::Execution reads the clock every few thousand
 *               instructions and aborts the run).
 *   containment every request executes under a ScopedFatalThrow: a
 *               poisoned program (bad source, budget misuse, corrupt
 *               trace) fails that one response as ERROR, never the
 *               daemon.
 *   stats       the STATS verb renders ServerStats (per-mode
 *               counters, log2 latency histograms, pool gauges) as
 *               JSON.
 *
 * Responses are appended to connection buffers only by the event-loop
 * thread; workers hand finished responses over through a completion
 * queue plus the Frontend's wake pipe. Clients may pipeline; responses
 * come back in completion order, so they can overtake (a SHED answer
 * arrives before earlier requests finish, and with several workers a
 * short run can finish before a long one sent earlier).
 */

#ifndef INTERP_SERVER_SERVER_HH
#define INTERP_SERVER_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/pool.hh"
#include "harness/runner.hh"
#include "server/conn.hh"
#include "server/protocol.hh"
#include "server/stats.hh"
#include "tier/tier.hh"

namespace interp::server {

struct ServerConfig
{
    /** Unix-domain socket path to listen on. A stale file at the
     *  path is unlinked. */
    std::string unixPath;
    /** Execution pool size. */
    unsigned workers = 2;
    /** Admission bound: an EVAL that finds this many requests
     *  waiting for a worker is answered SHED. */
    size_t maxQueue = 64;
    /** Directory for kFlagRecordTrace tapes ("" = flag is ignored). */
    std::string recordDir;
    /** Command budget for requests that do not set one. */
    uint64_t defaultMaxCommands = 400'000'000;
    /** Identity reported as "shard_id" in STATS — how a cluster's
     *  aggregator tells one daemon from another ("" = omitted). */
    std::string shardId;
    /** Dynamic tier-up of hot named programs (off by default; every
     *  request then runs exactly the mode it asked for). */
    tier::TierConfig tier;
};

/**
 * Compiled-program catalog: resolves EVAL program references to
 * BenchSpecs and keeps what is expensive to rebuild — macro-suite
 * sources read from disk, MIPS images assembled/compiled once — warm
 * across requests. Thread-safe; shared by all workers.
 */
class ProgramCatalog
{
  public:
    /**
     * Spec for @p name under @p mode: a macro-suite benchmark name
     * ("des", "txt2html", ...; the name must exist for the mode's
     * baseline language) or "micro:<op>" from the Table 1 set.
     * fatal() (contained by the caller) on an unknown name.
     */
    harness::BenchSpec resolve(harness::Lang mode,
                               const std::string &name,
                               uint32_t iterations);

    /** Warm-catalog effectiveness so far (STATS "catalog" section).
     *  A resolve() that finds everything warm is a hit; one that has
     *  to build (parse a micro op, assemble a MIPS image) is a miss,
     *  and each expensive build is a load. */
    CatalogCounters counters() const;

    /** Micro specs kept warm; later micro keys are built per request. */
    static constexpr size_t kMaxMicroEntries = 256;

  private:
    mutable std::mutex mu;
    CatalogCounters counters_;
    bool loaded = false;
    /** (baseline lang, benchmark name) -> spec with warm image. */
    std::unordered_map<std::string, harness::BenchSpec> macro;
    /** "micro:<op>:<iters>" per baseline lang -> spec. */
    std::unordered_map<std::string, harness::BenchSpec> micro;

    void ensureLoaded();
};

class Server
{
  public:
    explicit Server(const ServerConfig &config);

    /** Drops the requests no worker has started, waits for the
     *  running ones, joins the pool and unlinks the unix socket.
     *  run() must have returned (or never been called). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind/listen the configured socket and start the worker pool.
     *  fatal() on any setup error. */
    void start();

    /** Event loop; returns after stop(). Call from one thread only. */
    void run();

    /** Ask run() to return. Callable from any thread and from signal
     *  handlers (one atomic store and one pipe write). */
    void stop();

    const ServerStats &stats() const { return stats_; }
    const ServerConfig &config() const { return cfg; }

  private:
    /** One admitted EVAL, owned by the pool job that runs it. */
    struct Admitted
    {
        uint64_t connId = 0;
        EvalRequest req;
        std::chrono::steady_clock::time_point arrival;
    };

    struct Completion
    {
        uint64_t connId = 0;
        EvalResponse resp;
    };

    // --- event-loop thread only ------------------------------------------
    void handleFrame(uint64_t conn_id, const std::string &payload);
    void drainCompletions();

    // --- worker threads ---------------------------------------------------
    void serve(const Admitted &a);
    EvalResponse executeOne(const Admitted &a, uint64_t queue_us);
    void postCompletion(uint64_t conn_id, EvalResponse resp);

    ServerConfig cfg;
    ProgramCatalog catalog;
    ServerStats stats_;
    tier::TierManager tierMgr;
    Frontend front;

    /** Set by ~Server: queued jobs return without running. */
    std::atomic<bool> closing{false};
    std::unique_ptr<harness::ThreadPool> pool;

    std::mutex completionMu;
    std::vector<Completion> completions;
};

} // namespace interp::server

#endif // INTERP_SERVER_SERVER_HH
