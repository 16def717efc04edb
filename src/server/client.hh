/**
 * @file
 * Client side of the interpd protocol, plus the load-generator core.
 *
 * Client is a thin blocking connection: it frames requests, reads
 * framed responses, and lets callers pipeline (send several EVALs,
 * then collect responses and match them up by echoed id).
 *
 * runLoadgen() is the measurement loop both the `loadgen` program and
 * the end-to-end server test drive: N client threads, each with its
 * own connection, replaying a request mix either closed-loop (send,
 * wait, repeat — measures service latency under concurrency) or
 * open-loop (send on a fixed schedule regardless of completions — the
 * arrival process that actually exposes queueing delay and shedding).
 * Latency is client-observed: from send (closed) or from the
 * scheduled send instant (open) to response receipt.
 */

#ifndef INTERP_SERVER_CLIENT_HH
#define INTERP_SERVER_CLIENT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "server/protocol.hh"

namespace interp::server {

struct Endpoint;

/** One blocking connection to an interpd daemon. */
class Client
{
  public:
    /** Connect to a Unix-domain socket; fatal() on failure. */
    static Client connectUnix(const std::string &path);
    /** Connect to a "unix:PATH" or path spec (Endpoint::parse);
     *  fatal() on a bad spec or failure. */
    static Client connect(const std::string &spec);

    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one EVAL frame (does not wait for the response). */
    void sendEval(const EvalRequest &req);
    /** Send one STATS frame. */
    void sendStats(uint32_t id);

    /** Block until one response arrives; fatal() on EOF/garbage. */
    EvalResponse recv();

    /** Non-blocking: true and fills @p resp if a complete response
     *  was available. */
    bool tryRecv(EvalResponse &resp);

    /** Send one EVAL and wait for its response (no pipelining). */
    EvalResponse eval(const EvalRequest &req);

    /** Fetch the server's STATS JSON. */
    std::string stats();

  private:
    explicit Client(int fd) : fd_(fd) {}

    static Client connectTo(const Endpoint &ep);
    void sendAll(const std::string &bytes);
    bool parseOne(EvalResponse &resp);
    /** Take one response, reading until it is complete (@p wait) or
     *  until the socket has no more bytes (false). */
    bool receive(EvalResponse &resp, bool wait);

    int fd_ = -1;
    RecvBuffer in_;
    uint32_t nextId_ = 1;
};

// --- load generator --------------------------------------------------------

struct LoadgenOptions
{
    /**
     * Endpoint specs ("unix:PATH" or a bare path), clients assigned
     * round-robin. Connect failures and mid-run reconnects are
     * counted per endpoint (distinct from SHED, which is a server
     * answer), and a failed connect retries instead of aborting the
     * run.
     */
    std::vector<std::string> endpoints;
    /** Connect attempts per endpoint before a client gives up. */
    unsigned connectAttempts = 3;

    unsigned clients = 1;         ///< concurrent connections
    unsigned requestsPerClient = 8;
    /**
     * Total offered load in requests/second across all clients;
     * 0 = closed loop (each client waits for its response before
     * sending the next request).
     */
    double openRatePerSec = 0;

    /** Request templates, cycled per client; ids are rewritten. */
    std::vector<EvalRequest> mix;

    /**
     * Optional per-response hook, called once per completed request
     * under the tally lock (so it may touch shared state without its
     * own synchronization). The end-to-end test uses it to compare
     * every response against the batch harness.
     */
    std::function<void(const EvalRequest &, const EvalResponse &)>
        onResponse;

    /**
     * Optional traffic classifier: maps a request to its serving
     * class ("interactive" / "batch" — typically the workload
     * registry's traffic tag for the named program). When set, the
     * report gains a per-class outcome/latency breakdown, so shed and
     * deadline counts are attributable to the class that suffered
     * them. Called under the tally lock.
     */
    std::function<std::string(const EvalRequest &)> classOf;
};

/** Tallies for one mode (or the whole run). */
struct LoadgenTotals
{
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t shed = 0;
    uint64_t deadline = 0;
    uint64_t error = 0;
    /** Client-observed latency of each OK response, microseconds. */
    std::vector<uint64_t> latencyUs;

    /**
     * Exact percentile over the sorted samples, rank q * (n-1) —
     * the same rank formula LatencyHistogram::quantile uses, so a
     * loadgen percentile is always <= the server histogram's
     * (bucket-upper-bound) answer for the same latency population.
     */
    uint64_t percentile(double q) const;
};

/**
 * Transport-level tallies for one endpoint — failures of the
 * connection itself, which never reach a server and so are
 * deliberately not SHED/ERROR rows in the outcome table.
 */
struct EndpointTotals
{
    uint64_t connects = 0;        ///< successful connects
    uint64_t connectFailures = 0; ///< refused / unreachable attempts
    uint64_t reconnects = 0;      ///< mid-run connection re-opens
    uint64_t retriesSent = 0;     ///< requests resent after a drop
    uint64_t abandoned = 0;       ///< requests given up unconnected
    uint64_t sent = 0;            ///< EVALs sent to this endpoint
    uint64_t ok = 0;
};

struct LoadgenReport
{
    std::map<std::string, LoadgenTotals> byMode; ///< key: langName
    /** Per-traffic-class tallies (only when LoadgenOptions::classOf
     *  is set): the interactive:batch shed/deadline breakdown. */
    std::map<std::string, LoadgenTotals> byClass;
    LoadgenTotals all;
    /** Per-endpoint transport + balance tallies. */
    std::map<std::string, EndpointTotals> byEndpoint;

    /**
     * p50/p95/p99 + shed/miss table, one row per mode plus ALL. The
     * percentiles are exact (sorted client samples); the server's
     * STATS histogram reports log2-bucket upper bounds, so its p50/
     * p95/p99 bracket these from above.
     */
    std::string table() const;
};

/** Run the load; fatal() on an empty mix, client count or endpoint
 *  list, and on a connection lost in the middle of an open loop. */
LoadgenReport runLoadgen(const LoadgenOptions &opt);

/**
 * Parse an execution-mode name: langName() spellings,
 * case-insensitively, plus the aliases jvm, jvm-quick and threaded.
 * False on no match.
 */
bool langFromName(const std::string &name, harness::Lang &out);

} // namespace interp::server

#endif // INTERP_SERVER_CLIENT_HH
