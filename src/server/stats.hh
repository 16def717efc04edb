/**
 * @file
 * interpd observability: monotonic counters and latency histograms.
 *
 * The STATS verb renders one ServerStats snapshot as JSON. Counters
 * are per mode (accepted / served / shed / deadline-missed / failed,
 * plus the tier-up counts), indexed by one enum whose key names live
 * in one table, and reconcile exactly: accepted == served + shed +
 * deadline + failed once the queue has drained, which the end-to-end
 * test pins against client-observed totals. Latencies go into log2-bucketed
 * histograms (queue wait, service, total), the classic shape for
 * tail-latency reporting: bucket i counts values in [2^i, 2^(i+1))
 * microseconds, with bucket 0 covering [0, 2).
 */

#ifndef INTERP_SERVER_STATS_HH
#define INTERP_SERVER_STATS_HH

#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>

#include "harness/runner.hh"
#include "server/protocol.hh"

namespace interp::server {

/** Log2-bucketed latency histogram (microseconds). */
class LatencyHistogram
{
  public:
    /** Buckets 0..kBuckets-1; the last bucket absorbs the tail. */
    static constexpr int kBuckets = 40;

    void add(uint64_t micros);

    /** Bucket index a value lands in: floor(log2(us)), clamped. */
    static int bucketOf(uint64_t micros);
    /** Inclusive lower bound of bucket @p i in microseconds. */
    static uint64_t bucketFloor(int i);
    /** Inclusive upper bound of bucket @p i (bucket 0 -> 1 us). */
    static uint64_t bucketCeil(int i);

    uint64_t count() const { return total_; }
    uint64_t bucket(int i) const { return buckets_[i]; }

    /** Add @p other's samples to this histogram bucket-by-bucket.
     *  Exact at bucket granularity: merging histograms of two sample
     *  sets equals the histogram of the concatenated samples. The
     *  cluster proxy folds per-shard histograms together with this. */
    void mergeFrom(const LatencyHistogram &other);

    /** Credit @p n samples directly to bucket @p i (histogram
     *  reconstruction from a rendered bucket array). */
    void accumulate(int i, uint64_t n);

    /**
     * Value at quantile @p q in [0,1], resolved to its bucket's
     * inclusive upper bound — coarse (log2) but monotone,
     * allocation-free, and never below the exact quantile (the true
     * value lies somewhere inside the chosen bucket).
     */
    uint64_t quantile(double q) const;

  private:
    uint64_t buckets_[kBuckets] = {};
    uint64_t total_ = 0;
};

/** Warm-catalog effectiveness counters (see ProgramCatalog). */
struct CatalogCounters
{
    uint64_t hits = 0;   ///< resolve() found everything warm
    uint64_t misses = 0; ///< something had to be built
    uint64_t loads = 0;  ///< expensive builds done (compile/assemble)
};

/** CatalogCounters' STATS keys, in field (and rendering) order. */
struct CatalogField
{
    const char *name;
    uint64_t CatalogCounters::*field;
};
inline constexpr CatalogField kCatalogFields[] = {
    {"hits", &CatalogCounters::hits},
    {"misses", &CatalogCounters::misses},
    {"loads", &CatalogCounters::loads},
};

/** The per-mode counters, in STATS key order (kCounterNames). */
enum class Counter : uint8_t
{
    Accepted, ///< EVAL frames admitted (incl. shed)
    Served,   ///< answered OK
    Shed,     ///< refused at admission (queue full)
    Deadline, ///< expired before/while executing
    Failed,   ///< contained error (bad program, ...)
    // Dynamic tier-up, attributed to the *requested* baseline mode
    // (zero everywhere when tiering is off).
    TierUpRemedy, ///< baseline -> remedy promotions
    TierUpTier2,  ///< remedy -> tier-2 promotions
    TierUpJit,    ///< tier-2 -> jit promotions
    TieredRuns,   ///< requests served at an elevated tier
};

inline constexpr const char *kCounterNames[] = {
    "accepted", "served", "shed", "deadline", "failed",
    "tier_up_remedy", "tier_up_tier2", "tier_up_jit", "tiered_runs",
};
inline constexpr int kCounters = (int)std::size(kCounterNames);
static_assert(kCounters == (int)Counter::TieredRuns + 1);
/** The request outcomes (accepted..failed): all the proxy counts. */
inline constexpr int kOutcomeCounters = (int)Counter::Failed + 1;

/** The counter of a request answered with @p status: served, shed,
 *  deadline or failed, which follow Status's order. */
constexpr Counter
outcomeCounter(Status status)
{
    return (Counter)((int)Counter::Served + (int)status);
}
static_assert(outcomeCounter(Status::Error) == Counter::Failed);

/** Counters for one execution mode (or a sum over modes). */
struct ModeCounters
{
    uint64_t n[kCounters] = {};

    uint64_t &operator[](Counter c) { return n[(int)c]; }
    uint64_t operator[](Counter c) const { return n[(int)c]; }

    ModeCounters &
    operator+=(const ModeCounters &other)
    {
        for (int i = 0; i < kCounters; ++i)
            n[i] += other.n[i];
        return *this;
    }
};

/** The daemon's latency histograms, in STATS rendering order. */
inline constexpr const char *kHistogramNames[] = {"queue_us", "service_us",
                                                  "total_us"};
inline constexpr int kHistograms = (int)std::size(kHistogramNames);

/** All counters of one daemon, behind one mutex (STATS is rare and
 *  per-request updates are a handful of increments). */
class ServerStats
{
  public:
    /** Count one @p c event of @p mode (tier-up counters go to the
     *  requested baseline mode). */
    void note(Counter c, harness::Lang mode);

    /** Record one completed (OK/ERROR) request's latencies. */
    void noteLatency(uint64_t queue_us, uint64_t service_us);

    ModeCounters totals() const;

    /**
     * Render everything as one JSON object (fixed key order, so the
     * output is deterministic given the counters): per-mode counter
     * objects under "modes" for modes with traffic, summed totals at
     * the top level, the three histograms as bucket arrays plus
     * coarse p50/p95/p99, and the pool gauges passed in by the
     * caller. A non-empty @p shard_id is rendered as "shard_id" (the
     * daemon's identity inside a cluster) and @p catalog as a
     * "catalog" section (warm-catalog hits/misses/loads).
     */
    std::string renderJson(size_t queued_jobs, unsigned idle_workers,
                           const CatalogCounters &catalog = {},
                           const std::string &shard_id = "") const;

  private:
    mutable std::mutex mu;
    ModeCounters modes_[harness::kNumModes];
    LatencyHistogram histos_[kHistograms]; ///< queue, service, total
};

// --- rendering and parsing -------------------------------------------------
//
// Every STATS document (daemon, proxy, merged) is assembled from these
// pieces; names come from the tables above, so a counter is one enum
// entry plus one name.

/** Append `"name":value` for the first @p count counters of @p c. */
void appendCounters(std::string &out, const ModeCounters &c,
                    int count = kCounters);

/** Append `"modes":{"<langName>":{counters},...}` over the modes with
 *  accepted traffic, each with its first @p count counters. */
void appendModes(std::string &out,
                 const ModeCounters (&modes)[harness::kNumModes],
                 int count);

/** Append `"catalog":{"hits":..,"misses":..,"loads":..}`. */
void appendCatalog(std::string &out, const CatalogCounters &c);

/** Append `"histograms":{"queue_us":{..},"service_us":{..},
 *  "total_us":{..}}`. */
void appendHistograms(std::string &out,
                      const LatencyHistogram (&h)[kHistograms]);

/**
 * Append `"name":{"count":..,"p50":..,"p95":..,"p99":..,
 * "buckets":[[floor,count],...]}` to @p out — the one rendering of a
 * histogram this protocol has; ServerStats and the cluster proxy's
 * aggregate STATS both emit it, so statsJsonHistogram() can read
 * either back.
 */
void appendHistogramJson(std::string &out, const char *name,
                         const LatencyHistogram &h);

/**
 * Pull one unsigned counter out of a STATS document: @p path is
 * dot-separated ("shed", "modes.Tcl.served",
 * "histograms.total_us.p99") and each segment matches a key of the
 * object the previous one selected, never a deeper one of the same
 * name. Returns false if absent. A string-scanning parser for exactly
 * the JSON this module emits — loadgen and the tests use it to
 * reconcile counters.
 */
bool statsJsonUint(const std::string &json, const std::string &path,
                   uint64_t &out);

/**
 * Reconstruct the histogram at dot-separated @p path (e.g.
 * "histograms.total_us") of a renderJson() document into @p out,
 * accumulating on top of whatever @p out already holds — parse+merge
 * is the cluster aggregation path. Bucket floors index buckets, so
 * the round trip render -> parse -> render is lossless. False if the
 * path is absent or the bucket array is garbled.
 */
bool statsJsonHistogram(const std::string &json,
                        const std::string &path, LatencyHistogram &out);

} // namespace interp::server

#endif // INTERP_SERVER_STATS_HH
