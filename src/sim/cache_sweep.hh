/**
 * @file
 * Instruction-cache parameter sweep (Figure 4).
 *
 * One pass over a benchmark's instruction stream feeds every
 * (size, associativity) point simultaneously, so a single run of each
 * benchmark produces the full Figure 4 row: miss rate (misses per 100
 * instructions) for caches of 8/16/32/64 KB at 1/2/4-way.
 */

#ifndef INTERP_SIM_CACHE_SWEEP_HH
#define INTERP_SIM_CACHE_SWEEP_HH

#include <cstdint>
#include <vector>

#include "sim/cache.hh"
#include "trace/events.hh"

namespace interp::sim {

/** Result of one sweep point. */
struct SweepPoint
{
    CacheConfig config;
    uint64_t misses = 0;
    double missesPer100Insts = 0;
};

/** Trace sink driving many instruction caches in parallel. */
class CacheSweep : public trace::Sink
{
  public:
    /**
     * Build the sweep grid.
     * @param sizes_kb  cache sizes in KB
     * @param assocs    associativities
     * @param line_bytes cache line size
     */
    CacheSweep(const std::vector<uint32_t> &sizes_kb,
               const std::vector<uint32_t> &assocs,
               uint32_t line_bytes = 32);

    void onBatch(const trace::BundleBatch &batch) override;

    /** Results, ordered assoc-major then size. */
    std::vector<SweepPoint> results() const;

    uint64_t instructions() const { return insts; }

  private:
    std::vector<Cache> caches;
    /**
     * Line-number dedup, shared by the whole grid: every cache sees
     * the same line sequence, so after any access all per-cache
     * "last line seen" values are equal — one variable carries the
     * invariant the old per-cache vector maintained redundantly.
     */
    uint64_t lastLine = ~0ull;
    uint64_t insts = 0;
    uint32_t lineShift; ///< log2(line bytes); ctor rejects non-pow2
};

} // namespace interp::sim

#endif // INTERP_SIM_CACHE_SWEEP_HH
