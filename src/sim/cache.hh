/**
 * @file
 * Set-associative cache model with LRU replacement: the one lookup
 * structure of the Table 3 machine.
 *
 * Used for the first-level instruction and data caches and the unified
 * second-level cache, swept over size and associativity for Figure 4,
 * and, as one fully associative set of page-sized lines, for the
 * instruction and data TLBs.
 *
 * Each set keeps its line addresses as 4-byte tags in recency order,
 * most recent first, with empty ways (kEmpty) behind the valid lines.
 * A hit moves its line to the front; a miss shifts the set down one
 * way, dropping the last (the LRU line, or an empty way), and inserts
 * the new line at the front. Together that is exact LRU. The front way
 * is checked first: a hit there changes nothing but the hit count.
 */

#ifndef INTERP_SIM_CACHE_HH
#define INTERP_SIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace interp::sim {

/**
 * Geometry of one cache. sizeBytes and lineBytes must be powers of
 * two, lineBytes at least 2, and the set count (lines / assoc) a power
 * of two; the constructor rejects other geometries.
 */
struct CacheConfig
{
    uint32_t sizeBytes = 8 * 1024;
    uint32_t assoc = 1;
    uint32_t lineBytes = 32;
};

/** A single-level cache: tag array only (no data), LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up @p addr, allocating on miss.
     * @return true on hit.
     *
     * Defined here so Machine's batched hot loop inlines it.
     */
    bool
    access(uint32_t addr)
    {
        // The full line address is the tag: simple, exact.
        uint32_t line = addr >> lineShift;
        uint32_t *set = &tags[(size_t)(line & setMask) * cfg.assoc];
        // Every direct-mapped hit and a TLB's repeated page end here.
        if (set[0] == line) {
            ++hitCount;
            return true;
        }
        uint32_t way = 1;
        while (way != cfg.assoc && set[way] != line)
            ++way;
        bool hit = way != cfg.assoc;
        // Shift the more recent lines down over the hit way, or over
        // the last way on a miss, and put this line in front.
        for (way -= !hit; way != 0; --way)
            set[way] = set[way - 1];
        set[0] = line;
        if (hit)
            ++hitCount;
        else
            ++missCount;
        return hit;
    }

    uint64_t hits() const { return hitCount; }
    uint64_t misses() const { return missCount; }
    uint64_t accesses() const { return hitCount + missCount; }

    const CacheConfig &config() const { return cfg; }

  private:
    /** An empty way. No line address reaches it: lines are >= 2 bytes. */
    static constexpr uint32_t kEmpty = ~0u;

    CacheConfig cfg;
    uint32_t lineShift;          ///< log2(lineBytes)
    uint32_t setMask;            ///< sets - 1
    std::vector<uint32_t> tags;  ///< sets * assoc line addresses, set-major
    uint64_t hitCount = 0;
    uint64_t missCount = 0;
};

} // namespace interp::sim

#endif // INTERP_SIM_CACHE_HH
