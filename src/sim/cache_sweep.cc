#include "sim/cache_sweep.hh"

#include "support/logging.hh"

namespace interp::sim {

CacheSweep::CacheSweep(const std::vector<uint32_t> &sizes_kb,
                       const std::vector<uint32_t> &assocs,
                       uint32_t line_bytes)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        panic("cache sweep line size %u not a power of two", line_bytes);
    lineShift = (uint32_t)__builtin_ctz(line_bytes);
    for (uint32_t assoc : assocs) {
        for (uint32_t size_kb : sizes_kb) {
            CacheConfig cc;
            cc.sizeBytes = size_kb * 1024;
            cc.assoc = assoc;
            cc.lineBytes = line_bytes;
            caches.emplace_back(cc);
        }
    }
}

void
CacheSweep::onBatch(const trace::BundleBatch &batch)
{
    // Column iteration: each bundle adds its count and walks its line
    // span, and the dedup makes most of those walks a single compare.
    const uint32_t n = batch.size();
    const uint32_t *pc = batch.pcCol();
    const uint32_t *cnt = batch.countCol();
    for (uint32_t i = 0; i < n; ++i) {
        insts += cnt[i];
        // An empty bundle touches no lines; its span underflows.
        if (cnt[i] == 0) [[unlikely]]
            continue;
        uint32_t last = (pc[i] + (cnt[i] - 1) * 4) >> lineShift;
        for (uint32_t line = pc[i] >> lineShift; line <= last; ++line) {
            if (lastLine == line)
                continue;
            lastLine = line;
            uint32_t addr = line << lineShift;
            for (Cache &cache : caches)
                cache.access(addr);
        }
    }
}

std::vector<SweepPoint>
CacheSweep::results() const
{
    std::vector<SweepPoint> out;
    out.reserve(caches.size());
    for (const Cache &cache : caches) {
        SweepPoint p;
        p.config = cache.config();
        p.misses = cache.misses();
        p.missesPer100Insts =
            insts ? 100.0 * (double)cache.misses() / (double)insts : 0.0;
        out.push_back(p);
    }
    return out;
}

} // namespace interp::sim
