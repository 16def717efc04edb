#include "sim/cache.hh"

#include "support/logging.hh"

namespace interp::sim {

namespace {

bool
isPow2(uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    if (!isPow2(cfg.sizeBytes) || !isPow2(cfg.lineBytes) ||
        cfg.lineBytes < 2 || cfg.assoc == 0)
        panic("bad cache geometry: size=%u line=%u assoc=%u",
              cfg.sizeBytes, cfg.lineBytes, cfg.assoc);
    uint32_t lines = cfg.sizeBytes / cfg.lineBytes;
    if (lines % cfg.assoc != 0)
        panic("cache lines (%u) not divisible by assoc (%u)",
              lines, cfg.assoc);
    uint32_t sets = lines / cfg.assoc;
    if (!isPow2(sets))
        panic("cache set count %u not a power of two", sets);
    lineShift = (uint32_t)__builtin_ctz(cfg.lineBytes);
    setMask = sets - 1;
    tags.assign((size_t)lines, kEmpty);
}

} // namespace interp::sim
