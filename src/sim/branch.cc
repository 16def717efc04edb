#include "sim/branch.hh"

#include "support/logging.hh"

namespace interp::sim {

namespace {

bool
isPowerOfTwo(uint32_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

} // namespace

BranchPredictor::BranchPredictor(const BranchConfig &config) : cfg(config)
{
    if (cfg.bhtEntries == 0 || cfg.returnStack == 0 || cfg.btcEntries == 0)
        fatal("branch predictor structures must be nonempty");
    // Both tables are indexed by masking with (entries - 1); a
    // non-power-of-two size would silently alias away part of the
    // table (indices >= the next lower power of two are unreachable).
    if (!isPowerOfTwo(cfg.bhtEntries))
        fatal("BHT entry count %u is not a power of two",
              cfg.bhtEntries);
    if (!isPowerOfTwo(cfg.btcEntries))
        fatal("BTC entry count %u is not a power of two",
              cfg.btcEntries);
    bht.assign(cfg.bhtEntries, 0);
    btcTags.assign(cfg.btcEntries, 0xffffffffu);
    btcTargets.assign(cfg.btcEntries, 0);
    ras.assign(cfg.returnStack, 0);
}

} // namespace interp::sim
