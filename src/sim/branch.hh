/**
 * @file
 * Branch-prediction hardware of the Table 3 machine: a 256-entry
 * 1-bit branch history table for conditional branches, a 12-entry
 * return-address stack, and a 32-entry branch target cache for
 * computed jumps (the interpreter-dispatch idiom).
 */

#ifndef INTERP_SIM_BRANCH_HH
#define INTERP_SIM_BRANCH_HH

#include <cstdint>
#include <vector>

namespace interp::sim {

/**
 * Geometry of the branch-prediction structures. bhtEntries and
 * btcEntries must be powers of two (both tables are indexed by
 * masking); the constructor rejects other sizes. returnStack may be
 * any nonzero depth.
 */
struct BranchConfig
{
    uint32_t bhtEntries = 256;   ///< 1-bit history entries (power of two)
    uint32_t returnStack = 12;   ///< return-address stack depth
    uint32_t btcEntries = 32;    ///< branch target cache entries (pow2)
};

/**
 * Combined predictor; each predict* method returns true if correct.
 * The predict/call bodies are defined here so Machine's batched hot
 * loop inlines them.
 */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchConfig &config);

    /** Conditional branch at @p pc resolving to @p taken. */
    bool
    predictConditional(uint32_t pc, bool taken)
    {
        ++lookupCount;
        uint32_t idx = (pc >> 2) & (cfg.bhtEntries - 1);
        bool predicted = bht[idx] != 0;
        bht[idx] = taken ? 1 : 0;
        if (predicted != taken) {
            ++mispredictCount;
            return false;
        }
        return true;
    }

    /**
     * Computed jump at @p pc resolving to @p target. The full pc tags
     * the BTC entry.
     */
    bool
    predictIndirect(uint32_t pc, uint32_t target)
    {
        ++lookupCount;
        uint32_t idx = (pc >> 2) & (cfg.btcEntries - 1);
        bool correct = btcTags[idx] == pc && btcTargets[idx] == target;
        btcTags[idx] = pc;
        btcTargets[idx] = target;
        if (!correct)
            ++mispredictCount;
        return correct;
    }

    /** Call at @p pc; pushes @p return_pc onto the return stack. */
    void
    call(uint32_t return_pc)
    {
        // Compare-and-wrap, not a divide by the runtime depth.
        rasTop = rasTop + 1 == cfg.returnStack ? 0 : rasTop + 1;
        ras[rasTop] = return_pc;
        if (rasDepth < cfg.returnStack)
            ++rasDepth;
    }

    /** Return resolving to @p target; pops the return stack. */
    bool
    predictReturn(uint32_t target)
    {
        ++lookupCount;
        if (rasDepth == 0) {
            ++mispredictCount;
            return false;
        }
        uint32_t predicted = ras[rasTop];
        rasTop = rasTop == 0 ? cfg.returnStack - 1 : rasTop - 1;
        --rasDepth;
        if (predicted != target) {
            ++mispredictCount;
            return false;
        }
        return true;
    }

    uint64_t lookups() const { return lookupCount; }
    uint64_t mispredicts() const { return mispredictCount; }

  private:
    BranchConfig cfg;
    std::vector<uint8_t> bht;       ///< 1-bit taken history
    std::vector<uint32_t> btcTags;
    std::vector<uint32_t> btcTargets;
    std::vector<uint32_t> ras;      ///< circular return-address stack
    uint32_t rasTop = 0;
    uint32_t rasDepth = 0;
    uint64_t lookupCount = 0;
    uint64_t mispredictCount = 0;
};

} // namespace interp::sim

#endif // INTERP_SIM_BRANCH_HH
