/**
 * @file
 * Tier-2 artifacts for the jvm interpreter: profile-discovered
 * superinstructions and monomorphic inline caches.
 *
 * The §5 quickening remedy (Java-quick) rewrites instructions in place
 * at first execution, which is why it always runs a private copy of
 * the module. Tier-2 instead builds an immutable *artifact* that many
 * runs may share: a pre-quickened copy of the module plus side tables
 * marking
 *
 *   - fused pairs: the hottest dynamically-adjacent opcode pairs
 *     (discovered by a PairProfile collected during baseline runs)
 *     become synthetic superinstruction handlers — the head pays one
 *     quick fetch, the tail continues straight-line for ~1 native
 *     instruction instead of a full re-fetch/dispatch;
 *   - inline-cache sites: GetStatic/PutStatic sites whose field was
 *     resolved at build time — the handler checks a cache tag and
 *     loads through the resolved offset (§3.3 memory-model cost drops
 *     from ~11 to ~6 native instructions per access), falling back to
 *     the full resolution sequence on a miss, never mutating code.
 *
 * Artifacts are built aside (cost charged to Precompile, like
 * in-place quickening) and published atomically on the catalog
 * entry; readers only ever see a complete, immutable artifact.
 */

#ifndef INTERP_JVM_TIER2_HH
#define INTERP_JVM_TIER2_HH

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "jvm/bytecode.hh"
#include "trace/execution.hh"

namespace interp::jvm {

/**
 * Dynamic adjacent-opcode-pair counts, collected host-side (zero
 * trace emission) while a program still runs in a baseline tier.
 * A pair (a, b) is counted when b retires at pc+1 of a in the same
 * frame — i.e. the dynamic successions a fused handler could serve.
 * Merging is a commutative sum, so profiles from concurrent requests
 * can be folded in any order with the same result.
 */
struct PairProfile
{
    static constexpr size_t kOps = (size_t)Bc::NumOps;
    std::array<uint64_t, kOps * kOps> counts{};

    void note(Bc a, Bc b)
    {
        ++counts[(size_t)a * kOps + (size_t)b];
    }
    uint64_t at(Bc a, Bc b) const
    {
        return counts[(size_t)a * kOps + (size_t)b];
    }
    void merge(const PairProfile &other)
    {
        for (size_t i = 0; i < counts.size(); ++i)
            counts[i] += other.counts[i];
    }
    uint64_t total() const;
};

/** An immutable tier-2 execution artifact for one jvm module. */
struct TierArtifact
{
    enum : uint8_t { kFuseNone = 0, kFuseHead = 1, kFuseTail = 2 };

    /** Pre-quickened copy of the source module (every quickenable
     *  instruction already carries its resolved form, so the VM's
     *  in-place quickening pass is never reached). */
    Module module;
    /** Per-function, per-pc fusion role (kFuse*). */
    std::vector<std::vector<uint8_t>> fuse;
    /** Per-function, per-pc flag: 1 = resolved inline-cache site. */
    std::vector<std::vector<uint8_t>> ic;
    /** Opcode pairs selected for fusion (hottest first). */
    std::vector<std::pair<Bc, Bc>> fusedPairs;
    uint64_t quickened = 0; ///< instructions pre-quickened
    uint64_t fuseSites = 0; ///< static head/tail pair sites marked
    uint64_t icSites = 0;   ///< static inline-cache sites resolved
};

/**
 * Build a tier-2 artifact for @p module from @p pairs. The one-time
 * build cost is emitted on @p exec under Category::Precompile in a
 * dedicated "jvm.tierup" routine, as in-place quickening charges
 * Precompile.
 *
 * Fusion constraints keep the fused handler a straight line:
 *   - the head must not be a control transfer (branch/call/return),
 *   - the tail must not be a branch target (no jumping into the
 *     middle of a superinstruction),
 *   - sites are claimed greedily left-to-right without overlap.
 */
std::shared_ptr<const TierArtifact>
buildTierArtifact(trace::Execution &exec, const Module &module,
                  const PairProfile &pairs);

} // namespace interp::jvm

#endif // INTERP_JVM_TIER2_HH
