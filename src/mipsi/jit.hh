/**
 * @file
 * Jit MIPSI: the tier-3 template-compiled core.
 *
 * Builds on the threaded core's predecode, then goes one step past
 * direct threading: a jit::JitArtifact concatenates one native
 * stencil per guest instruction, so straight-line guest code runs by
 * *falling through* the stencil stream — no per-trip dispatch at all.
 * Each stencil calls back into the shared execute stage
 * (Mipsi::executeInst), so per-command retired/native-lib attribution
 * is byte-identical to the baseline by construction. What changes:
 *
 *  - fetch/decode: two glue instructions per guest instruction,
 *    emitted at the stencil's own PC inside a Segment::JitCode region
 *    (so §4 i-cache simulation sees the emitted code's footprint —
 *    Fig 3 revisited), plus a small re-entry lookup only after taken
 *    control transfers;
 *  - memory model: the stencil region caches the page mapping, so a
 *    guest access costs a guarded direct-map probe (4 instructions)
 *    instead of the full two-level walk (~24) — still inside
 *    MemModelScope, so (execute − memModel) is untouched;
 *  - the one-shot stencil compilation is charged to Precompile.
 *
 * The artifact is immutable and shareable: interpd's TierManager
 * builds it aside once per warm program and publishes it atomically;
 * racing runs compile their own or stay a tier below. A poisoned
 * artifact (debugPoison) must never reach run() — the harness engine
 * falls back to the threaded core instead, mirroring debugPoisonIc.
 */

#ifndef INTERP_MIPSI_JIT_HH
#define INTERP_MIPSI_JIT_HH

#include <exception>
#include <functional>
#include <memory>

#include "jit/artifact.hh"
#include "mipsi/threaded.hh"

namespace interp::mipsi {

/** Template-jit variant; same load()/run() shape as the other cores. */
class JitMipsi : public ThreadedMipsi
{
  public:
    JitMipsi(trace::Execution &exec, vfs::FileSystem &fs);

    /** Predecode (Precompile) and register the stencil code region. */
    void load(const mips::Image &image);

    /**
     * Execute through @p artifact instead of compiling in-run. An
     * artifact compiled for a different text size is ignored (a fresh
     * one is compiled, unpublished) — never executed mismatched.
     */
    void useArtifact(std::shared_ptr<const jit::JitArtifact> artifact);

    /** Invoked with the artifact when run() compiles one itself. */
    void setPublishHook(
        std::function<void(std::shared_ptr<const jit::JitArtifact>)> hook);

    int run();

    /**
     * Compile the stencil program for the loaded text, charged to
     * Precompile. @p capacity_bytes overrides the emit-buffer size
     * (tests force the contained overflow fatal through it).
     */
    std::shared_ptr<const jit::JitArtifact>
    compile(size_t capacity_bytes = 0);

    /** Glue instructions charged per stencil (region sizing). */
    static constexpr uint32_t kGlueInsts = 2;

  private:
    /** StepFn target: never lets an exception unwind into the native
     *  frame; stashed and re-raised after JitArtifact::enter(). */
    static uint8_t stepThunk(void *ctx, uint32_t index) noexcept;

    /** Execute stencil @p index; nonzero leaves the stream. */
    uint8_t jitStep(uint32_t index);

    /** Synthetic PC of stencil @p index's glue. */
    uint32_t stencilPc(uint32_t index) const;

    std::shared_ptr<const jit::JitArtifact> art;
    std::function<void(std::shared_ptr<const jit::JitArtifact>)> publish;

    trace::RoutineId rEnter;   ///< region re-entry lookup
    trace::RoutineId rEmit;    ///< one-shot stencil compiler
    uint32_t jitRegionBase = 0;

    // Live only inside run().
    int *curExitCode = nullptr;
    bool runDone = false;
    std::exception_ptr pending;
};

} // namespace interp::mipsi

#endif // INTERP_MIPSI_JIT_HH
