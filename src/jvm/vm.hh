/**
 * @file
 * The Java-like bytecode interpreter.
 *
 * Per §2/§3.2: a simple, low-level virtual machine — fetch/decode is
 * small and nearly fixed (~16 native instructions per bytecode in the
 * paper) thanks to the uniform bytecode representation; values move
 * through per-frame operand stacks (≈2 instructions per stack access)
 * while statics and arrays cost an order of magnitude more (≈11 per
 * field access, §3.3); and native runtime libraries absorb the heavy
 * lifting for graphics programs. The interpreter loop and handlers
 * occupy only a few KB of code, giving the good i-cache behaviour of
 * Figure 3.
 */

#ifndef INTERP_JVM_VM_HH
#define INTERP_JVM_VM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "jvm/bytecode.hh"
#include "jvm/tier2.hh"
#include "jvm/heap.hh"
#include "jvm/natives.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace interp::jvm {

/** The virtual machine. Load a module, then run(). */
class Vm
{
  public:
    /**
     * @p quick enables the jvm-quick execution mode (§5 remedy):
     * quickenable bytecodes (const loads, local and static field
     * access) are rewritten in place into operand-resolved forms at
     * first execution, after which their fetch/decode path is about
     * half the baseline cost. The rewrite itself is charged to the
     * Precompile category; the execute stage is shared with baseline
     * mode, so per-command execute attribution is identical.
     */
    Vm(trace::Execution &exec, vfs::FileSystem &fs, bool quick = false);

    /** Load a module (copied): allocates statics, resets frames. */
    void load(const Module &module);

    /**
     * Load a shared, immutable module without copying (the interpd
     * warm-catalog path: one compiled module, many concurrent
     * readers). Execution never writes through it — in quick mode,
     * reaching the in-place quickening pass on a shared module is a
     * contained fatal(); quick mode runs a private copy (load()),
     * tier-2 a pre-quickened artifact (useArtifact()).
     */
    void loadShared(std::shared_ptr<const Module> module);

    /**
     * Adopt a tier-2 artifact and load its pre-quickened module
     * (shared, immutable). Enables the quick fetch path plus the
     * artifact's superinstruction and inline-cache tables.
     */
    void useArtifact(std::shared_ptr<const TierArtifact> artifact);

    /** Collect dynamic adjacent-pair counts into @p sink (host-side
     *  only — zero trace emission; used to profile baseline runs). */
    void setPairSink(PairProfile *sink) { pairSink = sink; }

    /** Test hook: force every inline-cache site to miss, taking the
     *  contained fallback (full resolution) path. */
    void debugPoisonIc() { icPoisoned = true; }

    /**
     * Interpret until main returns or exit(); @return main's value or
     * exit()'s argument. Each bytecode retires one command on the
     * Execution, whose command budget may stop the run first
     * (trace::BudgetExhausted).
     */
    int run();

    trace::CommandSet &commandSet() { return commands; }
    Heap &heap() { return heap_; }
    NativeRuntime &natives() { return native; }

    /** Value of static field @p name (tests). */
    int32_t staticValue(const std::string &name) const;

    /**
     * Test hook: force-quicken the instruction at @p pc in function
     * @p func_id. Quickening an already-quickened instruction is a
     * post-first-event code mutation and raises a contained fatal().
     */
    void debugQuicken(int func_id, uint32_t pc);

    /** Is @p op a rewrite candidate in quick mode? */
    static bool quickenable(Bc op);

  private:
    struct Frame
    {
        int funcId;
        uint32_t pc;
        uint32_t localsBase;
        uint32_t stackBase; ///< operand-stack floor for this frame
    };

    // Stack manipulation with memory-model emission (§3.3: ~2
    // instructions per stack access).
    void push(int32_t value);
    int32_t pop();

    void pushFrame(int func_id);

    /** Post-load() initialization shared by both load paths. */
    void initLoaded();

    /** Rewrite @p insn into its quickened form (charged Precompile). */
    void quicken(Insn &insn);

    static void scanRoots(void *ctx,
                          std::vector<const int32_t *> &ranges,
                          std::vector<size_t> &lengths);

    trace::Execution &exec;
    vfs::FileSystem &fs;
    Module moduleStorage; ///< owned copy of the loaded module
    const Module *module = nullptr;
    Heap heap_;
    NativeRuntime native;
    trace::CommandSet commands;
    std::array<trace::CommandId, (size_t)Bc::NumOps> bcCommand{};

    std::vector<int32_t> stack;  ///< shared operand stack
    std::vector<int32_t> locals; ///< all frames' locals, contiguous
    std::vector<Frame> frames;
    std::vector<int32_t> statics;
    uint32_t sp = 0;
    uint32_t localsTop = 0;

    // Interpreter code regions.
    trace::RoutineId rLoop;
    trace::RoutineId rStack;
    trace::RoutineId rStatic;
    trace::RoutineId rArray;
    trace::RoutineId rArith;
    trace::RoutineId rBranch;
    trace::RoutineId rInvoke;
    trace::RoutineId rNative;
    trace::RoutineId rNew;

    uint32_t dispatchTable[(size_t)Bc::NumOps] = {};
    std::vector<int32_t> stringRefs; ///< interned LdcStr arrays

    // Quick-mode state, declared last: baseline members (notably the
    // emitted &dispatchTable addresses) keep the exact offsets and
    // granule alignment they had before the mode existed.
    trace::RoutineId rQuicken = 0;
    bool quickMode = false;

    // Tier-2 state, likewise appended after everything the baseline
    // and quick modes emit addresses of.
    std::shared_ptr<const Module> sharedModule; ///< keep-alive, no copy
    std::shared_ptr<const TierArtifact> artifact;
    PairProfile *pairSink = nullptr;
    bool fusePending = false; ///< previous op was a fused head
    bool icPoisoned = false;  ///< debug: force IC misses
    // Pair-profiling cursor (host-side bookkeeping only).
    Bc prevOp = Bc::NumOps;
    uint32_t prevPc = 0;
    int prevFunc = -1;
    size_t prevDepth = 0;
};

} // namespace interp::jvm

#endif // INTERP_JVM_VM_HH
