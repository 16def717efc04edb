/**
 * @file
 * The execution-engine abstraction: one interface that every mode —
 * baseline, §5 remedy, tier-2, and the tier-3 jit — implements.
 *
 * An Engine owns a VM and knows how to prepare (compile/load) and
 * execute one BenchSpec against it. The harness's run(), the serve
 * path and the benches all dispatch through makeEngine() instead of
 * each keeping its own per-Lang switch, so adding an execution tier
 * is a factory case, not a scavenger hunt.
 *
 * Engines construct their VM lazily inside execute(): routine
 * registration happens in VM constructors, and deferring it keeps
 * the registration order (and hence every simulated code address)
 * identical to the pre-refactor harness, which constructed VMs on
 * the stack at the same point. It also lets the jit engine pick its
 * VM from the spec — a poisoned published JitArtifact drops the run
 * to the previous tier's VM outright (mirroring debugPoisonIc's
 * contained-fallback contract), with exactly the registration a
 * plain tier-2 run would have performed.
 */

#ifndef INTERP_HARNESS_ENGINE_HH
#define INTERP_HARNESS_ENGINE_HH

#include <memory>

#include "harness/runner.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace interp::harness {

/** What an engine reports back after executing a spec. */
struct EngineResult
{
    bool finished = false;      ///< the program ran to completion
    uint64_t commands = 0;      ///< virtual commands retired
    uint64_t programBytes = 0;  ///< size of the prepared program
};

/** One execution mode: prepare and run BenchSpecs. */
class Engine
{
  public:
    virtual ~Engine() = default;

    /**
     * Prepare (compile/load) and execute @p spec to completion or to
     * its command budget (BenchSpec::maxCommands, armed on the
     * Execution the engine was made with, which also counts the
     * result's commands); emission goes to that Execution.
     */
    EngineResult execute(const BenchSpec &spec);

    /** The executed program's command set (valid after execute()). */
    virtual trace::CommandSet &commandSet() = 0;

  protected:
    Engine(trace::Execution &exec, vfs::FileSystem &fs)
        : exec(exec), fs(fs)
    {
    }

    /**
     * The mode's part of execute(): prepare @p spec and run it, set
     * @p res.programBytes, and set @p res.finished once the program
     * has run to completion. The budget may stop the run first, with
     * trace::BudgetExhausted.
     */
    virtual void run(const BenchSpec &spec, EngineResult &res) = 0;

    trace::Execution &exec;
    vfs::FileSystem &fs;
};

/** Factory: the engine implementing @p lang's execution mode. */
std::unique_ptr<Engine> makeEngine(Lang lang, trace::Execution &exec,
                                   vfs::FileSystem &fs);

} // namespace interp::harness

#endif // INTERP_HARNESS_ENGINE_HH
