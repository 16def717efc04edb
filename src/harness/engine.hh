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
 * Engine::execute() is where every run ends. A mode's run() only
 * prepares the program, records its VM's command set and runs it,
 * and the VM's own run() returns the guest's exit code.
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
     * result's commands); emission goes to that Execution. The one
     * place a run ends: the result is finished unless the budget
     * stopped it, and the tail batch reaches the sinks before this
     * returns.
     */
    EngineResult execute(const BenchSpec &spec);

    /** The executed program's command set (valid after execute()). */
    trace::CommandSet &commandSet() { return *vmCommands; }

  protected:
    Engine(trace::Execution &exec, vfs::FileSystem &fs)
        : exec(exec), fs(fs)
    {
    }

    /**
     * The mode's part of execute(): prepare @p spec, set
     * @p res.programBytes, point vmCommands at the VM's command set,
     * and run the program. The budget may stop the run first, with
     * trace::BudgetExhausted.
     */
    virtual void run(const BenchSpec &spec, EngineResult &res) = 0;

    trace::Execution &exec;
    vfs::FileSystem &fs;
    trace::CommandSet *vmCommands = nullptr;
};

/** Factory: the engine implementing @p lang's execution mode. */
std::unique_ptr<Engine> makeEngine(Lang lang, trace::Execution &exec,
                                   vfs::FileSystem &fs);

} // namespace interp::harness

#endif // INTERP_HARNESS_ENGINE_HH
