#include "harness/engine.hh"

#include "harness/workloads.hh"
#include "jit/artifact.hh"
#include "jvm/vm.hh"
#include "minic/compile.hh"
#include "mipsi/direct.hh"
#include "mipsi/jit.hh"
#include "mipsi/mipsi.hh"
#include "mipsi/threaded.hh"
#include "perlish/interp.hh"
#include "support/logging.hh"
#include "tclish/interp.hh"

namespace interp::harness {

namespace {

mips::Image
specImage(const BenchSpec &spec)
{
    return spec.image ? *spec.image
                      : minic::compileMips(spec.source, spec.name);
}

/**
 * Call @p body with @p exec's command budget armed at @p budget. The
 * one place a trace::BudgetExhausted is caught: the budget stopping
 * the run ends the call. @return false when the budget stopped it.
 */
template <class Body>
bool
runBudgeted(trace::Execution &exec, uint64_t budget, Body &&body)
{
    exec.setCommandBudget(budget);
    try {
        body();
    } catch (const trace::BudgetExhausted &) {
        return false;
    }
    return true;
}

/** Lang::C — the hand-scheduled native baseline. */
class DirectEngine final : public Engine
{
  public:
    DirectEngine(trace::Execution &exec, vfs::FileSystem &fs)
        : Engine(exec, fs)
    {
    }

  private:
    void run(const BenchSpec &spec, EngineResult &res) override
    {
        auto image = specImage(spec);
        res.programBytes = image.sizeBytes();
        cpu = std::make_unique<mipsi::DirectCpu>(exec, fs);
        cpu->load(image);
        vmCommands = &cpu->commandSet();
        cpu->run();
    }

    std::unique_ptr<mipsi::DirectCpu> cpu;
};

/** Lang::Mipsi / MipsiThreaded — switch and threaded MIPS cores. */
class MipsiEngine final : public Engine
{
  public:
    MipsiEngine(trace::Execution &exec, vfs::FileSystem &fs,
                bool threaded)
        : Engine(exec, fs), threaded(threaded)
    {
    }

  private:
    void run(const BenchSpec &spec, EngineResult &res) override
    {
        auto image = specImage(spec);
        res.programBytes = image.sizeBytes();
        // run() is non-virtual by design (mipsi.hh): dispatch on the
        // concrete type.
        if (threaded) {
            threadedVm = std::make_unique<mipsi::ThreadedMipsi>(exec, fs);
            threadedVm->load(image);
            vmCommands = &threadedVm->commandSet();
            threadedVm->run();
        } else {
            switchVm = std::make_unique<mipsi::Mipsi>(exec, fs);
            switchVm->load(image);
            vmCommands = &switchVm->commandSet();
            switchVm->run();
        }
    }

    bool threaded;
    // The cores have no vtable (mipsi.hh explains why), so each
    // concrete type must be owned — and destroyed — as itself.
    std::unique_ptr<mipsi::Mipsi> switchVm;
    std::unique_ptr<mipsi::ThreadedMipsi> threadedVm;
};

/**
 * Lang::MipsiJit — tier 3. Executes through a published JitArtifact
 * when the spec carries one (the catalog's single-builder aside
 * build), compiling and publishing a fresh one otherwise. A
 * *poisoned* published artifact never reaches enter(): the run drops
 * to the previous tier's VM outright, the same contained-fallback
 * shape as the jvm caches' debugPoisonIc.
 */
class MipsiJitEngine final : public Engine
{
  public:
    MipsiJitEngine(trace::Execution &exec, vfs::FileSystem &fs)
        : Engine(exec, fs)
    {
    }

  private:
    void run(const BenchSpec &spec, EngineResult &res) override
    {
        auto image = specImage(spec);
        res.programBytes = image.sizeBytes();
        auto published = spec.tier.get<jit::JitArtifact>();
        if (published && published->poisoned()) {
            prevVm = std::make_unique<mipsi::ThreadedMipsi>(exec, fs);
            prevVm->load(image);
            vmCommands = &prevVm->commandSet();
            prevVm->run();
            return;
        }
        jitVm = std::make_unique<mipsi::JitMipsi>(exec, fs);
        jitVm->load(image);
        if (published)
            jitVm->useArtifact(std::move(published));
        if (spec.tier.publish)
            jitVm->setPublishHook(spec.tier.publish);
        vmCommands = &jitVm->commandSet();
        jitVm->run();
    }

    // No vtable on the cores: own each concrete type as itself.
    std::unique_ptr<mipsi::ThreadedMipsi> prevVm;
    std::unique_ptr<mipsi::JitMipsi> jitVm;
};

/** Lang::Java / JavaQuick / JavaTier2 — the jvm's three tiers. */
class JvmEngine final : public Engine
{
  public:
    JvmEngine(trace::Execution &exec, vfs::FileSystem &fs, int tier)
        : Engine(exec, fs), tier(tier)
    {
    }

  private:
    void run(const BenchSpec &spec, EngineResult &res) override
    {
        std::shared_ptr<const jvm::Module> module = spec.module;
        if (!module)
            module = std::make_shared<const jvm::Module>(
                minic::compileBytecode(spec.source, spec.name));
        res.programBytes = module->sizeBytes();
        std::shared_ptr<const jvm::TierArtifact> artifact;
        if (tier == 2)
            artifact = artifactFor(spec, module);
        vm = std::make_unique<jvm::Vm>(exec, fs, /*quick=*/tier > 0);
        if (artifact) {
            vm->useArtifact(std::move(artifact));
        } else if (tier == 1) {
            // Quickening rewrites the code it runs: a private copy,
            // never the (possibly catalog-shared) module itself.
            vm->load(*module);
        } else {
            if (spec.tier.collect)
                vm->setPairSink(spec.tier.collect.get());
            vm->loadShared(std::move(module));
        }
        vmCommands = &vm->commandSet();
        vm->run();
    }

    /**
     * The tier-2 artifact to run @p module through: the published
     * one, else one built now (charged to Precompile) and handed to
     * the publish hook.
     */
    std::shared_ptr<const jvm::TierArtifact>
    artifactFor(const BenchSpec &spec,
                const std::shared_ptr<const jvm::Module> &module)
    {
        if (auto published = spec.tier.get<jvm::TierArtifact>())
            return published;
        jvm::PairProfile local;
        const jvm::PairProfile *pairs = &local;
        if (spec.tier.pairs) {
            pairs = spec.tier.pairs.get();
        } else {
            // Standalone mode: discover hot pairs with an unmeasured
            // profiling pre-run under the same budget and deadline, on
            // its own Execution (interpd feeds the profile from earlier
            // baseline runs instead).
            trace::Execution pexec;
            pexec.setDeadline(spec.deadline);
            vfs::FileSystem pfs;
            if (spec.needsInputs)
                installAllInputs(pfs);
            jvm::Vm pvm(pexec, pfs);
            pvm.setPairSink(&local);
            pvm.loadShared(module);
            runBudgeted(pexec, spec.maxCommands, [&] { pvm.run(); });
        }
        auto artifact = jvm::buildTierArtifact(exec, *module, *pairs);
        if (spec.tier.publish)
            spec.tier.publish(artifact);
        return artifact;
    }

    int tier;
    std::unique_ptr<jvm::Vm> vm;
};

/** Lang::Perl / PerlIC. */
class PerlEngine final : public Engine
{
  public:
    PerlEngine(trace::Execution &exec, vfs::FileSystem &fs, bool ic)
        : Engine(exec, fs), ic(ic)
    {
    }

  private:
    void run(const BenchSpec &spec, EngineResult &res) override
    {
        res.programBytes = spec.source.size();
        vm = std::make_unique<perlish::Interp>(exec, fs,
                                               /*symbolIc=*/ic);
        vm->load(spec.source, spec.name);
        vmCommands = &vm->commandSet();
        vm->run();
    }

    bool ic;
    std::unique_ptr<perlish::Interp> vm;
};

/** Lang::Tcl / TclBytecode / TclTier2 / TclJit. */
class TclEngine final : public Engine
{
  public:
    TclEngine(trace::Execution &exec, vfs::FileSystem &fs,
              bool bytecode, bool tier2, bool jit)
        : Engine(exec, fs), bytecode(bytecode), tier2(tier2), jit(jit)
    {
    }

  private:
    void run(const BenchSpec &spec, EngineResult &res) override
    {
        res.programBytes = spec.source.size();
        vm = std::make_unique<tclish::TclInterp>(exec, fs, bytecode,
                                                 tier2, jit);
        vmCommands = &vm->commandSet();
        vm->run(spec.source);
    }

    bool bytecode, tier2, jit;
    std::unique_ptr<tclish::TclInterp> vm;
};

} // namespace

EngineResult
Engine::execute(const BenchSpec &spec)
{
    EngineResult res;
    res.finished =
        runBudgeted(exec, spec.maxCommands, [&] { run(spec, res); });
    // The tail batch; a no-op after a budget stop, which delivered it.
    exec.flush();
    res.commands = exec.commands();
    return res;
}

std::unique_ptr<Engine>
makeEngine(Lang lang, trace::Execution &exec, vfs::FileSystem &fs)
{
    switch (lang) {
      case Lang::C:
        return std::make_unique<DirectEngine>(exec, fs);
      case Lang::Mipsi:
        return std::make_unique<MipsiEngine>(exec, fs, false);
      case Lang::MipsiThreaded:
        return std::make_unique<MipsiEngine>(exec, fs, true);
      case Lang::MipsiJit:
        return std::make_unique<MipsiJitEngine>(exec, fs);
      case Lang::Java:
        return std::make_unique<JvmEngine>(exec, fs, 0);
      case Lang::JavaQuick:
        return std::make_unique<JvmEngine>(exec, fs, 1);
      case Lang::JavaTier2:
        return std::make_unique<JvmEngine>(exec, fs, 2);
      case Lang::Perl:
        return std::make_unique<PerlEngine>(exec, fs, false);
      case Lang::PerlIC:
        return std::make_unique<PerlEngine>(exec, fs, true);
      case Lang::Tcl:
        return std::make_unique<TclEngine>(exec, fs, false, false,
                                           false);
      case Lang::TclBytecode:
        return std::make_unique<TclEngine>(exec, fs, true, false,
                                           false);
      case Lang::TclTier2:
        return std::make_unique<TclEngine>(exec, fs, true, true, false);
      case Lang::TclJit:
        return std::make_unique<TclEngine>(exec, fs, true, true, true);
    }
    panic("makeEngine: unhandled lang %d", (int)lang);
}

} // namespace interp::harness
