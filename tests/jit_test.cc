/**
 * @file
 * Tier-3 jit suite: ExecBuffer/JitArtifact units (W^X lifetime,
 * contained overflow, poison), golden equivalence of the jit modes
 * against their faithful baselines on micro workloads, the gain over
 * the previous tier, the poisoned-artifact previous-tier fallback,
 * the TierManager jit rung, and the synthetic-region i-cache
 * attribution the §4 simulator sees.
 *
 * The tier-3 golden contract is the one in harness/contract.hh,
 * against the *baseline*: per-command (execute - memModel) is
 * byte-identical, fetch/decode and memModel totals may only shrink,
 * and stencil emission is charged to Precompile. remedies_test's
 * MacroLadderSweep checks it on every macro program.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/contract.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "jit/artifact.hh"
#include "jit/exec_buffer.hh"
#include "support/logging.hh"
#include "tier/tier.hh"
#include "trace/code_registry.hh"
#include "trace/profile.hh"
#include "workloads/registry.hh"

namespace {

using namespace interp;
using namespace interp::harness;

/** Macro-suite workload @p name, run under mode @p lang. */
BenchSpec
macroSpec(Lang lang, const std::string &name)
{
    return workloads::specFor(*workloads::find(name), lang);
}

/** Counting-only run: the golden checks compare attribution, not
 *  simulated cycles, so skip the machine model for speed. */
Measurement
runCounting(const BenchSpec &spec)
{
    return run(spec, {}, nullptr, /*with_machine=*/false);
}

// --- ExecBuffer / JitArtifact units ------------------------------------

/** Step helper recording the indices it ran; stops at stopAt. */
struct StepLog
{
    std::vector<uint32_t> seen;
    uint32_t stopAt = 0xffffffffu;
};

uint8_t
logStep(void *ctx, uint32_t index)
{
    auto *log = (StepLog *)ctx;
    log->seen.push_back(index);
    return index == log->stopAt ? 1 : 0;
}

TEST(JitUnit, ExecBufferEnforcesWxLifetime)
{
    jit::ExecBuffer buf;
    if (!buf.map(64))
        GTEST_SKIP() << "host refuses anonymous mappings";
    EXPECT_TRUE(buf.mapped());
    EXPECT_FALSE(buf.sealed());
    buf.emit8(0xc3);
    EXPECT_EQ(buf.used(), 1u);

    if (!buf.seal())
        GTEST_SKIP() << "host refuses executable memory";
    EXPECT_TRUE(buf.sealed());
    // Writing into an executable mapping is exactly the bug W^X
    // exists to stop: emitting after the flip is a contained fatal.
    ScopedFatalThrow guard;
    EXPECT_THROW(buf.emit8(0x90), FatalError);
}

TEST(JitUnit, ExecBufferOverflowIsContainedFatal)
{
    jit::ExecBuffer buf;
    if (!buf.map(1)) // rounded up to one page
        GTEST_SKIP() << "host refuses anonymous mappings";
    std::vector<uint8_t> page(buf.capacity(), 0x90);
    buf.emit(page.data(), page.size()); // exactly full: fine
    ScopedFatalThrow guard;
    EXPECT_THROW(buf.emit8(0xc3), FatalError);
}

TEST(JitUnit, OverflowedBuildIsContainedFatal)
{
    // A capacity too small for the stencil stream must fail loudly
    // during build (never UB, never a half-emitted region). The
    // mapping is page-rounded, so overflow needs more than one page
    // of stencils against a one-page capacity.
    if (!jit::JitArtifact::build(&logStep, 1)->native())
        GTEST_SKIP() << "portable backend: no emit path to overflow";
    ScopedFatalThrow guard;
    EXPECT_THROW(jit::JitArtifact::build(&logStep, 200,
                                         /*capacity_bytes=*/16),
                 FatalError);
}

TEST(JitUnit, ArtifactRunsStepsWithFallThroughAndEarlyOut)
{
    auto art = jit::JitArtifact::build(&logStep, 5);
    ASSERT_TRUE(art);
    EXPECT_EQ(art->numSteps(), 5u);

    StepLog all;
    art->enter(&all, 0);
    EXPECT_EQ(all.seen, (std::vector<uint32_t>{0, 1, 2, 3, 4}));

    StepLog tail;
    art->enter(&tail, 3);
    EXPECT_EQ(tail.seen, (std::vector<uint32_t>{3, 4}));

    StepLog early;
    early.stopAt = 2;
    art->enter(&early, 0);
    EXPECT_EQ(early.seen, (std::vector<uint32_t>{0, 1, 2}));

    StepLog none;
    art->enter(&none, 5); // past the end: a no-op, not a fault
    EXPECT_TRUE(none.seen.empty());
}

TEST(JitUnit, NativeBackendEmitsTheExpectedBytes)
{
#if defined(__x86_64__) && defined(__linux__)
    auto art = jit::JitArtifact::build(&logStep, 7);
    ASSERT_TRUE(art);
    if (!art->native())
        GTEST_SKIP() << "host refuses executable memory";
    EXPECT_EQ(art->codeBytes(), jit::JitArtifact::kEntryBytes +
                                    7 * jit::JitArtifact::kStencilBytes +
                                    1);
#else
    auto art = jit::JitArtifact::build(&logStep, 7);
    EXPECT_FALSE(art->native());
    EXPECT_EQ(art->codeBytes(), 0u);
#endif
}

TEST(JitUnit, PoisonedArtifactNeverExecutes)
{
    auto art = jit::JitArtifact::build(&logStep, 3);
    art->debugPoison();
    EXPECT_TRUE(art->poisoned());
    StepLog log;
    ScopedFatalThrow guard;
    EXPECT_THROW(art->enter(&log, 0), FatalError);
    EXPECT_TRUE(log.seen.empty());
}

// --- golden equivalence -------------------------------------------------

/** @p base_spec and its jit rung hold the tier-3 contract. */
void
expectJitGolden(const BenchSpec &base_spec)
{
    BenchSpec jit_spec = base_spec;
    jit_spec.lang = rungOf(base_spec.lang, 3);
    ASSERT_TRUE(isJit(jit_spec.lang)) << "spec has no jit tier";
    for (const std::string &clause :
         contractBreaks(runCounting(base_spec), runCounting(jit_spec)))
        ADD_FAILURE() << clause;
}

TEST(JitGolden, MipsiMicro)
{
    expectJitGolden(microBench(Lang::Mipsi, "a=b+c", 60));
    expectJitGolden(microBench(Lang::Mipsi, "string-split", 20));
}

TEST(JitGolden, TclMicro)
{
    expectJitGolden(microBench(Lang::Tcl, "a=b+c", 30));
    expectJitGolden(microBench(Lang::Tcl, "string-concat", 30));
}

// The jit tier must improve on the tier it is promoted from, not just
// on the baseline — otherwise the ladder's top rung buys nothing.
TEST(JitGolden, ImprovesOnThePreviousTier)
{
    for (const char *name : {"des", "tcllex"}) {
        Lang base = name == std::string("des") ? Lang::Mipsi : Lang::Tcl;
        Measurement prev = runCounting(macroSpec(rungOf(base, 2), name));
        Measurement jit = runCounting(macroSpec(rungOf(base, 3), name));
        EXPECT_LT(jit.profile.fetchDecodeInsts() +
                      jit.profile.memModelInsts(),
                  prev.profile.fetchDecodeInsts() +
                      prev.profile.memModelInsts())
            << name;
        EXPECT_EQ(prev.stdoutText, jit.stdoutText) << name;
    }
}

// `--jobs N` must not perturb jit-mode measurements: the suite runs
// bit-identical serial or parallel (each job owns its Execution,
// registry and deterministic heap).
TEST(JitGolden, ParallelJobsAreBitIdentical)
{
    std::vector<BenchSpec> specs;
    for (auto lang : {Lang::Mipsi, Lang::Tcl}) {
        specs.push_back(macroSpec(lang, "des"));
        specs.push_back(macroSpec(rungOf(lang, 3), "des"));
    }
    SuiteOptions serial;
    serial.jobs = 1;
    serial.withMachine = false;
    SuiteOptions parallel = serial;
    parallel.jobs = 4;
    std::vector<Measurement> a = runSuite(specs, serial);
    std::vector<Measurement> b = runSuite(specs, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_FALSE(a[i].failed) << i;
        EXPECT_FALSE(b[i].failed) << i;
        EXPECT_EQ(a[i].commands, b[i].commands) << i;
        EXPECT_EQ(a[i].profile.instructions(),
                  b[i].profile.instructions())
            << i;
        EXPECT_EQ(a[i].stdoutText, b[i].stdoutText) << i;
    }
}

// --- the emitted region as a synthetic code segment --------------------

/** Counts instructions observed at PCs inside Segment::JitCode. */
class RegionCounter : public trace::Sink
{
  public:
    void
    onBatch(const trace::BundleBatch &batch) override
    {
        for (const trace::Bundle &b : batch)
            if (b.pc >= lo && b.pc < lo + 0x04000000)
                insts += b.count;
    }
    uint32_t lo =
        trace::CodeRegistry::segmentBase(trace::Segment::JitCode);
    uint64_t insts = 0;
};

TEST(JitRegion, GlueExecutesInTheJitSegmentAndSimulatorSeesIt)
{
    BenchSpec spec = microBench(Lang::Mipsi, "a=b+c", 60);
    spec.lang = Lang::MipsiJit;
    RegionCounter region;
    Measurement m = run(spec, {&region}, nullptr, /*with_machine=*/true);
    EXPECT_TRUE(m.finished);
    // Two glue instructions per straight-line guest instruction, all
    // at JitCode PCs — the region's i-cache footprint is real input
    // to the §4 machine (cycles > 0 proves it simulated the stream).
    EXPECT_GT(region.insts, 0u);
    EXPECT_GT(m.cycles, 0u);
    // The glue is the whole jit-mode fetch/decode except region
    // re-entry, so it must account for most of that category.
    EXPECT_LE(region.insts, m.profile.fetchDecodeInsts());
    EXPECT_GT(region.insts, m.profile.fetchDecodeInsts() / 2);
}

// --- poisoned-artifact fallback ----------------------------------------

TEST(JitFallback, PoisonedArtifactFallsBackToPreviousTier)
{
    // Publish a stencil program the way the tier manager would...
    BenchSpec spec = microBench(Lang::Mipsi, "a=b+c", 60);
    spec.lang = Lang::MipsiJit;
    std::shared_ptr<const jit::JitArtifact> published;
    spec.tier.publish = [&published](Artifact a) {
        published = std::get<std::shared_ptr<const jit::JitArtifact>>(a);
    };
    Measurement first = runCounting(spec);
    EXPECT_TRUE(first.finished);
    ASSERT_TRUE(published);
    EXPECT_GT(published->numSteps(), 0u);

    // ...then poison it. A run handed the poisoned artifact must not
    // enter it (that would fatal) — it drops to the previous tier and
    // measures exactly like a plain threaded run.
    published->debugPoison();
    BenchSpec poisoned = microBench(Lang::Mipsi, "a=b+c", 60);
    poisoned.lang = Lang::MipsiJit;
    poisoned.tier.artifact = published;
    Measurement fallback = runCounting(poisoned);

    BenchSpec prev = microBench(Lang::Mipsi, "a=b+c", 60);
    prev.lang = Lang::MipsiThreaded;
    Measurement threaded = runCounting(prev);

    EXPECT_TRUE(fallback.finished);
    EXPECT_EQ(fallback.commands, threaded.commands);
    EXPECT_EQ(fallback.stdoutText, threaded.stdoutText);
    EXPECT_EQ(fallback.profile.instructions(),
              threaded.profile.instructions());
    EXPECT_EQ(fallback.profile.fetchDecodeInsts(),
              threaded.profile.fetchDecodeInsts());
}

TEST(JitFallback, StaleArtifactIsRecompiledNotExecuted)
{
    // An artifact compiled for different guest text (wrong step
    // count) must never be entered; the run compiles fresh and stays
    // byte-identical to an artifact-less jit run.
    auto stale = jit::JitArtifact::build(&logStep, 1);
    BenchSpec spec = microBench(Lang::Mipsi, "a=b+c", 40);
    spec.lang = Lang::MipsiJit;
    Measurement clean = runCounting(spec);
    BenchSpec with_stale = microBench(Lang::Mipsi, "a=b+c", 40);
    with_stale.lang = Lang::MipsiJit;
    with_stale.tier.artifact = stale;
    Measurement recompiled = runCounting(with_stale);
    EXPECT_EQ(clean.profile.instructions(),
              recompiled.profile.instructions());
    EXPECT_EQ(clean.stdoutText, recompiled.stdoutText);
}

// --- TierManager: the jit rung -----------------------------------------

tier::TierConfig
jitLadderConfig(uint64_t remedy_after, uint64_t tier2_after,
                uint64_t jit_after)
{
    tier::TierConfig cfg;
    cfg.enabled = true;
    cfg.remedyAfter = remedy_after;
    cfg.tier2After = tier2_after;
    cfg.jitAfter = jit_after;
    cfg.commandsPerPoint = 1'000'000'000; // invocation-driven only
    cfg.decayEvery = 1'000'000;           // effectively off
    return cfg;
}

TEST(TierManagerJit, TclClimbsToTheJitRung)
{
    tier::TierManager tm(jitLadderConfig(1, 2, 3));
    tier::TierPlan p1 = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(p1.lang, Lang::TclBytecode);
    tier::TierPlan p2 = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(p2.lang, Lang::TclTier2);
    tier::TierPlan p3 = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(p3.lang, Lang::TclJit);
    EXPECT_EQ(p3.level, 3);
    EXPECT_TRUE(p3.promotedJit);
    // tcl-jit compiles per cached script inside the interpreter: no
    // catalog artifact, no publish hook.
    EXPECT_FALSE(p3.tier.publish);
    EXPECT_FALSE(present(p3.tier.artifact));

    // The crossing fires exactly once.
    tier::TierPlan p4 = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(p4.lang, Lang::TclJit);
    EXPECT_FALSE(p4.promotedJit);
    EXPECT_EQ(tm.snapshot().promotedJit, 1u);
}

TEST(TierManagerJit, MipsiSingleBuilderPublishesTheStencilProgram)
{
    tier::TierManager tm(jitLadderConfig(1, 2, 3));
    tm.plan(Lang::Mipsi, "des");
    tm.plan(Lang::Mipsi, "des");

    // First tier-3 crossing: this request is the designated builder —
    // it gets the publish hook and no artifact (it compiles in-run).
    tier::TierPlan builder = tm.plan(Lang::Mipsi, "des");
    EXPECT_EQ(builder.lang, Lang::MipsiJit);
    EXPECT_EQ(builder.level, 3);
    EXPECT_TRUE(builder.promotedJit);
    EXPECT_FALSE(present(builder.tier.artifact));
    ASSERT_TRUE(builder.tier.publish);

    // While the build is outstanding, concurrent requests fall back a
    // rung (mipsi's tier 2 folds to the threaded remedy).
    tier::TierPlan waiting = tm.plan(Lang::Mipsi, "des");
    EXPECT_EQ(waiting.lang, Lang::MipsiThreaded);
    EXPECT_LT(waiting.level, 3);
    EXPECT_FALSE(waiting.tier.publish);

    // Publish lands: the next request executes the stencil program.
    builder.tier.publish(jit::JitArtifact::build(&logStep, 4));
    tier::TierPlan served = tm.plan(Lang::Mipsi, "des");
    EXPECT_EQ(served.lang, Lang::MipsiJit);
    ASSERT_TRUE(served.tier.get<jit::JitArtifact>());
    EXPECT_EQ(served.tier.get<jit::JitArtifact>()->numSteps(), 4u);
    EXPECT_FALSE(served.tier.publish);
    EXPECT_EQ(tm.snapshot().artifactsPublished, 1u);
    EXPECT_EQ(tm.snapshot().promotedJit, 1u);
}

TEST(TierManagerJit, ModesWithoutATemplateBackendFoldToTier2)
{
    // Java and Perl top out below tier 3: the jit threshold folds
    // down and promotedJit never fires.
    tier::TierManager tm(jitLadderConfig(1, 2, 3));
    tm.plan(Lang::Java, "des");
    tm.plan(Lang::Java, "des");
    // Past the jit threshold the target folds to tier 2. The jvm
    // aside-build protocol may degrade this particular request
    // further (an artifact build may still be outstanding), but it
    // must never hand out a jit rung or a stencil program.
    tier::TierPlan java = tm.plan(Lang::Java, "des");
    EXPECT_LE(java.level, 2);
    EXPECT_FALSE(java.promotedJit);
    EXPECT_FALSE(isJit(java.lang));
    EXPECT_FALSE(java.tier.get<jit::JitArtifact>());

    tm.plan(Lang::Perl, "plexus");
    tm.plan(Lang::Perl, "plexus");
    tier::TierPlan perl = tm.plan(Lang::Perl, "plexus");
    EXPECT_EQ(perl.lang, Lang::PerlIC);
    EXPECT_EQ(perl.level, 1);
    EXPECT_FALSE(perl.promotedJit);

    EXPECT_EQ(tm.snapshot().promotedJit, 0u);
}

} // namespace
