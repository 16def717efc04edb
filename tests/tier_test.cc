/**
 * @file
 * Tier-up suite: golden equivalence of the tier-2 execution modes
 * (jvm superinstructions + field inline caches, tclish command fusion
 * + symbol caches, perlish hash-element caches) on targeted micro and
 * macro workloads, TierManager promotion-ladder unit tests, and the
 * shared-module safety guarantees the tiering layer rests on —
 * artifacts are immutable, in-place quickening of a shared module is
 * a contained fatal, and one artifact can serve many threads at once.
 *
 * The tier-2 golden contract is the one in harness/contract.hh: the
 * *execute* delta is confined to the §3.3 memory-model subset
 * (CommandStats::memModel) — an inline cache makes an access cheaper,
 * it never changes what the access does. remedies_test's
 * MacroLadderSweep checks it on every macro program.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/contract.hh"
#include "harness/runner.hh"
#include "jit/artifact.hh"
#include "jvm/tier2.hh"
#include "jvm/vm.hh"
#include "minic/compile.hh"
#include "support/logging.hh"
#include "tier/tier.hh"
#include "trace/execution.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"
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

/**
 * @p base_spec and its tier-2 rung hold the tier-2 contract. When
 * @p expect_mem_reduction the workload is known to contain cacheable
 * sites, so its memModel total must strictly drop as well.
 */
void
expectTier2Golden(const BenchSpec &base_spec, bool expect_mem_reduction)
{
    BenchSpec t2_spec = base_spec;
    t2_spec.lang = rungOf(base_spec.lang, 2);
    ASSERT_NE(t2_spec.lang, base_spec.lang) << "spec has no tier-2";
    Measurement base = runCounting(base_spec);
    Measurement t2 = runCounting(t2_spec);
    for (const std::string &clause : contractBreaks(base, t2))
        ADD_FAILURE() << clause;
    if (expect_mem_reduction) {
        EXPECT_LT(t2.profile.memModelInsts(), base.profile.memModelInsts())
            << langName(base.lang) << "/" << base.name;
    }
}

// --- golden equivalence: targeted micro workloads ----------------------

TEST(TierGolden, JavaTier2Micro)
{
    // Globals compile to statics, so a=b+c is dense in GetStatic/
    // PutStatic inline-cache sites *and* hot adjacent pairs.
    expectTier2Golden(microBench(Lang::Java, "a=b+c", 60), true);
    expectTier2Golden(microBench(Lang::Java, "string-split", 40), true);
}

TEST(TierGolden, TclTier2Micro)
{
    // "$sa$sb" / "$str" substitute at compiled-command sites, where
    // the symbol cache is live.
    expectTier2Golden(microBench(Lang::Tcl, "string-concat", 30), true);
    expectTier2Golden(microBench(Lang::Tcl, "string-split", 30), true);
}

TEST(TierGolden, TclTier2NoSitesIsANoop)
{
    // a=b+c reads $b/$c only inside brace-quoted expr arguments —
    // command handlers run with no cache cursor, so tier-2 must not
    // perturb the memory model at all there.
    BenchSpec spec = microBench(Lang::Tcl, "a=b+c", 30);
    Measurement base = runCounting(spec);
    BenchSpec t2 = spec;
    t2.lang = Lang::TclTier2;
    Measurement tier = runCounting(t2);
    EXPECT_EQ(base.profile.memModelInsts(),
              tier.profile.memModelInsts());
    EXPECT_EQ(base.stdoutText, tier.stdoutText);
}

TEST(TierGolden, PerlIcMicro)
{
    // The micro ops carry no hash elements, so Perl-ic must be a
    // strict no-op on them: identical everything, including memModel.
    BenchSpec spec = microBench(Lang::Perl, "a=b+c", 60);
    expectTier2Golden(spec, false);
    Measurement base = runCounting(spec);
    BenchSpec ic = spec;
    ic.lang = Lang::PerlIC;
    Measurement t2 = runCounting(ic);
    EXPECT_EQ(base.profile.memModelInsts(), t2.profile.memModelInsts());
}

TEST(TierGolden, PerlIcHashWorkloads)
{
    // plexus and weblint are the hash-element-heavy macros; the cache
    // must strictly cut their §3.3 access cost.
    expectTier2Golden(macroSpec(Lang::Perl, "plexus"), true);
    expectTier2Golden(macroSpec(Lang::Perl, "weblint"), true);
}

// The one-shot artifact build is charged to Precompile, exactly like
// the in-place quickening it replaces — never to execute.
TEST(TierGolden, JavaTier2ChargesPrecompile)
{
    BenchSpec spec = microBench(Lang::Java, "a=b+c", 60);
    Measurement base = runCounting(spec);
    BenchSpec t2 = spec;
    t2.lang = Lang::JavaTier2;
    Measurement tier = runCounting(t2);
    EXPECT_GT(tier.profile.precompileInsts(),
              base.profile.precompileInsts());
}

// --- TierManager: the promotion ladder ---------------------------------

tier::TierConfig
testConfig(uint64_t remedy_after, uint64_t tier2_after)
{
    tier::TierConfig cfg;
    cfg.enabled = true;
    cfg.remedyAfter = remedy_after;
    cfg.tier2After = tier2_after;
    cfg.commandsPerPoint = 1'000'000'000; // invocation-driven only
    cfg.decayEvery = 1'000'000;           // effectively off
    return cfg;
}

TEST(TierManager, TclClimbsTheLadder)
{
    tier::TierManager tm(testConfig(3, 5));

    for (int i = 0; i < 2; ++i) {
        tier::TierPlan p = tm.plan(Lang::Tcl, "des");
        EXPECT_EQ(p.lang, Lang::Tcl);
        EXPECT_EQ(p.level, 0);
        EXPECT_FALSE(p.promotedRemedy);
    }
    tier::TierPlan remedy = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(remedy.lang, Lang::TclBytecode);
    EXPECT_EQ(remedy.level, 1);
    EXPECT_TRUE(remedy.promotedRemedy);
    EXPECT_FALSE(remedy.promotedTier2);

    // The crossing fires exactly once.
    tier::TierPlan again = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(again.lang, Lang::TclBytecode);
    EXPECT_FALSE(again.promotedRemedy);

    tier::TierPlan t2 = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(t2.lang, Lang::TclTier2);
    EXPECT_EQ(t2.level, 2);
    EXPECT_TRUE(t2.promotedTier2);

    tier::TierManager::Snapshot s = tm.snapshot();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.promotedRemedy, 1u);
    EXPECT_EQ(s.promotedTier2, 1u);
}

TEST(TierManager, PerlTopsOutAtTheCache)
{
    // Perl-ic is both remedy and top tier; the tier-2 threshold folds
    // back to it and promotedTier2 never fires.
    tier::TierManager tm(testConfig(2, 3));
    tm.plan(Lang::Perl, "plexus");
    tier::TierPlan remedy = tm.plan(Lang::Perl, "plexus");
    EXPECT_EQ(remedy.lang, Lang::PerlIC);
    EXPECT_TRUE(remedy.promotedRemedy);
    tier::TierPlan top = tm.plan(Lang::Perl, "plexus");
    EXPECT_EQ(top.lang, Lang::PerlIC);
    EXPECT_EQ(top.level, 1);
    EXPECT_FALSE(top.promotedTier2);
    EXPECT_EQ(tm.snapshot().promotedTier2, 0u);
}

TEST(TierManager, NoLadderForCOrExplicitRemedies)
{
    tier::TierManager tm(testConfig(1, 1));
    // C has no remedy; it never leaves baseline.
    for (int i = 0; i < 4; ++i) {
        tier::TierPlan p = tm.plan(Lang::C, "des");
        EXPECT_EQ(p.lang, Lang::C);
        EXPECT_EQ(p.level, 0);
    }
    // An explicitly-requested remedy mode is honored verbatim — the
    // client asked for it, tiering neither claims nor upgrades it.
    tier::TierPlan p = tm.plan(Lang::TclBytecode, "des");
    EXPECT_EQ(p.lang, Lang::TclBytecode);
    EXPECT_EQ(p.level, 0);
    EXPECT_EQ(tm.snapshot().promotedRemedy, 0u);
}

TEST(TierManager, DisabledIsATotalNoop)
{
    tier::TierConfig cfg = testConfig(1, 1);
    cfg.enabled = false;
    tier::TierManager tm(cfg);
    for (int i = 0; i < 8; ++i) {
        tier::TierPlan p = tm.plan(Lang::Java, "des");
        EXPECT_EQ(p.lang, Lang::Java);
        EXPECT_EQ(p.level, 0);
        EXPECT_FALSE(p.tier.collect);
    }
    EXPECT_EQ(tm.snapshot().entries, 0u);
}

TEST(TierManager, DecayDemandsSustainedHeat)
{
    // decayEvery=4, remedyAfter=4: the 4th invocation reaches 4
    // points and is immediately halved to 2, so the program must keep
    // arriving to cross — deterministically, on the 6th invocation.
    tier::TierConfig cfg = testConfig(4, 100);
    cfg.decayEvery = 4;
    tier::TierManager tm(cfg);
    for (int i = 0; i < 5; ++i) {
        tier::TierPlan p = tm.plan(Lang::Tcl, "hanoi");
        EXPECT_EQ(p.level, 0) << "invocation " << i + 1;
    }
    tier::TierPlan p = tm.plan(Lang::Tcl, "hanoi");
    EXPECT_EQ(p.level, 1);
    EXPECT_TRUE(p.promotedRemedy);
}

TEST(TierManager, CommandsFeedHotnessAsBackedgePoints)
{
    tier::TierConfig cfg = testConfig(5, 100);
    cfg.commandsPerPoint = 100;
    tier::TierManager tm(cfg);
    tier::TierPlan cold = tm.plan(Lang::Tcl, "tcllex");
    EXPECT_EQ(cold.level, 0);
    // 400 commands = 4 points; with the 2nd invocation point the
    // entry reaches the remedy threshold.
    tm.noteRun(Lang::Tcl, "tcllex", 400);
    tier::TierPlan hot = tm.plan(Lang::Tcl, "tcllex");
    EXPECT_EQ(hot.level, 1);
    EXPECT_TRUE(hot.promotedRemedy);
}

TEST(TierManager, ProgramsAreIndependent)
{
    tier::TierManager tm(testConfig(2, 100));
    tm.plan(Lang::Tcl, "des");
    tm.plan(Lang::Tcl, "des");
    tier::TierPlan other = tm.plan(Lang::Tcl, "hanoi");
    EXPECT_EQ(other.level, 0);
    EXPECT_EQ(tm.snapshot().entries, 2u);
    EXPECT_EQ(tm.snapshot().promotedRemedy, 1u);
}

// --- TierManager: jvm artifact builder gating --------------------------

TEST(TierManager, JavaSingleBuilderPerArtifact)
{
    jvm::Module module =
        minic::compileBytecode(microBench(Lang::Java, "a=b+c", 60).source,
                               "a=b+c");
    tier::TierManager tm(testConfig(1, 4));

    // The remedy crossing: Java-quick quickens a private copy of the
    // module in every run, so there is no artifact to build or await,
    // and the requests after it stay at Java-quick.
    tier::TierPlan remedy = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(remedy.lang, Lang::JavaQuick);
    EXPECT_TRUE(remedy.promotedRemedy);
    EXPECT_FALSE(present(remedy.tier.artifact));
    EXPECT_FALSE(remedy.tier.publish);
    for (int i = 0; i < 2; ++i) {
        tier::TierPlan quick = tm.plan(Lang::Java, "micro");
        EXPECT_EQ(quick.lang, Lang::JavaQuick);
        EXPECT_FALSE(present(quick.tier.artifact));
        EXPECT_FALSE(quick.tier.publish);
    }

    // Tier-2 crossing: this request is the designated builder — it
    // gets the publish hook, the entry's merged pair profile and no
    // artifact (it builds in-run).
    jvm::PairProfile collected;
    collected.counts[7] = 123;
    tm.noteRun(Lang::Java, "micro", 0, &collected);
    tier::TierPlan t2b = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(t2b.lang, Lang::JavaTier2);
    EXPECT_TRUE(t2b.promotedTier2);
    EXPECT_FALSE(present(t2b.tier.artifact));
    ASSERT_TRUE(t2b.tier.pairs);
    EXPECT_EQ(t2b.tier.pairs->counts[7], 123u);
    ASSERT_TRUE(t2b.tier.publish);

    // While the build is outstanding, concurrent requests fall back a
    // tier instead of duplicating the build.
    tier::TierPlan t2wait = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(t2wait.lang, Lang::JavaQuick);
    EXPECT_FALSE(present(t2wait.tier.artifact));
    EXPECT_FALSE(t2wait.tier.publish);

    // Publish lands: the next request picks the artifact up.
    trace::Execution exec;
    t2b.tier.publish(
        jvm::buildTierArtifact(exec, module, *t2b.tier.pairs));
    tier::TierPlan t2served = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(t2served.lang, Lang::JavaTier2);
    ASSERT_TRUE(t2served.tier.get<jvm::TierArtifact>());
    EXPECT_GT(t2served.tier.get<jvm::TierArtifact>()->quickened, 0u);
    EXPECT_FALSE(t2served.tier.publish);
    EXPECT_EQ(tm.snapshot().artifactsPublished, 1u);
}

/** The first plan of @p mode under @p cfg builds @p rung. While that
 *  builder lives the rung is taken; once it is dropped unpublished,
 *  the next plan builds again. */
void
expectDroppedBuilderHandsBack(const tier::TierConfig &cfg, Lang mode,
                              Lang rung)
{
    SCOPED_TRACE(langName(rung));
    tier::TierManager tm(cfg);
    {
        tier::TierPlan builder = tm.plan(mode, "des");
        EXPECT_EQ(builder.lang, rung);
        ASSERT_TRUE(builder.tier.publish);
        tier::TierPlan waiting = tm.plan(mode, "des");
        EXPECT_NE(waiting.lang, rung);
        EXPECT_FALSE(waiting.tier.publish);
    }
    tier::TierPlan next = tm.plan(mode, "des");
    EXPECT_EQ(next.lang, rung);
    EXPECT_TRUE(next.tier.publish);
}

TEST(TierManager, DroppedBuilderHandsItsRungBack)
{
    // A builder whose run fails (an error, a deadline) drops its hook
    // without publishing. The rung must not stay claimed, or every
    // later request would run a rung down.
    expectDroppedBuilderHandsBack(testConfig(1, 1), Lang::Java,
                                  Lang::JavaTier2);
    tier::TierConfig jit = testConfig(1, 1);
    jit.jitAfter = 1;
    expectDroppedBuilderHandsBack(jit, Lang::Mipsi, Lang::MipsiJit);
}

// --- TierManager: plan() pinned ----------------------------------------

uint8_t
neverEntered(void *, uint32_t)
{
    return 1;
}

/**
 * One plan() as a token: the mode it runs at and its level, then what
 * it carries: +r/+2/+j the crossing it made, B a publish hook (this
 * request builds the rung's artifact), A an artifact to run with,
 * P<n> a pair snapshot holding n pair counts, C a pair collector.
 */
std::string
planToken(const tier::TierPlan &p)
{
    std::string t =
        std::string(langName(p.lang)) + "/" + std::to_string(p.level);
    if (p.promotedRemedy)
        t += "+r";
    if (p.promotedTier2)
        t += "+2";
    if (p.promotedJit)
        t += "+j";
    if (p.tier.publish)
        t += ",B";
    if (present(p.tier.artifact))
        t += ",A";
    if (p.tier.pairs)
        t += ",P" + std::to_string(p.tier.pairs->total());
    if (p.tier.collect)
        t += ",C";
    return t;
}

/**
 * The whole promotion state machine as text: for three threshold sets
 * and three builder behaviours (publish at once, hold the hook to the
 * end, publish three plans later), seven plans of every baseline and
 * two explicitly requested tiered modes, each followed by the run's
 * noteRun(). One line per (set, behaviour, mode), then the snapshot.
 */
std::string
planTrace()
{
    struct Thresholds
    {
        const char *name;
        uint64_t remedy, tier2, jit, commandsPerPoint, decayEvery;
    };
    const Thresholds kSets[] = {
        {"S1", 1, 2, 3, 1'000'000'000, 1'000'000},
        {"S2", 2, 3, 5, 100, 4},
        {"S3", 3, 2, 1, 1'000'000'000, 1'000'000},
    };
    const char *const kBehaviours[] = {"now", "hold", "later3"};
    const Lang kModes[] = {Lang::C,    Lang::Mipsi,     Lang::Java,
                           Lang::Perl, Lang::Tcl,       Lang::JavaQuick,
                           Lang::MipsiJit};
    constexpr int kRounds = 7;
    constexpr uint64_t kCommands = 150; // 1 point at S2's rate

    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 10).source, "a=b+c");
    trace::Execution exec;
    std::shared_ptr<const jvm::TierArtifact> jvm_art =
        jvm::buildTierArtifact(exec, module, jvm::PairProfile{});
    std::shared_ptr<const jit::JitArtifact> jit_art =
        jit::JitArtifact::build(&neverEntered, 4);
    auto publish = [&](tier::TierPlan &p) {
        p.tier.publish(isJit(p.lang) ? Artifact(jit_art) : jvm_art);
    };

    std::string out;
    for (const Thresholds &s : kSets) {
        for (const char *behaviour : kBehaviours) {
            tier::TierConfig cfg;
            cfg.enabled = true;
            cfg.remedyAfter = s.remedy;
            cfg.tier2After = s.tier2;
            cfg.jitAfter = s.jit;
            cfg.commandsPerPoint = s.commandsPerPoint;
            cfg.decayEvery = s.decayEvery;
            tier::TierManager tm(cfg);
            std::vector<tier::TierPlan> held;
            for (Lang mode : kModes) {
                std::string line = std::string(s.name) + " " +
                                   behaviour + " " + langName(mode) +
                                   ":";
                std::vector<std::pair<int, tier::TierPlan>> later;
                for (int round = 0; round < kRounds; ++round) {
                    tier::TierPlan p = tm.plan(mode, "p");
                    line += " " + planToken(p);
                    if (p.tier.collect)
                        p.tier.collect->counts[1] = 10;
                    tm.noteRun(mode, "p", kCommands, p.tier.collect.get());
                    bool builds = bool(p.tier.publish);
                    if (builds && behaviour == kBehaviours[0])
                        publish(p);
                    else if (builds && behaviour == kBehaviours[1])
                        held.push_back(std::move(p));
                    else if (builds)
                        later.emplace_back(round + 3, std::move(p));
                    for (auto &[due, pending] : later)
                        if (due == round)
                            publish(pending);
                }
                for (auto &entry : later)
                    held.push_back(std::move(entry.second));
                out += line + "\n";
            }
            tier::TierManager::Snapshot snap = tm.snapshot();
            out += std::string(s.name) + " " + behaviour +
                   " snapshot: entries=" + std::to_string(snap.entries) +
                   " remedy=" + std::to_string(snap.promotedRemedy) +
                   " tier2=" + std::to_string(snap.promotedTier2) +
                   " jit=" + std::to_string(snap.promotedJit) +
                   " published=" +
                   std::to_string(snap.artifactsPublished) + "\n";
        }
    }
    return out;
}

/** planTrace() as captured when the pin was set: any change to it is
 *  a change to the tier-up policy, not a refactor. */
const char *const kPinnedPlanTrace = R"(S1 now C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S1 now MIPSI: MIPSI-threaded/1+r MIPSI-threaded/1 MIPSI-jit/3+2+j,B MIPSI-jit/3,A MIPSI-jit/3,A MIPSI-jit/3,A MIPSI-jit/3,A
S1 now Java: Java-quick/1+r Java-tier2/2+2,B,P0 Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A
S1 now Perl: Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S1 now Tcl: Tcl-bytecode/1+r Tcl-tier2/2+2 Tcl-jit/3+j Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S1 now Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S1 now MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S1 now snapshot: entries=5 remedy=4 tier2=3 jit=2 published=2
S1 hold C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S1 hold MIPSI: MIPSI-threaded/1+r MIPSI-threaded/1 MIPSI-jit/3+2+j,B MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1
S1 hold Java: Java-quick/1+r Java-tier2/2+2,B,P0 Java-quick/1 Java-quick/1 Java-quick/1 Java-quick/1 Java-quick/1
S1 hold Perl: Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S1 hold Tcl: Tcl-bytecode/1+r Tcl-tier2/2+2 Tcl-jit/3+j Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S1 hold Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S1 hold MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S1 hold snapshot: entries=5 remedy=4 tier2=3 jit=2 published=0
S1 later3 C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S1 later3 MIPSI: MIPSI-threaded/1+r MIPSI-threaded/1 MIPSI-jit/3+2+j,B MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-jit/3,A
S1 later3 Java: Java-quick/1+r Java-tier2/2+2,B,P0 Java-quick/1 Java-quick/1 Java-quick/1 Java-tier2/2,A Java-tier2/2,A
S1 later3 Perl: Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S1 later3 Tcl: Tcl-bytecode/1+r Tcl-tier2/2+2 Tcl-jit/3+j Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S1 later3 Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S1 later3 MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S1 later3 snapshot: entries=5 remedy=4 tier2=3 jit=2 published=2
S2 now C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S2 now MIPSI: MIPSI/0 MIPSI-threaded/1+r MIPSI-jit/3+2+j,B MIPSI-threaded/1 MIPSI-jit/3,A MIPSI-jit/3,A MIPSI-jit/3,A
S2 now Java: Java/0,C Java-tier2/2+r+2,B,P10 Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A
S2 now Perl: Perl/0 Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S2 now Tcl: Tcl/0 Tcl-tier2/2+r+2 Tcl-jit/3+j Tcl-tier2/2 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S2 now Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S2 now MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S2 now snapshot: entries=5 remedy=4 tier2=3 jit=2 published=2
S2 hold C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S2 hold MIPSI: MIPSI/0 MIPSI-threaded/1+r MIPSI-jit/3+2+j,B MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1
S2 hold Java: Java/0,C Java-tier2/2+r+2,B,P10 Java-quick/1 Java-quick/1 Java-quick/1 Java-quick/1 Java-quick/1
S2 hold Perl: Perl/0 Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S2 hold Tcl: Tcl/0 Tcl-tier2/2+r+2 Tcl-jit/3+j Tcl-tier2/2 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S2 hold Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S2 hold MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S2 hold snapshot: entries=5 remedy=4 tier2=3 jit=2 published=0
S2 later3 C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S2 later3 MIPSI: MIPSI/0 MIPSI-threaded/1+r MIPSI-jit/3+2+j,B MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-jit/3,A
S2 later3 Java: Java/0,C Java-tier2/2+r+2,B,P10 Java-quick/1 Java-quick/1 Java-quick/1 Java-tier2/2,A Java-tier2/2,A
S2 later3 Perl: Perl/0 Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S2 later3 Tcl: Tcl/0 Tcl-tier2/2+r+2 Tcl-jit/3+j Tcl-tier2/2 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S2 later3 Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S2 later3 MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S2 later3 snapshot: entries=5 remedy=4 tier2=3 jit=2 published=2
S3 now C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S3 now MIPSI: MIPSI-jit/3+r+2+j,B MIPSI-jit/3,A MIPSI-jit/3,A MIPSI-jit/3,A MIPSI-jit/3,A MIPSI-jit/3,A MIPSI-jit/3,A
S3 now Java: Java-tier2/2+r+2,B,P0 Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A
S3 now Perl: Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S3 now Tcl: Tcl-jit/3+r+2+j Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S3 now Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S3 now MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S3 now snapshot: entries=5 remedy=4 tier2=3 jit=2 published=2
S3 hold C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S3 hold MIPSI: MIPSI-jit/3+r+2+j,B MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1
S3 hold Java: Java-tier2/2+r+2,B,P0 Java-quick/1 Java-quick/1 Java-quick/1 Java-quick/1 Java-quick/1 Java-quick/1
S3 hold Perl: Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S3 hold Tcl: Tcl-jit/3+r+2+j Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S3 hold Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S3 hold MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S3 hold snapshot: entries=5 remedy=4 tier2=3 jit=2 published=0
S3 later3 C: C/0 C/0 C/0 C/0 C/0 C/0 C/0
S3 later3 MIPSI: MIPSI-jit/3+r+2+j,B MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-threaded/1 MIPSI-jit/3,A MIPSI-jit/3,A MIPSI-jit/3,A
S3 later3 Java: Java-tier2/2+r+2,B,P0 Java-quick/1 Java-quick/1 Java-quick/1 Java-tier2/2,A Java-tier2/2,A Java-tier2/2,A
S3 later3 Perl: Perl-ic/1+r Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1 Perl-ic/1
S3 later3 Tcl: Tcl-jit/3+r+2+j Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3 Tcl-jit/3
S3 later3 Java-quick: Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0 Java-quick/0
S3 later3 MIPSI-jit: MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0 MIPSI-jit/0
S3 later3 snapshot: entries=5 remedy=4 tier2=3 jit=2 published=2
)";

TEST(TierManager, PlanTraceIsPinned)
{
    EXPECT_EQ(planTrace(), kPinnedPlanTrace);
}

// --- jvm artifacts: determinism, immutability, sharing -----------------

jvm::PairProfile
profilePairs(const jvm::Module &module)
{
    trace::Execution exec;
    vfs::FileSystem fs;
    jvm::PairProfile pairs;
    jvm::Vm vm(exec, fs);
    vm.setPairSink(&pairs);
    vm.loadShared(std::make_shared<const jvm::Module>(module));
    vm.run();
    return pairs;
}

TEST(TierArtifact, BuildIsDeterministic)
{
    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 60).source, "a=b+c");
    jvm::PairProfile pairs = profilePairs(module);
    trace::Execution exec;
    auto a = jvm::buildTierArtifact(exec, module, pairs);
    auto b = jvm::buildTierArtifact(exec, module, pairs);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->fusedPairs, b->fusedPairs);
    EXPECT_EQ(a->quickened, b->quickened);
    EXPECT_EQ(a->fuseSites, b->fuseSites);
    EXPECT_EQ(a->icSites, b->icSites);
    EXPECT_EQ(a->fuse, b->fuse);
    EXPECT_EQ(a->ic, b->ic);
    EXPECT_GT(a->quickened, 0u);
    EXPECT_GT(a->fuseSites, 0u);
    EXPECT_GT(a->icSites, 0u);
}

TEST(TierArtifact, SharedModuleInPlaceQuickenIsFatal)
{
    // jvm-quick must never rewrite a *shared* catalog module in
    // place: every run quickens a private copy. Reaching the
    // quickening pass on a shared module is a contained fatal, not a
    // silent mutation.
    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 10).source, "a=b+c");
    trace::Execution exec;
    vfs::FileSystem fs;
    jvm::Vm vm(exec, fs, /*quick=*/true);
    vm.loadShared(std::make_shared<const jvm::Module>(module));
    ScopedFatalThrow guard;
    EXPECT_THROW(vm.run(), FatalError);
}

TEST(TierArtifact, PoisonedCachesFallBackContained)
{
    // Force every inline-cache site to miss: behaviour and non-memory
    // attribution must be unchanged — the fallback is the full
    // resolution sequence, charged to the same memory-model subset.
    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 40).source, "a=b+c");
    jvm::PairProfile pairs = profilePairs(module);
    trace::Execution build;
    auto artifact = jvm::buildTierArtifact(build, module, pairs);

    auto measure = [&](bool poison) {
        struct Out
        {
            trace::Profile profile;
            int exitCode = 0;
        };
        auto out = std::make_unique<Out>();
        trace::Execution exec;
        exec.addSink(&out->profile);
        vfs::FileSystem fs;
        jvm::Vm vm(exec, fs, /*quick=*/true);
        vm.useArtifact(artifact);
        if (poison)
            vm.debugPoisonIc();
        out->exitCode = vm.run();
        exec.flush();
        return out;
    };
    auto hit = measure(false);
    auto miss = measure(true);

    EXPECT_EQ(hit->exitCode, miss->exitCode);
    EXPECT_EQ(hit->profile.commands(), miss->profile.commands());
    EXPECT_EQ(hit->profile.executeInsts() -
                  hit->profile.memModelInsts(),
              miss->profile.executeInsts() -
                  miss->profile.memModelInsts());
    EXPECT_EQ(hit->profile.fetchDecodeInsts(),
              miss->profile.fetchDecodeInsts());
    // Misses pay the full §3.3 sequence; hits are what tier-2 is for.
    EXPECT_LT(hit->profile.memModelInsts(),
              miss->profile.memModelInsts());
}

TEST(TierArtifact, OneArtifactServesManyThreads)
{
    // The concurrency regression for the shared-mutable-program bug:
    // many VMs execute one published artifact at once. Every thread
    // must finish with identical results and identical attribution —
    // and under the san preset, with no object-lifetime violations.
    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 40).source, "a=b+c");
    jvm::PairProfile pairs = profilePairs(module);
    trace::Execution build;
    auto artifact = jvm::buildTierArtifact(build, module, pairs);

    constexpr int kThreads = 4;
    struct Out
    {
        uint64_t commands = 0;
        int exitCode = -1;
        uint64_t execute = 0;
        uint64_t memModel = 0;
    };
    std::vector<Out> outs(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            trace::Profile profile;
            trace::Execution exec;
            exec.addSink(&profile);
            vfs::FileSystem fs;
            jvm::Vm vm(exec, fs, /*quick=*/true);
            vm.useArtifact(artifact);
            outs[t].exitCode = vm.run();
            exec.flush();
            outs[t].commands = exec.commands();
            outs[t].execute = profile.executeInsts();
            outs[t].memModel = profile.memModelInsts();
        });
    for (std::thread &t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(outs[t].commands, outs[0].commands) << "thread " << t;
        EXPECT_EQ(outs[t].exitCode, outs[0].exitCode) << "thread " << t;
        EXPECT_EQ(outs[t].execute, outs[0].execute) << "thread " << t;
        EXPECT_EQ(outs[t].memModel, outs[0].memModel)
            << "thread " << t;
    }
}

} // namespace
