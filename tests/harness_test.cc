/**
 * @file
 * Tests for the benchmark harness: workload generators, the runner,
 * the micro/macro suites, and cross-mode output agreement.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "support/logging.hh"
#include "trace/execution.hh"

namespace {

using namespace interp;
using namespace interp::harness;

// --- workload generators -----------------------------------------------

TEST(Workloads, Deterministic)
{
    EXPECT_EQ(compressInput(3000), compressInput(3000));
    EXPECT_EQ(txt2htmlInput(50), txt2htmlInput(50));
    EXPECT_EQ(plexusInput(10), plexusInput(10));
    EXPECT_EQ(cc1Input(20), cc1Input(20));
}

TEST(Workloads, SizesScale)
{
    EXPECT_GT(compressInput(8000).size(), 7900u);
    EXPECT_LT(compressInput(1000).size(), 1200u);
    EXPECT_GT(weblintInput(200).size(), weblintInput(20).size());
}

TEST(Workloads, ReadFileIsExactly4K)
{
    EXPECT_EQ(readFileInput().size(), 4096u);
}

TEST(Workloads, InstallPutsAllFiles)
{
    // Built once per process, the inputs reach every file system whole.
    vfs::FileSystem fs, again;
    installAllInputs(fs);
    installAllInputs(again);
    for (const char *name :
         {"compress.in", "cc1.in", "javac.in", "txt2html.in",
          "weblint.in", "a2ps.in", "requests.in", "tcllex.in",
          "tcltags.in", "read4k.in", "rxmatch.in", "spin.sel",
          "mat.sel"}) {
        ASSERT_TRUE(fs.exists(name)) << name;
        EXPECT_EQ(fs.readFile(name), again.readFile(name)) << name;
    }
    EXPECT_EQ(fs.readFile("read4k.in"), readFileInput());
    EXPECT_EQ(fs.list(), again.list());
}

TEST(Workloads, PlexusInputIsHttpShaped)
{
    std::string log = plexusInput(5);
    EXPECT_NE(log.find("GET "), std::string::npos);
    EXPECT_NE(log.find("HTTP/1.0"), std::string::npos);
    EXPECT_NE(log.find("User-Agent: "), std::string::npos);
}

// --- runner ------------------------------------------------------------

TEST(Runner, LangNames)
{
    EXPECT_STREQ(langName(Lang::C), "C");
    EXPECT_STREQ(langName(Lang::Mipsi), "MIPSI");
    EXPECT_STREQ(langName(Lang::Java), "Java");
    EXPECT_STREQ(langName(Lang::Perl), "Perl");
    EXPECT_STREQ(langName(Lang::Tcl), "Tcl");
}

TEST(Runner, MacroSuiteShape)
{
    auto suite = macroSuite();
    ASSERT_EQ(suite.size(), 37u)
        << "1 C + 11 MIPSI + 9 Java + 8 Perl + 8 Tcl";
    int des_count = 0;
    for (const auto &spec : suite) {
        EXPECT_FALSE(spec.source.empty()) << spec.name;
        if (spec.name == "des")
            ++des_count;
    }
    EXPECT_EQ(des_count, 5) << "des is the common reference point";

    // The legacy Table 2 rows keep their historical positions: the
    // registry's order keys preserve the pre-registry suite prefix.
    EXPECT_EQ(suite[0].name, "des");
    EXPECT_EQ(suite[0].lang, Lang::C);
    EXPECT_EQ(suite[1].name, "des");
    EXPECT_EQ(suite[1].lang, Lang::Mipsi);
    EXPECT_EQ(suite[2].name, "compress");
}

TEST(Runner, MeasurementFieldsPopulated)
{
    BenchSpec spec;
    spec.lang = Lang::Perl;
    spec.name = "tiny";
    spec.source = "$x = 2 + 3; print \"$x\";";
    Measurement m = run(spec);
    EXPECT_TRUE(m.finished);
    EXPECT_EQ(m.stdoutText, "5");
    EXPECT_GT(m.commands, 0u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.profile.instructions(), 0u);
    EXPECT_GT(m.breakdown.busyPct, 0.0);
    EXPECT_FALSE(m.commandNames.empty());
    EXPECT_GT(m.programBytes, 0u);
}

TEST(Runner, BudgetStopsRunaway)
{
    BenchSpec spec;
    spec.lang = Lang::Tcl;
    spec.name = "forever";
    spec.source = "while {1} { set x 1 }";
    spec.maxCommands = 2000;
    Measurement m = run(spec, {}, nullptr, false);
    EXPECT_FALSE(m.finished);
    EXPECT_EQ(m.commands, 2000u);
}

TEST(Runner, ListOpsInScalarContextRetireOnce)
{
    // A Perl list op in scalar context (split, keys, a range) goes
    // through its list-context evaluation, which must not retire the
    // op a second time: the run's count and the profile's agree.
    struct Case
    {
        const char *source;
        uint64_t commands;
    };
    const Case cases[] = {
        {"$n = split(/,/, \"a,b,c\");", 4},
        {"$h{\"a\"} = 1; $n = keys(%h);", 7},
        {"$n = (1..3);", 5},
    };
    for (Lang lang : {Lang::Perl, Lang::PerlIC}) {
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(langName(lang)) + ": " + c.source);
            BenchSpec spec;
            spec.lang = lang;
            spec.name = "scalar-list";
            spec.source = c.source;
            Measurement m = run(spec, {}, nullptr, false);
            EXPECT_TRUE(m.finished);
            EXPECT_EQ(m.commands, c.commands);
            EXPECT_EQ(m.profile.commands(), c.commands);
        }
    }
}

TEST(Runner, SinkExceptionReachesTheCaller)
{
    // A sink may abort a run from a delivery. The unwind leaves
    // routine scopes that emit their returns, hundreds of them under
    // a deep Tcl recursion; the aborting run must hand none of them
    // to the sink that threw, or it throws again from a destructor.
    // The last batch of a finished run is delivered by the engine
    // once the interpreter has returned; a throw there fails the run
    // too.
    struct Abort
    {
    };
    struct AbortingSink : trace::Sink
    {
        explicit AbortingSink(uint64_t first) : first(first) {}
        void
        onBatch(const trace::BundleBatch &) override
        {
            ++tail;
            if (++batches >= first)
                throw Abort{};
        }
        void onCommand(trace::CommandId) override { tail = 0; }
        uint64_t first;
        uint64_t batches = 0;
        uint64_t tail = 0; ///< batches since the last command
    };
    BenchSpec tier2;
    for (BenchSpec &s : macroSuite())
        if (s.lang == Lang::Java && s.name == "des")
            tier2 = s;
    tier2.lang = Lang::JavaTier2;
    BenchSpec deep;
    deep.lang = Lang::Tcl;
    deep.name = "deep";
    deep.source = "proc f {n} {if {$n > 0} {f [expr {$n-1}]} else "
                  "{set i 0; while {$i < 10000000} {incr i}}}; f 140";
    deep.maxCommands = 1'000'000;
    BenchSpec tiny;
    tiny.lang = Lang::C;
    tiny.name = "tiny";
    tiny.source = "int main() { print_int(7); return 0; }";
    AbortingSink counter(UINT64_MAX);
    EXPECT_TRUE(run(tiny, {&counter}, nullptr, false).finished);
    // The exit syscall's work follows the last command, so the run's
    // last batch is the tail the engine delivers.
    ASSERT_EQ(counter.tail, 1u);
    const std::pair<BenchSpec, uint64_t> inputs[] = {
        {tier2, 1}, {deep, 5000}, {tiny, counter.batches}};
    for (const auto &[spec, first] : inputs) {
        SCOPED_TRACE(spec.name);
        AbortingSink sink(first);
        ScopedFatalThrow contain;
        EXPECT_THROW(run(spec, {&sink}, nullptr, false), Abort);
        EXPECT_EQ(sink.batches, first);
    }
}

TEST(Runner, DeadlineBoundsTheTierTwoProfilingRun)
{
    // Java-tier2 without a published artifact profiles the program in
    // an unmeasured pre-run on its own Execution; the run's deadline
    // stops that pre-run too, long before its command budget would.
    BenchSpec spec;
    spec.lang = Lang::JavaTier2;
    spec.name = "forever";
    spec.source = "int main() { int i = 0; while (1) { i += 1; } return 0; }";
    auto start = std::chrono::steady_clock::now();
    spec.deadline = start + std::chrono::milliseconds(50);
    EXPECT_THROW(run(spec, {}, nullptr, false), trace::DeadlineExpired);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
}

TEST(Runner, TooManyCommandNamesFailTheRunNotTheProcess)
{
    // Untrusted Tcl can name more commands than a CommandId numbers:
    // the 65,536th distinct name fails the run with a FatalError,
    // which interpd answers as an ERROR, instead of aborting.
    BenchSpec spec;
    spec.lang = Lang::Tcl;
    spec.name = "names";
    spec.source = "for {set i 0} {$i < 70000} {incr i} "
                  "{ proc p$i {} {} ; p$i }";
    ScopedFatalThrow contain;
    try {
        run(spec, {}, nullptr, false);
        ADD_FAILURE() << "the run finished";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("distinct command names"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Runner, MachineConfigOverride)
{
    BenchSpec spec = microBench(Lang::Tcl, "a=b+c", 60);
    Measurement base = run(spec);
    sim::MachineConfig big;
    big.icache.sizeBytes = 64 * 1024;
    big.icache.assoc = 4;
    Measurement wide = run(spec, {}, &big);
    EXPECT_LT(wide.cycles, base.cycles)
        << "a big I$ must help a Tcl workload";
}

/** Every counter of two profiles, per command included. */
void
expectSameProfile(const trace::Profile &a, const trace::Profile &b)
{
    EXPECT_EQ(a.commands(), b.commands());
    EXPECT_EQ(a.instructions(), b.instructions());
    EXPECT_EQ(a.fetchDecodeInsts(), b.fetchDecodeInsts());
    EXPECT_EQ(a.executeInsts(), b.executeInsts());
    EXPECT_EQ(a.precompileInsts(), b.precompileInsts());
    EXPECT_EQ(a.nativeLibInsts(), b.nativeLibInsts());
    EXPECT_EQ(a.memModelInsts(), b.memModelInsts());
    EXPECT_EQ(a.systemInsts(), b.systemInsts());
    EXPECT_EQ(a.memModelAccesses(), b.memModelAccesses());
    ASSERT_EQ(a.perCommand().size(), b.perCommand().size());
    for (size_t i = 0; i < a.perCommand().size(); ++i) {
        const trace::CommandStats &x = a.perCommand()[i];
        const trace::CommandStats &y = b.perCommand()[i];
        EXPECT_EQ(x.retired, y.retired) << "command " << i;
        EXPECT_EQ(x.fetchDecode, y.fetchDecode) << "command " << i;
        EXPECT_EQ(x.execute, y.execute) << "command " << i;
        EXPECT_EQ(x.nativeLib, y.nativeLib) << "command " << i;
        EXPECT_EQ(x.memModel, y.memModel) << "command " << i;
    }
}

TEST(Runner, SourceCountedProfileMatchesBatchedProfile)
{
    // run() counts its profile at the source; a Profile passed as an
    // extra sink is fed the same stream as batches. The two must agree
    // on every macro row under every rung of its ladder, with and
    // without the machine, each stopped by a budget of 20,000 commands
    // or finished before it. A plain counting-only run, with no batch
    // sink at all, must count the same too: only there do the charge
    // helpers add their loops' closed-form totals.
    std::vector<BenchSpec> ladder = ladderSuite(macroSuite());
    size_t compared = 0;
    for (BenchSpec &spec : ladder) {
        spec.maxCommands = 20'000;
        const std::string row =
            std::string(langName(spec.lang)) + "/" + spec.name;
        Measurement counted = run(spec, {}, nullptr, false);
        for (bool machine : {false, true}) {
            SCOPED_TRACE(row + (machine ? " with machine" : " counting"));
            trace::Profile batched;
            Measurement m = run(spec, {&batched}, nullptr, machine);
            expectSameProfile(m.profile, batched);
            {
                SCOPED_TRACE("counting-only run");
                EXPECT_EQ(counted.commands, m.commands);
                expectSameProfile(counted.profile, batched);
            }
            ++compared;
        }
    }
    EXPECT_EQ(compared, 2 * ladder.size());
}

TEST(Runner, BudgetStopUnderDeepRecursionEndsTheStreamOnce)
{
    // A 3,000-command budget stops a 140-deep Tcl recursion inside its
    // innermost loop. The stream ends where the budget ran out, before
    // the unwind leaves the routine scopes, so the profile counted at
    // the source, a batch Profile and a batch sink agree on every
    // instruction with the machine attached, and a second run is the
    // same.
    struct CountingSink : trace::Sink
    {
        void
        onBatch(const trace::BundleBatch &batch) override
        {
            for (const trace::Bundle &b : batch)
                insts += b.count;
        }
        uint64_t insts = 0;
    };
    BenchSpec spec;
    spec.lang = Lang::Tcl;
    spec.name = "deep";
    spec.source = "proc f {n} {if {$n > 0} {f [expr {$n-1}]} else "
                  "{set i 0; while {$i < 10000000} {incr i}}}; f 140";
    spec.maxCommands = 3000;
    auto stopped = [&spec] {
        CountingSink sink;
        trace::Profile batched;
        Measurement m = run(spec, {&sink, &batched});
        EXPECT_FALSE(m.finished);
        EXPECT_EQ(m.commands, spec.maxCommands);
        EXPECT_EQ(m.profile.instructions(), sink.insts);
        expectSameProfile(m.profile, batched);
        return m;
    };
    Measurement first = stopped();
    Measurement second = stopped();
    EXPECT_EQ(first.cycles, second.cycles);
    expectSameProfile(first.profile, second.profile);
}

TEST(Runner, BudgetsAreExactWhenCommandsNest)
{
    // A command can retire other commands before it retires itself: a
    // Tcl bracket substitution in one of its words, a Perl list that
    // flattens arrays. The budget is checked where each command
    // retires, in every mode, so every budget stops the run on exactly
    // that many commands, in the run's count and in the profile's.
    struct Case
    {
        Lang lang;
        const char *source;
        uint64_t from, to; ///< budgets [from, to)
    };
    const char *tcl =
        "set i 0; while {1} {set x [expr {[incr i] + [incr i]}]}";
    const char *perl = "@a = (1,2,3); while (1) { @b = (@a, @a); $n = @b; }";
    const char *minic =
        "int main() { int i = 0; while (1) { i = i + 1; } return 0; }";
    const Case cases[] = {
        {Lang::Tcl, tcl, 1000, 1012},
        {Lang::TclBytecode, tcl, 1000, 1012},
        {Lang::TclTier2, tcl, 1000, 1012},
        {Lang::TclJit, tcl, 1000, 1012},
        {Lang::Perl, perl, 1000, 1400},
        {Lang::PerlIC, perl, 1000, 1400},
        {Lang::C, minic, 1000, 1012},
        {Lang::Mipsi, minic, 1000, 1012},
        {Lang::MipsiThreaded, minic, 1000, 1012},
        {Lang::MipsiJit, minic, 1000, 1012},
        {Lang::Java, minic, 1000, 1012},
        {Lang::JavaQuick, minic, 1000, 1012},
        {Lang::JavaTier2, minic, 1000, 1012},
    };
    for (const Case &c : cases) {
        BenchSpec spec;
        spec.lang = c.lang;
        spec.name = "nested";
        spec.source = c.source;
        for (uint64_t budget = c.from; budget < c.to; ++budget) {
            SCOPED_TRACE(std::string(langName(c.lang)) + " budget " +
                         std::to_string(budget));
            spec.maxCommands = budget;
            Measurement m = run(spec, {}, nullptr, false);
            EXPECT_FALSE(m.finished);
            EXPECT_EQ(m.commands, budget);
            EXPECT_EQ(m.profile.commands(), budget);
        }
    }
}

// --- micro suite -------------------------------------------------------

TEST(Micro, AllOpsRunInAllLanguages)
{
    for (const std::string &op : microOps()) {
        for (Lang lang : {Lang::C, Lang::Mipsi, Lang::Java, Lang::Perl,
                          Lang::Tcl}) {
            BenchSpec spec = microBench(lang, op, 3);
            Measurement m = run(spec, {}, nullptr, false);
            EXPECT_TRUE(m.finished)
                << op << " in " << langName(lang);
            EXPECT_GT(m.commands, 0u) << op << " " << langName(lang);
        }
    }
}

TEST(Micro, ComputeSlowdownOrdering)
{
    // Table 1's compute rows: Tcl >> Perl > MIPSI-or-Java, all >> 1.
    auto per_iter = [](Lang lang) {
        int iters = lang == Lang::Tcl ? 50 : 300;
        Measurement m = run(microBench(lang, "a=b+c", iters));
        return (double)m.cycles / iters;
    };
    double c = per_iter(Lang::C);
    double mipsi = per_iter(Lang::Mipsi);
    double java = per_iter(Lang::Java);
    double perl = per_iter(Lang::Perl);
    double tcl = per_iter(Lang::Tcl);
    EXPECT_GT(mipsi / c, 20.0);
    EXPECT_GT(perl / c, mipsi / c) << "Perl above MIPSI (paper: 770 vs "
                                      "260)";
    EXPECT_GT(tcl / c, 3.0 * (perl / c))
        << "Tcl is the extreme (paper: 6500 vs Perl's 770)";
    EXPECT_GT(java / c, 5.0);
    EXPECT_LT(java / c, mipsi / c) << "Java below MIPSI (paper: 96 vs "
                                      "260)";
}

TEST(Micro, StringOpsInvertTheOrdering)
{
    // Table 1's headline: Perl/Tcl string facilities live in native
    // runtime libraries, so their slowdowns drop below MIPSI/Java.
    auto slowdown = [](Lang lang, const char *op) {
        int iters = lang == Lang::Tcl ? 40 : (lang == Lang::C ? 600
                                                              : 150);
        Measurement m = run(microBench(lang, op, iters));
        return (double)m.cycles / iters;
    };
    double c = slowdown(Lang::C, "string-concat");
    double mipsi = slowdown(Lang::Mipsi, "string-concat") / c;
    double perl = slowdown(Lang::Perl, "string-concat") / c;
    double tcl = slowdown(Lang::Tcl, "string-concat") / c;
    EXPECT_LT(perl, mipsi) << "Perl concat beats MIPSI (19 vs 186)";
    EXPECT_LT(tcl, mipsi) << "Tcl concat beats MIPSI (78 vs 186)";
}

TEST(Micro, ReadIsBarelySlowed)
{
    // Table 1's read row: computation happens in precompiled (kernel)
    // code, so every interpreter's slowdown is small.
    auto per_iter = [](Lang lang) {
        int iters = 25;
        Measurement m = run(microBench(lang, "read", iters));
        return (double)m.cycles / iters;
    };
    double c = per_iter(Lang::C);
    for (Lang lang : {Lang::Mipsi, Lang::Java, Lang::Perl, Lang::Tcl}) {
        double ratio = per_iter(lang) / c;
        EXPECT_LT(ratio, 25.0) << langName(lang);
    }
    EXPECT_GT(per_iter(Lang::Tcl) / c, per_iter(Lang::Java) / c)
        << "Tcl still pays the most for I/O (paper: 15 vs 4.6)";
}

} // namespace
