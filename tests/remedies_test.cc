/**
 * @file
 * The tier contract (harness/contract.hh) on the whole ladder: one
 * counting-only sweep runs every macro program in its baseline and in
 * each distinct rung of its ladder (§5 remedies, tier 2, jit) and
 * checks every rung against its baseline and each language's tier-2
 * and tier-3 totals; micro goldens check each §5 remedy. Also
 * covers the code-mutation guards (a remedy that would rewrite code
 * after its first execution must fatal, containably), the
 * record/replay composition of the remedy modes and the
 * BENCH_remedies.json framing.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/contract.hh"
#include "harness/parallel.hh"
#include "harness/record_replay.hh"
#include "harness/remedies_json.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "jvm/vm.hh"
#include "minic/compile.hh"
#include "mips/asm_builder.hh"
#include "mipsi/mipsi.hh"
#include "mipsi/threaded.hh"
#include "support/logging.hh"
#include "tclish/interp.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"

namespace {

using namespace interp;
using namespace interp::harness;

/** @p base_spec and its §5 remedy hold the tier-1 contract. */
void
expectGoldenPair(const BenchSpec &base_spec)
{
    BenchSpec rem_spec = base_spec;
    rem_spec.lang = modeAtTier(base_spec.lang, 1);
    ASSERT_NE(rem_spec.lang, base_spec.lang) << "spec has no remedy";
    for (const std::string &clause :
         contractBreaks(run(base_spec), run(rem_spec)))
        ADD_FAILURE() << clause;
}

// --- the tier contract on the whole ladder -----------------------------

TEST(Remedies, MacroLadderSweep)
{
    // bench_remedies' rows, counting only, on one job per hardware
    // thread (runSuite is bit-identical to serial runs).
    std::vector<BenchSpec> specs = ladderSuite(macroSuite());
    SuiteOptions opt;
    opt.jobs = 0;
    opt.withMachine = false;
    std::vector<Measurement> rows = runSuite(specs, opt);
    ASSERT_EQ(rows.size(), specs.size());
    const Measurement *base = nullptr;
    size_t rungs = 0;
    for (const Measurement &row : rows) {
        // One count per run: the Execution's, which feeds the profile.
        EXPECT_EQ(row.commands, row.profile.commands())
            << langName(row.lang) << "/" << row.name;
        if (!isRemedy(row.lang)) {
            base = &row;
            continue;
        }
        ++rungs;
        for (const std::string &clause : contractBreaks(*base, row))
            ADD_FAILURE() << langName(row.lang) << "/" << row.name << ": "
                          << clause;
    }
    EXPECT_GT(rungs, 0u);
    for (const std::string &clause : ladderTotalsBreaks(rows))
        ADD_FAILURE() << clause;
}

// --- golden equivalence: micro workloads -------------------------------

TEST(Remedies, MipsiThreadedGoldenMicro)
{
    expectGoldenPair(microBench(Lang::Mipsi, "a=b+c", 60));
    expectGoldenPair(microBench(Lang::Mipsi, "string-split", 40));
}

TEST(Remedies, JavaQuickGoldenMicro)
{
    expectGoldenPair(microBench(Lang::Java, "a=b+c", 60));
    expectGoldenPair(microBench(Lang::Java, "string-split", 40));
}

TEST(Remedies, TclBytecodeGoldenMicro)
{
    expectGoldenPair(microBench(Lang::Tcl, "a=b+c", 60));
    expectGoldenPair(microBench(Lang::Tcl, "if", 30));
}

// --- record/replay composition -----------------------------------------

void
roundTrip(BenchSpec spec)
{
    std::string dir =
        ::testing::TempDir() + "/interp_remedies_" + traceFileName(spec);
    TraceIo record;
    record.recordDir = dir;
    TraceIo replay;
    replay.replayDir = dir;
    Measurement live = runOrReplay(spec, record);
    Measurement tape = runOrReplay(spec, replay);
    EXPECT_EQ(live.commands, tape.commands);
    EXPECT_EQ(live.cycles, tape.cycles);
    EXPECT_EQ(live.profile.instructions(), tape.profile.instructions());
    EXPECT_EQ(live.profile.fetchDecodeInsts(),
              tape.profile.fetchDecodeInsts());
    EXPECT_EQ(live.profile.executeInsts(), tape.profile.executeInsts());
    EXPECT_EQ(live.profile.precompileInsts(),
              tape.profile.precompileInsts());
    const auto &lc = live.profile.perCommand();
    const auto &tc = tape.profile.perCommand();
    ASSERT_EQ(lc.size(), tc.size());
    for (size_t i = 0; i < lc.size(); ++i) {
        EXPECT_EQ(lc[i].retired, tc[i].retired) << "command " << i;
        EXPECT_EQ(lc[i].fetchDecode, tc[i].fetchDecode)
            << "command " << i;
        EXPECT_EQ(lc[i].execute, tc[i].execute) << "command " << i;
    }
}

TEST(Remedies, MipsiThreadedRecordReplay)
{
    roundTrip(microBench(Lang::MipsiThreaded, "a=b+c", 60));
}

TEST(Remedies, JavaQuickRecordReplay)
{
    roundTrip(microBench(Lang::JavaQuick, "string-split", 40));
}

TEST(Remedies, TclBytecodeRecordReplay)
{
    roundTrip(microBench(Lang::TclBytecode, "if", 30));
}

// --- mode metadata ------------------------------------------------------

TEST(Remedies, BaselineOfAndIsRemedy)
{
    EXPECT_EQ(modeInfo(Lang::MipsiThreaded).baseline, Lang::Mipsi);
    EXPECT_EQ(modeInfo(Lang::JavaQuick).baseline, Lang::Java);
    EXPECT_EQ(modeInfo(Lang::TclBytecode).baseline, Lang::Tcl);
    EXPECT_EQ(modeInfo(Lang::Perl).baseline, Lang::Perl);
    EXPECT_EQ(modeInfo(Lang::C).baseline, Lang::C);
    EXPECT_TRUE(isRemedy(Lang::MipsiThreaded));
    EXPECT_TRUE(isRemedy(Lang::JavaQuick));
    EXPECT_TRUE(isRemedy(Lang::TclBytecode));
    EXPECT_FALSE(isRemedy(Lang::Mipsi));
    EXPECT_FALSE(isRemedy(Lang::C));
}

TEST(Remedies, WithModesExpandsSuites)
{
    std::vector<BenchSpec> suite = macroSuite();
    std::vector<BenchSpec> base = withModes(suite, ModeSet::Baseline);
    ASSERT_EQ(base.size(), suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(base[i].lang, suite[i].lang);
        EXPECT_EQ(base[i].name, suite[i].name);
    }
    std::vector<BenchSpec> rems = withModes(suite, ModeSet::Remedies);
    for (const BenchSpec &spec : rems)
        EXPECT_TRUE(isRemedy(spec.lang)) << spec.name;
    std::vector<BenchSpec> all = withModes(suite, ModeSet::All);
    EXPECT_EQ(all.size(), suite.size() + rems.size());
}

// --- interp-remedies-v1 document ----------------------------------------

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

TEST(RemediesJson, WritingEveryRowBackKeepsTheCheckedInBytes)
{
    // Every row of the checked-in document, the multi-line tier-1
    // rows included, written back: the writer's framing must
    // reproduce every byte.
    std::string original =
        readFile(std::string(INTERP_PROGRAMS_DIR) + "/../BENCH_remedies.json");
    ASSERT_NE(original.find("interp-remedies-v1"), std::string::npos);
    std::vector<std::string> rows;
    std::istringstream lines(original);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("    {", 0) == 0)
            rows.push_back(line.substr(4));
        else if (line.rfind("     ", 0) == 0 && !rows.empty())
            rows.back() += "\n" + line;
    }
    for (std::string &row : rows)
        if (row.back() == ',')
            row.pop_back();
    size_t objects = 0;
    for (size_t at = 0; (at = original.find("{\"baseline_lang\"", at)) !=
                        std::string::npos;
         ++at)
        ++objects;
    ASSERT_EQ(rows.size(), objects) << "one row per pair, all tiers";

    std::string path = testing::TempDir() + "remedies_checked_in.json";
    ASSERT_TRUE(writeRemediesJson(path, rows));
    EXPECT_EQ(readFile(path), original);
    std::remove(path.c_str());
}

// --- code-mutation guards ----------------------------------------------

TEST(Remedies, JvmRequickeningIsFatal)
{
    trace::Execution exec;
    vfs::FileSystem fs;
    jvm::Vm vm(exec, fs, /*quick=*/true);
    auto module = minic::compileBytecode(
        "int main() { int x = 1; return x; }");
    vm.load(module);
    vm.debugQuicken(0, 0);
    ScopedFatalThrow contain;
    EXPECT_THROW(vm.debugQuicken(0, 0), FatalError)
        << "rewriting an already-quickened bytecode must fatal";
}

TEST(Remedies, TclInvalidatingExecutedScriptIsFatal)
{
    trace::Execution exec;
    vfs::FileSystem fs;
    tclish::TclInterp interp(exec, fs, /*bytecode=*/true);
    const std::string script = "set x 7\nputs $x\n";
    exec.setCommandBudget(1'000'000);
    interp.run(script);
    EXPECT_EQ(fs.stdoutCapture(), "7\n");
    interp.debugInvalidate("never compiled"); // unknown script: no-op
    ScopedFatalThrow contain;
    EXPECT_THROW(interp.debugInvalidate(script), FatalError)
        << "invalidating an executed compiled script must fatal";
}

TEST(Remedies, MipsiThreadedStoreToTextIsFatal)
{
    using namespace interp::mips;
    // Discover the text base with a throwaway link, then build the
    // real program: store a word over its own text segment.
    uint32_t text_base;
    {
        AsmBuilder probe;
        probe.li(V0, SYS_EXIT);
        probe.syscall();
        text_base = probe.link().textBase;
    }
    AsmBuilder b;
    b.la(T0, text_base);
    Inst sw;
    sw.op = Op::Sw;
    sw.rs = T0;
    sw.rt = ZERO;
    sw.imm = 0;
    b.emit(sw);
    b.li(V0, SYS_EXIT);
    b.syscall();
    Image img = b.link();
    ASSERT_EQ(img.textBase, text_base);

    {
        // The switch core permits self-modifying code.
        trace::Execution exec;
        vfs::FileSystem fs;
        mipsi::Mipsi vm(exec, fs);
        vm.load(img);
        exec.setCommandBudget(1'000'000);
        vm.run();
    }
    {
        // The threaded core must refuse: its predecoded entries would
        // go stale.
        trace::Execution exec;
        vfs::FileSystem fs;
        mipsi::ThreadedMipsi vm(exec, fs);
        vm.load(img);
        exec.setCommandBudget(1'000'000);
        ScopedFatalThrow contain;
        EXPECT_THROW(vm.run(), FatalError);
    }
}

TEST(Remedies, MipsiThreadedPcOutsideTextIsFatal)
{
    using namespace interp::mips;
    AsmBuilder b;
    b.la(T0, 0x7000'0000); // far outside the text segment
    Inst jr;
    jr.op = Op::Jr;
    jr.rs = T0;
    b.emit(jr);
    Inst nop; // delay slot
    nop.op = Op::Sll;
    b.emit(nop);
    b.li(V0, SYS_EXIT);
    b.syscall();
    trace::Execution exec;
    vfs::FileSystem fs;
    mipsi::ThreadedMipsi vm(exec, fs);
    vm.load(b.link());
    exec.setCommandBudget(1'000'000);
    ScopedFatalThrow contain;
    EXPECT_THROW(vm.run(), FatalError)
        << "jumping outside the predecoded text must fatal";
}

} // namespace
