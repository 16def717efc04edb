/**
 * @file
 * Paper-shape regression tests: the architectural claims of §4,
 * checked on compact workloads so the suite stays fast. These guard
 * the calibration — if a cost-model change breaks a headline result
 * of the paper, a test here fails.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/runner.hh"
#include "workloads/registry.hh"
#include "sim/cache_sweep.hh"

namespace {

using namespace interp;
using namespace interp::harness;

Measurement
runNamed(Lang lang, const std::string &name, uint64_t budget = 60'000'000)
{
    for (BenchSpec spec : macroSuite()) {
        if (spec.lang == lang && spec.name == name) {
            spec.maxCommands = budget;
            return run(spec);
        }
    }
    ADD_FAILURE() << "no such benchmark " << name;
    return {};
}

TEST(Shapes, InterpreterDominatesApplication)
{
    // Figure 3's central claim: an interpreter's profile is nearly the
    // same whatever it runs. Compare busy% across MIPSI benchmarks
    // against the spread across the native versions of the same
    // programs.
    std::vector<std::string> programs = {"des", "compress", "eqntott"};
    std::vector<double> native_busy, mipsi_busy;
    for (const auto &name : programs) {
        BenchSpec spec;
        spec.lang = Lang::C;
        spec.name = name;
        spec.source = workloads::loadProgramFile("minic/" + name + ".mc");
        spec.needsInputs = true;
        spec.maxCommands = 40'000'000;
        native_busy.push_back(run(spec).breakdown.busyPct);
        mipsi_busy.push_back(
            runNamed(Lang::Mipsi, name, 3'000'000).breakdown.busyPct);
    }
    auto spread = [](const std::vector<double> &v) {
        double lo = v[0], hi = v[0];
        for (double x : v) {
            lo = std::min(lo, x);
            hi = std::max(hi, x);
        }
        return hi - lo;
    };
    EXPECT_LT(spread(mipsi_busy), 6.0)
        << "interpreted profiles are uniform";
    EXPECT_LT(spread(mipsi_busy), spread(native_busy))
        << "interpretation dilutes application-specific behaviour";
}

TEST(Shapes, ICacheSplitsLowFromHighLevelVMs)
{
    // §4.1: MIPSI (low-level VM) barely misses the 8K i-cache; Tcl
    // (high-level VM) loses a large slot share to imiss.
    double mipsi_imiss =
        runNamed(Lang::Mipsi, "des", 2'000'000)
            .breakdown.stallPct[(int)sim::StallCause::Imiss];
    double tcl_imiss =
        runNamed(Lang::Tcl, "des")
            .breakdown.stallPct[(int)sim::StallCause::Imiss];
    double perl_imiss =
        runNamed(Lang::Perl, "des")
            .breakdown.stallPct[(int)sim::StallCause::Imiss];
    EXPECT_LT(mipsi_imiss, 3.0);
    EXPECT_GT(tcl_imiss, 10.0);
    EXPECT_GT(perl_imiss, 10.0);
}

TEST(Shapes, CompressDtlbInversion)
{
    // §4.1: native compress thrashes the 32-entry dTLB; interpreted by
    // MIPSI, dTLB misses become inconsequential.
    BenchSpec native;
    native.lang = Lang::C;
    native.name = "compress";
    native.source = workloads::loadProgramFile("minic/compress.mc");
    native.needsInputs = true;
    double native_dtlb =
        run(native).breakdown.stallPct[(int)sim::StallCause::Dtlb];
    double mipsi_dtlb =
        runNamed(Lang::Mipsi, "compress", 3'000'000)
            .breakdown.stallPct[(int)sim::StallCause::Dtlb];
    EXPECT_GT(native_dtlb, 4.0);
    EXPECT_LT(mipsi_dtlb, 1.0);
}

TEST(Shapes, JavaGraphicsProgramsLookLikeHighLevelVMs)
{
    // §4.1: Java programs that live in native graphics libraries
    // (hanoi) lose their interpreter-like i-cache behaviour.
    double plain =
        runNamed(Lang::Java, "des")
            .breakdown.stallPct[(int)sim::StallCause::Imiss];
    double gfx =
        runNamed(Lang::Java, "hanoi")
            .breakdown.stallPct[(int)sim::StallCause::Imiss];
    EXPECT_LT(plain, 3.0);
    EXPECT_GT(gfx, 8.0);
}

TEST(Shapes, Figure4WorkingSetsAndAssociativity)
{
    // Perl misses keep falling through 64K (32-64K working set); at a
    // capacity-sufficient size, 4-way removes the remaining conflict
    // misses vs direct-mapped.
    for (BenchSpec spec : macroSuite()) {
        if (spec.lang != Lang::Perl || spec.name != "txt2html")
            continue;
        sim::CacheSweep sweep({8, 16, 32, 64}, {1, 4});
        run(spec, {&sweep}, nullptr, false);
        auto r = sweep.results(); // [1w:8,16,32,64, 4w:8,16,32,64]
        ASSERT_EQ(r.size(), 8u);
        EXPECT_GT(r[0].missesPer100Insts, 2.0) << "8K direct misses";
        EXPECT_GT(r[1].missesPer100Insts, r[3].missesPer100Insts * 2)
            << "still capacity-limited between 16K and 64K";
        EXPECT_LT(r[6].missesPer100Insts,
                  r[2].missesPer100Insts * 0.5)
            << "4-way removes conflicts at 32K";
        return;
    }
    FAIL() << "txt2html not in suite";
}

TEST(Shapes, Table2FetchDecodeBands)
{
    // The f/d cost ladder, on the des benchmarks.
    double mipsi =
        runNamed(Lang::Mipsi, "des", 2'000'000)
            .profile.fetchDecodePerCommand();
    double java =
        runNamed(Lang::Java, "des").profile.fetchDecodePerCommand();
    double perl =
        runNamed(Lang::Perl, "des").profile.fetchDecodePerCommand();
    double tcl =
        runNamed(Lang::Tcl, "des").profile.fetchDecodePerCommand();
    EXPECT_NEAR(mipsi, 49, 8) << "paper: 51";
    EXPECT_NEAR(java, 16, 5) << "paper: 16";
    EXPECT_GT(perl, 100) << "paper: 200";
    EXPECT_LT(perl, 260);
    EXPECT_GT(tcl, 900) << "paper: 2100";
}

TEST(Shapes, PerlPrecompileReportedSeparately)
{
    Measurement m = runNamed(Lang::Perl, "des");
    EXPECT_GT(m.profile.precompileInsts(), 10'000u);
    EXPECT_LT(m.profile.precompileInsts(),
              m.profile.userInstructions() / 2)
        << "precompile is a startup overhead, not the bulk";
}

} // namespace
