/**
 * @file
 * Tests for the guest-workload registry (src/workloads/): structural
 * completeness (every workload carries runnable sources and a golden
 * per mode, names are unique, the macro suite is exactly the registry
 * in canonical order), the glob-based suite subsetting the bench
 * drivers share, and golden execution — every post-registry workload
 * reproduces its declared stdout under every baseline mode it
 * supports, and the composition tower's rungs (threaded, jit) keep
 * the composed output byte-identical to the mipsi baseline.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "workloads/compose.hh"
#include "workloads/registry.hh"

namespace {

using namespace interp;
using namespace interp::workloads;
using harness::Lang;

// --- structural completeness -------------------------------------------

TEST(Registry, NamesAreUniqueAndNonEmpty)
{
    const auto &table = registry();
    ASSERT_GE(table.size(), 21u) << "15 legacy + 4 modern + 2 composed";
    std::set<std::string> names;
    for (const Workload &w : table) {
        EXPECT_FALSE(w.name.empty());
        EXPECT_TRUE(names.insert(w.name).second)
            << "duplicate workload " << w.name;
    }
}

TEST(Registry, EveryWorkloadHasSourcesAndAGoldenPerMode)
{
    for (const Workload &w : registry()) {
        ASSERT_FALSE(w.sources.empty()) << w.name;
        std::set<Lang> langs;
        for (const ModeSource &src : w.sources) {
            EXPECT_FALSE(src.path.empty()) << w.name;
            EXPECT_TRUE(langs.insert(src.lang).second)
                << w.name << ": duplicate source for "
                << harness::langName(src.lang);
            const std::string *golden = goldenFor(w, src.lang);
            ASSERT_NE(golden, nullptr)
                << w.name << " has no golden under "
                << harness::langName(src.lang);
            EXPECT_FALSE(golden->empty()) << w.name;
            // The checksum form must be a full 16-digit fnv64 hex.
            if (golden->rfind("fnv64:", 0) == 0) {
                EXPECT_EQ(golden->size(), 6u + 16u) << w.name;
            }
        }
        // No golden may dangle: each must name a declared source mode.
        for (const Golden &g : w.goldens)
            EXPECT_TRUE(langs.count(g.lang))
                << w.name << " golden for undeclared mode "
                << harness::langName(g.lang);
    }
}

TEST(Registry, ComposedWorkloadsAreScriptelUnderMipsi)
{
    size_t composed = 0;
    for (const Workload &w : registry()) {
        if (!w.composed())
            continue;
        ++composed;
        EXPECT_TRUE(w.needsInputs) << w.name << ": the script file is "
                                              "installed via the vfs";
        ASSERT_EQ(w.sources.size(), 1u) << w.name;
        EXPECT_EQ(w.sources[0].lang, Lang::Mipsi) << w.name;
        // The composed source is the Scriptel interpreter specialised
        // to open this workload's script.
        harness::BenchSpec spec = specFor(w, Lang::Mipsi);
        EXPECT_NE(spec.source.find(w.script), std::string::npos)
            << w.name;
        EXPECT_EQ(spec.source.find("compose.sel"), std::string::npos)
            << w.name << ": placeholder not fully substituted";
    }
    EXPECT_GE(composed, 2u);
}

TEST(Registry, MacroSuiteIsExactlyTheRegistry)
{
    // Every (workload, mode) pair appears exactly once in the macro
    // suite, and per-mode groups respect the declared order keys.
    auto suite = macroRows();
    std::set<std::pair<std::string, Lang>> seen;
    for (const harness::BenchSpec &spec : suite) {
        const Workload *w = find(spec.name);
        ASSERT_NE(w, nullptr) << spec.name;
        EXPECT_TRUE(w->supports(spec.lang)) << spec.name;
        EXPECT_TRUE(seen.insert({spec.name, spec.lang}).second)
            << spec.name << " duplicated under "
            << harness::langName(spec.lang);
    }
    size_t pairs = 0;
    for (const Workload &w : registry())
        pairs += w.sources.size();
    EXPECT_EQ(seen.size(), pairs);
}

TEST(Registry, FnvChecksumKnownAnswer)
{
    // FNV-1a 64 of the empty string is the offset basis.
    EXPECT_EQ(fnv64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv64Hex("a"), "fnv64:af63dc4c8601ec8c");
}

// --- suite subsetting (--programs=) ------------------------------------

TEST(Programs, GlobMatchSemantics)
{
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("compose-*", "compose-mat"));
    EXPECT_FALSE(globMatch("compose-*", "composed"));
    EXPECT_TRUE(globMatch("r?match", "rxmatch"));
    EXPECT_FALSE(globMatch("r?match", "rmatch"));
    EXPECT_TRUE(globMatch("*mat*", "matmul"));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("", ""));
}

TEST(Programs, FilterKeepsMatchingRowsAcrossModes)
{
    auto all = macroRows();
    EXPECT_EQ(filterPrograms(all, "").size(), all.size());

    auto spins = filterPrograms(all, "spin");
    ASSERT_EQ(spins.size(), 4u) << "spin runs under all four modes";
    for (const auto &spec : spins)
        EXPECT_EQ(spec.name, "spin");

    auto several = filterPrograms(all, "compose-*,rxmatch");
    std::set<std::string> names;
    for (const auto &spec : several)
        names.insert(spec.name);
    EXPECT_EQ(names,
              (std::set<std::string>{"compose-spin", "compose-mat",
                                     "rxmatch"}));

    EXPECT_TRUE(filterPrograms(all, "no-such-workload").empty());
}

// --- golden execution --------------------------------------------------

/** Run @p w under @p mode (counting-only) and return the measurement. */
harness::Measurement
runUnder(const Workload &w, Lang mode)
{
    harness::BenchSpec spec = specFor(w, mode);
    spec.lang = mode;
    return harness::run(spec, {}, nullptr, /*with_machine=*/false);
}

TEST(Goldens, ModernWorkloadsReproduceEveryDeclaredGolden)
{
    // The post-registry additions (order keys >= 10) each run to
    // completion under every baseline mode they declare and hit the
    // golden byte-for-byte (or checksum-for-checksum).
    size_t checked = 0;
    for (const char *name :
         {"rxmatch", "kanren", "matmul", "spin", "compose-spin",
          "compose-mat"}) {
        const Workload *w = find(name);
        ASSERT_NE(w, nullptr) << name;
        for (const ModeSource &src : w->sources) {
            harness::Measurement m = runUnder(*w, src.lang);
            EXPECT_TRUE(m.finished)
                << name << " under " << harness::langName(src.lang);
            EXPECT_TRUE(goldenMatches(*w, src.lang, m.stdoutText))
                << name << " under " << harness::langName(src.lang)
                << " printed:\n"
                << m.stdoutText;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 17u);
}

TEST(Goldens, LegacyRowsStillReproduce)
{
    // Spot-check that moving the legacy suite into the registry kept
    // its goldens live (the full sweep is the bench drivers' job).
    for (const char *name : {"hanoi", "tcllex"}) {
        const Workload *w = find(name);
        ASSERT_NE(w, nullptr) << name;
        for (const ModeSource &src : w->sources) {
            harness::Measurement m = runUnder(*w, src.lang);
            EXPECT_TRUE(m.finished) << name;
            EXPECT_TRUE(goldenMatches(*w, src.lang, m.stdoutText))
                << name << " under " << harness::langName(src.lang);
        }
    }
}

TEST(Goldens, ComposedTowerIsIdenticalUpTheTierLadder)
{
    // The tier ladder's contract extends to guest-on-guest programs:
    // threaded and jit MIPSI must reproduce the composed stdout (and
    // hence the inner interpreter's own trailer) byte-identically.
    const Workload *w = find("compose-spin");
    ASSERT_NE(w, nullptr);
    harness::Measurement base = runUnder(*w, Lang::Mipsi);
    ASSERT_TRUE(base.finished);
    ASSERT_TRUE(goldenMatches(*w, Lang::Mipsi, base.stdoutText));

    for (Lang rung : {Lang::MipsiThreaded, Lang::MipsiJit}) {
        harness::Measurement m = runUnder(*w, rung);
        EXPECT_TRUE(m.finished) << harness::langName(rung);
        EXPECT_EQ(m.stdoutText, base.stdoutText)
            << harness::langName(rung);
        EXPECT_EQ(m.commands, base.commands)
            << harness::langName(rung);
    }
}

TEST(Compose, PhaseClassifierCoversScriptelRoutines)
{
    using workloads::GuestFetchProfiler;
    EXPECT_EQ(GuestFetchProfiler::classify("fetch_op"),
              InnerPhase::Fetch);
    EXPECT_EQ(GuestFetchProfiler::classify("exec_op"),
              InnerPhase::Decode);
    EXPECT_EQ(GuestFetchProfiler::classify("op_add"),
              InnerPhase::Execute);
    EXPECT_EQ(GuestFetchProfiler::classify("main"),
              InnerPhase::Dispatch);
    EXPECT_EQ(GuestFetchProfiler::classify("tokenize"),
              InnerPhase::Precompile);
    EXPECT_EQ(GuestFetchProfiler::classify("strlen"),
              InnerPhase::Runtime);
}

} // namespace
