/**
 * @file
 * cache_explorer — architectural what-if for an interpreter workload.
 *
 * §4/§5 ask whether interpreters merit special hardware. This tool
 * answers the cheaper question the paper leaves the reader with: how
 * much would ordinary cache scaling help each interpreter? It runs
 * `des` in every execution mode over a grid of machine configurations
 * and prints cycles and the dominant stall for each.
 *
 * Usage: ./build/examples/cache_explorer [--jobs N] [--programs=GLOB]
 *        (GLOB[,GLOB...] matches macro-suite names; default "des")
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::harness;

namespace {

const char *
dominantStall(const sim::SlotBreakdown &bd)
{
    int best = 0;
    for (int c = 1; c < sim::kNumStallCauses; ++c)
        if (bd.stallPct[c] > bd.stallPct[best])
            best = c;
    return sim::stallCauseName((sim::StallCause)best);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv, {.programs = true});
    if (args.suite.io.active())
        fatal("cache_explorer runs live only: no --record/--replay");
    std::string which = args.programs.empty() ? "des" : args.programs;

    struct Config
    {
        const char *name;
        uint32_t icache_kb, iassoc, dcache_kb, dassoc;
    };
    const Config configs[] = {
        {"base (8K/1w + 8K/1w)", 8, 1, 8, 1},
        {"I$ 32K/2w", 32, 2, 8, 1},
        {"D$ 32K/2w", 8, 1, 32, 2},
        {"both 32K/2w", 32, 2, 32, 2},
        {"both 64K/4w", 64, 4, 64, 4},
    };
    constexpr size_t kNumConfigs = sizeof(configs) / sizeof(configs[0]);

    std::vector<BenchSpec> matching =
        workloads::filterPrograms(macroSuite(), which);

    // Flatten the benchmark x config grid into one parallel job list;
    // spec i of the flat suite is (matching[i / kNumConfigs],
    // configs[i % kNumConfigs]).
    std::vector<BenchSpec> grid;
    std::vector<sim::MachineConfig> cfgs;
    for (const BenchSpec &spec : matching) {
        for (const Config &config : configs) {
            sim::MachineConfig cfg;
            cfg.icache.sizeBytes = config.icache_kb * 1024;
            cfg.icache.assoc = config.iassoc;
            cfg.dcache.sizeBytes = config.dcache_kb * 1024;
            cfg.dcache.assoc = config.dassoc;
            cfgs.push_back(cfg);
            grid.push_back(spec);
        }
    }
    std::vector<Measurement> results = runSuiteWith(
        grid, args.suite.jobs, [&cfgs](const BenchSpec &spec, size_t i) {
            return run(spec, {}, &cfgs[i]);
        });

    for (size_t b = 0; b < matching.size(); ++b) {
        const BenchSpec &spec = matching[b];
        std::printf("=== %s-%s ===\n", langName(spec.lang),
                    spec.name.c_str());
        uint64_t base_cycles = 0;
        for (size_t c = 0; c < kNumConfigs; ++c) {
            const Measurement &m = results[b * kNumConfigs + c];
            if (m.failed) {
                std::printf("  %-22s failed: %s\n", configs[c].name,
                            m.error.c_str());
                continue;
            }
            if (base_cycles == 0)
                base_cycles = m.cycles;
            std::printf("  %-22s %12llu cycles  %5.2fx  busy %4.1f%%  "
                        "worst stall: %s\n",
                        configs[c].name, (unsigned long long)m.cycles,
                        (double)base_cycles / (double)m.cycles,
                        m.breakdown.busyPct, dominantStall(m.breakdown));
        }
        std::printf("\n");
    }
    if (matching.empty()) {
        std::fprintf(stderr,
                     "no macro benchmark matches '%s' (try des, compress, "
                     "tcllex, txt2html, ...)\n",
                     which.c_str());
        return 2;
    }
    std::printf("Reading: if ordinary cache growth recovers most "
                "stalls, special-purpose\ninterpreter hardware is hard "
                "to justify — the paper's §5 conclusion.\n");
    return 0;
}
