/**
 * @file
 * Regenerates Figure 4: instruction-cache miss rate (misses per 100
 * instructions) of the Java, Perl and Tcl benchmarks as a function of
 * cache size (8/16/32/64 KB) and associativity (1/2/4-way). One pass
 * per benchmark feeds all twelve cache configurations.
 *
 * `--record <dir>` captures each workload's event stream as a binary
 * trace while sweeping; `--replay <dir>` drives the whole sweep from
 * those traces instead — each workload's trace is decoded exactly
 * once and fans out to all twelve configurations, with the workloads
 * themselves spread across the `--jobs` pool. The printed table is
 * byte-identical either way.
 */

#include <cstdio>
#include <memory>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "sim/cache_sweep.hh"

using namespace interp;
using namespace interp::harness;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv, {.modes = true});
    const std::vector<uint32_t> sizes = {8, 16, 32, 64};
    const std::vector<uint32_t> assocs = {1, 2, 4};

    std::printf("Figure 4: i-cache misses per 100 instructions vs size "
                "and associativity\n\n");
    std::printf("%-16s", "benchmark");
    for (uint32_t assoc : assocs)
        for (uint32_t kb : sizes)
            std::printf(" %2uw/%-2uK", assoc, kb);
    std::printf("\n");
    std::printf("------------------------------------------------------"
                "------------------------------------------------\n");

    std::vector<BenchSpec> specs;
    for (BenchSpec &spec : withModes(macroSuite(), args.modes)) {
        Lang base = modeInfo(spec.lang).baseline;
        if (base == Lang::Java || base == Lang::Perl ||
            base == Lang::Tcl)
            specs.push_back(std::move(spec));
    }

    // One private sweep sink per job: each sees the same stream the
    // machine model would, with no cross-thread sharing. Under
    // --replay that stream comes from one decode of the workload's
    // trace, shared by all twelve sweep points.
    std::vector<std::unique_ptr<sim::CacheSweep>> sweeps(specs.size());
    std::vector<Measurement> results = runSuiteWith(
        specs, args.suite.jobs,
        [&](const BenchSpec &spec, size_t i) {
            sweeps[i] = std::make_unique<sim::CacheSweep>(sizes, assocs);
            return runOrReplay(spec, args.suite.io, {sweeps[i].get()},
                               nullptr, false);
        });

    for (size_t i = 0; i < specs.size(); ++i) {
        std::string tag = std::string(langName(specs[i].lang)) + "-" +
                          specs[i].name;
        if (results[i].failed) {
            std::printf("%-16s failed: %s\n", tag.c_str(),
                        results[i].error.c_str());
            continue;
        }
        std::printf("%-16s", tag.c_str());
        for (const auto &point : sweeps[i]->results())
            std::printf(" %7.2f", point.missesPer100Insts);
        std::printf("\n");
    }

    std::printf("\nPaper reference: Perl's working set is 32-64 KB and "
                "Tcl's 16-32 KB (miss rates\nfall toward ~0 there); "
                "higher associativity removes the conflict misses that "
                "remain\nonce capacity suffices (e.g. tcltags at 32 KB: "
                "1.2 -> 0.4 per 100 from 2- to 4-way).\n");
    return 0;
}
