/**
 * @file
 * Regenerates Figure 1: cumulative native-instruction distributions.
 * For each macro benchmark, the series gives the fraction of execute
 * instructions covered by the top-x virtual commands (fetch/decode
 * excluded, as in the paper).
 */

#include <cstdio>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"

using namespace interp;
using namespace interp::harness;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv, {.modes = true});

    std::printf("Figure 1: cumulative execute-instruction share of the "
                "top-x virtual commands\n");
    std::printf("(each row is one curve; the paper plots x on a log "
                "axis)\n\n");
    std::printf("%-6s %-10s %6s %6s %6s %6s %6s %6s\n", "Lang", "Bench",
                "top1", "top2", "top3", "top5", "top10", "top20");
    std::printf("------------------------------------------------------"
                "--\n");

    // Counting only — no timing needed for this figure.
    SuiteOptions opt = args.suite;
    opt.withMachine = false;
    for (const Measurement &m :
         runSuite(withModes(macroSuite(), args.modes), opt)) {
        if (m.failed) {
            std::printf("%-6s %-10s failed: %s\n", langName(m.lang),
                        m.name.c_str(), m.error.c_str());
            continue;
        }
        std::printf("%-6s %-10s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% "
                    "%5.1f%%\n",
                    langName(m.lang), m.name.c_str(),
                    100 * m.profile.cumulativeExecuteShare(1),
                    100 * m.profile.cumulativeExecuteShare(2),
                    100 * m.profile.cumulativeExecuteShare(3),
                    100 * m.profile.cumulativeExecuteShare(5),
                    100 * m.profile.cumulativeExecuteShare(10),
                    100 * m.profile.cumulativeExecuteShare(20));
    }

    std::printf("\nPaper reference: a handful of commands dominate "
                "(e.g. Tcl des: 2 commands = 96%%),\nbut for Perl/Tcl "
                "the dominating set differs per program (see Figure "
                "2).\n");
    return 0;
}
