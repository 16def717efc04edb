/**
 * @file
 * Regenerates Figure 2: per-benchmark virtual-command count and
 * execute-instruction distributions. For each benchmark the top
 * commands are listed with (a) their share of retired commands (the
 * paper's white bars) and (b) their share of execute instructions
 * (grey bars). A `native` pseudo-row reports runtime-library work,
 * as the paper does for Java.
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

    std::printf("Figure 2: virtual-command and execute-instruction "
                "distributions\n\n");

    SuiteOptions opt = args.suite;
    opt.withMachine = false;
    for (const Measurement &m :
         runSuite(withModes(macroSuite(), args.modes), opt)) {
        if (m.failed) {
            std::printf("--- %s / %s --- failed: %s\n", langName(m.lang),
                        m.name.c_str(), m.error.c_str());
            continue;
        }
        std::printf("--- %s / %s ---\n", langName(m.lang),
                    m.name.c_str());
        std::printf("  %-14s %10s %10s\n", "command", "cmds%",
                    "exec-insts%");

        uint64_t total_cmds = m.profile.commands();
        uint64_t total_exec = m.profile.executeInsts();
        auto sorted = m.profile.byExecuteInsts();
        int shown = 0;
        for (const auto &[id, stats] : sorted) {
            if (shown >= 8)
                break;
            double cmd_pct =
                total_cmds ? 100.0 * stats.retired / total_cmds : 0;
            double exec_pct =
                total_exec ? 100.0 * stats.execute / total_exec : 0;
            if (cmd_pct < 0.5 && exec_pct < 0.5)
                continue;
            const char *name = id < m.commandNames.size()
                                   ? m.commandNames[id].c_str()
                                   : "?";
            std::printf("  %-14s %9.1f%% %9.1f%%\n", name, cmd_pct,
                        exec_pct);
            ++shown;
        }
        if (m.profile.nativeLibInsts() > 0) {
            std::printf("  %-14s %10s %9.1f%%  (runtime libraries)\n",
                        "native", "-",
                        total_exec ? 100.0 * m.profile.nativeLibInsts() /
                                         total_exec
                                   : 0.0);
        }
        std::printf("\n");
    }

    std::printf("Paper reference: MIPSI concentrates on lw/sw/sll (sll "
                "inflated by delay-slot no-ops);\nJava gfx programs "
                "spend ~half their execute instructions in `native`; "
                "for Perl/Tcl the\ndominant command differs per "
                "program (match for txt2html, expr/set for Tcl "
                "des).\n");
    return 0;
}
