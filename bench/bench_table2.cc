/**
 * @file
 * Regenerates Table 2: baseline performance of the interpreters on
 * the macro benchmark suite — program size, virtual commands, native
 * instructions (with Perl's precompilation in parentheses), the
 * average fetch/decode and execute instructions per virtual command,
 * and total simulated cycles on the Table 3 machine.
 *
 * Workloads are scaled down from the paper's (documented in
 * EXPERIMENTS.md); compare shapes, not absolute counts.
 *
 * `--jobs N` runs the suite on N worker threads;
 * the table is byte-identical at any job count. `--record <dir>`
 * additionally captures each run as a binary trace; `--replay <dir>`
 * regenerates the table from previously recorded traces without
 * re-interpreting anything (again byte-identical).
 * `--modes=baseline|remedies|all` additionally runs the §5 remedy
 * modes (threaded MIPSI, quickened JVM, Tcl bytecode).
 */

#include <cstdio>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "support/strutil.hh"

using namespace interp;
using namespace interp::harness;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv, {.modes = true});

    std::printf("Table 2: baseline performance of the interpreters\n");
    std::printf("(counts in units of 10^3, as in the paper)\n\n");
    std::printf("%-6s %-10s %7s %10s %14s %12s %8s %12s\n", "Lang",
                "Benchmark", "Size", "VirtCmds", "NativeInsts",
                "Fetch/Dec", "Execute", "Cycles");
    std::printf("%-6s %-10s %7s %10s %14s %12s %8s %12s\n", "", "",
                "(KB)", "(x10^3)", "(x10^3)", "per cmd", "per cmd",
                "(x10^3)");
    std::printf("--------------------------------------------------"
                "--------------------------------\n");

    Lang last = Lang::C;
    bool first = true;
    for (const Measurement &m :
         runSuite(withModes(macroSuite(), args.modes), args.suite)) {
        if (m.failed) {
            std::printf("%-6s %-10s failed: %s\n", langName(m.lang),
                        m.name.c_str(), m.error.c_str());
            continue;
        }
        if (!first && m.lang != last)
            std::printf("\n");
        first = false;
        last = m.lang;

        std::string insts = sigThousands((double)m.profile.userInstructions());
        if (m.profile.precompileInsts() > 0)
            insts = "(" +
                    sigThousands((double)m.profile.precompileInsts()) +
                    ") " + insts;

        double fd = m.profile.fetchDecodePerCommand();
        double ex = m.profile.executePerCommand();

        std::printf("%-6s %-10s %7.1f %10s %14s %12.0f %8.0f %12s%s\n",
                    langName(m.lang), m.name.c_str(),
                    m.programBytes / 1024.0,
                    sigThousands((double)m.commands).c_str(),
                    insts.c_str(), fd, ex,
                    sigThousands((double)m.cycles).c_str(),
                    m.finished ? "" : "  [budget]");
    }

    std::printf("\nPaper reference (Table 2): MIPSI f/d ~47-51, exec "
                "~17-23; Java f/d ~16, exec ~18-170;\nPerl f/d "
                "~130-200, exec ~82-2300; Tcl f/d ~2000-5200, exec "
                "~1500-5400.\n");
    return 0;
}
