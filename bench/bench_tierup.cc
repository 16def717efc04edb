/**
 * @file
 * Measures the tier-2 execution modes against their faithful
 * baselines on the macro suite: jvm superinstructions + field inline
 * caches, tclish command fusion + symbol caches, perlish hash-element
 * caches. These are the artifacts interpd's dynamic tier-up promotes
 * hot catalog programs to (see src/tier/), measured here standalone
 * so the steady-state gain and the one-time build cost are on the
 * record.
 *
 * The equivalence contract is one notch wider than §5's remedies:
 * per-command (execute - memModel) must be byte-identical — an inline
 * cache makes the §3.3 memory-model access sequence cheaper, it never
 * changes what the access does — and the driver flags any pair where
 * it is not. Fetch/decode may only shrink (superinstructions), and
 * the one-time artifact build is charged to Precompile.
 *
 * `--json [file]` (default BENCH_remedies.json) merges one
 * machine-readable row per pair into the remedies document: tier rows
 * are single-line objects carrying `"tier": 2` that replace any
 * previous tier-2 rows, so re-running is idempotent (see
 * harness/remedies_json.hh). `--jobs N` / `--record` / `--replay` behave
 * as in the other drivers. `--programs=<glob[,glob...]>` restricts
 * the suite to matching workload names.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/parallel.hh"
#include "harness/remedies_json.hh"
#include "harness/runner.hh"
#include "support/strutil.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::harness;

int
main(int argc, char **argv)
{
    int jobs = parseJobs(argc, argv);
    TraceIo tio = parseTraceDirs(argc, argv);

    std::printf("Tier-2: superinstructions and inline caches on the "
                "real interpreters\n");
    std::printf("(each pair: faithful baseline vs tier-2; "
                "(exec - memmodel)/cmd must match exactly)\n\n");
    std::printf("%-11s %-10s %10s | %9s %8s | %9s %8s %7s | %9s %7s\n",
                "Mode", "Benchmark", "VirtCmds", "f/d-base", "f/d-t2",
                "mm-base", "mm-t2", "mm-sav%", "(pre x1k)", "i/cmd-%");
    std::printf("---------------------------------------------------------"
                "-----------------------------------------\n");

    // One flat suite: baseline row immediately followed by its tier-2
    // row, so pair i is results[2i] / results[2i+1].
    std::vector<BenchSpec> specs;
    for (BenchSpec &spec : workloads::filterPrograms(
             macroSuite(), workloads::parseProgramsArg(argc, argv))) {
        BenchSpec tier = spec;
        tier.lang = modeAtTier(spec.lang, 2);
        if (tier.lang == spec.lang)
            continue;
        specs.push_back(std::move(spec));
        specs.push_back(std::move(tier));
    }

    SuiteOptions opt;
    opt.jobs = jobs;
    opt.io = tio;
    std::vector<Measurement> results = runSuite(specs, opt);

    std::vector<std::string> rows;
    Lang last = Lang::C;
    bool first_row = true;
    int bad_pairs = 0;

    for (size_t i = 0; i + 1 < results.size(); i += 2) {
        const Measurement &base = results[i];
        const Measurement &tier = results[i + 1];
        if (base.failed || tier.failed) {
            std::printf("%-11s %-10s failed: %s\n", langName(tier.lang),
                        tier.name.c_str(),
                        (base.failed ? base.error : tier.error).c_str());
            ++bad_pairs;
            continue;
        }
        if (!first_row && tier.lang != last)
            std::printf("\n");
        first_row = false;
        last = tier.lang;

        uint64_t mm_base = base.profile.memModelInsts();
        uint64_t mm_tier = tier.profile.memModelInsts();
        // Per command, retired and execute - memModel are identical.
        bool exec_ok =
            base.profile.everyCommand(
                tier.profile,
                [](const auto &a, const auto &b) {
                    return a.retired == b.retired &&
                           a.execute - a.memModel ==
                               b.execute - b.memModel;
                }) &&
            base.commands == tier.commands &&
            base.stdoutText == tier.stdoutText &&
            mm_tier <= mm_base;
        if (!exec_ok)
            ++bad_pairs;

        double fd_base = base.profile.fetchDecodePerCommand();
        double fd_tier = tier.profile.fetchDecodePerCommand();
        double mm_save =
            mm_base ? 100.0 * (1.0 - (double)mm_tier / (double)mm_base)
                    : 0;
        double ipc_base =
            base.commands ? (double)base.profile.userInstructions() /
                                (double)base.commands
                          : 0;
        double ipc_tier =
            tier.commands ? (double)tier.profile.userInstructions() /
                                (double)tier.commands
                          : 0;
        double reduction =
            ipc_base > 0 ? 100.0 * (1.0 - ipc_tier / ipc_base) : 0;

        std::printf("%-11s %-10s %10s | %9.1f %8.1f | %9.2f %8.2f"
                    " %6.1f%% | %9.1f %6.1f%%%s\n",
                    langName(tier.lang), tier.name.c_str(),
                    sigThousands((double)tier.commands).c_str(),
                    fd_base, fd_tier,
                    base.commands ? (double)mm_base / base.commands : 0,
                    tier.commands ? (double)mm_tier / tier.commands : 0,
                    mm_save,
                    tier.profile.precompileInsts() / 1000.0, reduction,
                    exec_ok ? "" : "  [CONTRACT VIOLATION]");

        char buf[1024];
        std::snprintf(
            buf, sizeof buf,
            "{\"baseline_lang\": \"%s\", \"remedy_lang\": \"%s\", "
            "\"bench\": \"%s\", \"tier\": 2, \"commands\": %llu, "
            "\"baseline\": {\"fd_per_cmd\": %.3f, \"memmodel_insts\": "
            "%llu, \"insts\": %llu, \"cycles\": %llu}, "
            "\"remedy\": {\"fd_per_cmd\": %.3f, \"memmodel_insts\": "
            "%llu, \"insts\": %llu, \"cycles\": %llu, "
            "\"precompile_insts\": %llu}, "
            "\"execute_minus_memmodel_identical\": %s, "
            "\"memmodel_reduction_pct\": %.2f, "
            "\"insts_per_cmd_reduction_pct\": %.2f}",
            jsonEscape(langName(base.lang)).c_str(),
            jsonEscape(langName(tier.lang)).c_str(),
            jsonEscape(tier.name).c_str(),
            (unsigned long long)tier.commands, fd_base,
            (unsigned long long)mm_base,
            (unsigned long long)base.profile.userInstructions(),
            (unsigned long long)base.cycles, fd_tier,
            (unsigned long long)mm_tier,
            (unsigned long long)tier.profile.userInstructions(),
            (unsigned long long)tier.cycles,
            (unsigned long long)tier.profile.precompileInsts(),
            exec_ok ? "true" : "false", mm_save, reduction);
        rows.push_back(buf);
    }

    std::printf("\nReading the table: fetch/decode shrinks where fused "
                "pairs fire; the memory-model\nslice of execute (mm) "
                "shrinks where caches hit — everything else is "
                "byte-identical\nto the baseline. (pre) is the one-shot "
                "artifact build, charged like §5's\nquicken/compile. "
                "These are the tiers interpd promotes hot programs to "
                "at runtime.\n");

    if (!writeRemediesTier(parseJsonPath(argc, argv), 2, rows))
        return 1;
    return bad_pairs == 0 ? 0 : 1;
}
