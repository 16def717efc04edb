/**
 * @file
 * Measures the whole tier ladder on the real interpreters, each rung
 * against its faithful baseline on the macro suite:
 *
 *  1. The §5 fetch/decode remedies (threaded MIPSI, quickened JVM,
 *     bytecode tclish). The paper's §5 claims that the fetch/decode
 *     overhead dominating MIPSI and Java in Table 2 "could be reduced
 *     by using threaded interpretation ... or binary translation". By
 *     construction the execute stage of every remedy is the same code
 *     as the baseline's, so the whole improvement must appear in the
 *     fetch/decode column.
 *  2. The tier-2 modes (jvm superinstructions + field inline caches,
 *     tclish command fusion + symbol caches, perlish hash-element
 *     caches). An inline cache makes the §3.3 memory-model access
 *     sequence cheaper, it never changes what the access does, so the
 *     contract is one notch wider: execute - memModel is what stays.
 *  3. The tier-3 jit modes (per-opcode/per-command stencil regions,
 *     src/jit/), measured against the baseline and the tier they are
 *     promoted from. The emitted region is a synthetic code segment
 *     (Segment::JitCode), so the §4 machine attributes its i-cache
 *     behaviour like any interpreter routine; the driver reports the
 *     instructions retired from the region and the distinct 32-byte
 *     i-cache lines it touches, alongside the simulated overall miss
 *     rate.
 *
 * These are the rungs interpd's dynamic tier-up promotes hot catalog
 * programs to (see src/tier/), measured here standalone so the
 * steady-state gain and the one-time build cost (charged to
 * Precompile) are on the record. One suite runs every program once in
 * its baseline and once in each distinct rung of its ladder; the three
 * tables are read off that single pass. Each row is checked against
 * its tier's contract (harness/contract.hh), whose broken clauses are
 * printed under it, and a run over the whole ladder also checks the
 * per-language totals. It exits 1 if anything breaks.
 *
 * `--json [file]` (default BENCH_remedies.json) writes every row into
 * the remedies document (see harness/remedies_json.hh).
 * `--jobs N` / `--record <dir>` / `--replay <dir>` behave as in the
 * other drivers; output is byte-identical at any job count.
 * `--programs=<glob[,glob...]>` restricts the suite to matching
 * workload names (e.g. --programs='compose-*,spin').
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "harness/contract.hh"
#include "harness/parallel.hh"
#include "harness/remedies_json.hh"
#include "harness/runner.hh"
#include "support/strutil.hh"
#include "trace/code_registry.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::harness;

namespace {

/** Instructions and distinct 32-byte lines fetched from the emitted
 *  stencil region (Segment::JitCode) — the Fig 3-revisited numbers. */
class JitRegionSink : public trace::Sink
{
  public:
    void
    onBatch(const trace::BundleBatch &batch) override
    {
        for (const trace::Bundle &b : batch) {
            if (b.pc < lo_ || b.pc >= hi_)
                continue;
            insts_ += b.count;
            uint32_t first = b.pc >> 5;
            uint32_t last = (b.pc + 4 * b.count - 1) >> 5;
            for (uint32_t line = first; line <= last; ++line)
                lines_.insert(line);
        }
    }

    uint64_t insts() const { return insts_; }
    size_t lines() const { return lines_.size(); }

  private:
    static constexpr uint32_t kSegSpan = 0x04000000;
    uint32_t lo_ =
        trace::CodeRegistry::segmentBase(trace::Segment::JitCode);
    uint32_t hi_ = lo_ + kSegSpan;
    uint64_t insts_ = 0;
    std::unordered_set<uint32_t> lines_;
};

/** The single pass: each program's runs, looked up by mode. */
struct Pass
{
    std::vector<BenchSpec> programs; ///< baselines with a ladder
    std::vector<Measurement> results;
    std::vector<std::unique_ptr<JitRegionSink>> regions; ///< jit runs
    std::map<std::pair<Lang, std::string>, size_t> slot;

    const Measurement &
    at(Lang mode, const BenchSpec &program) const
    {
        return results[slot.at({mode, program.name})];
    }
};

/** Prints @p broken, the contract clauses a row breaks, under it. */
void
printBreaks(const std::vector<std::string> &broken)
{
    for (const std::string &clause : broken)
        std::printf("    breaks: %s\n", clause.c_str());
}

/**
 * Walks the programs with a rung of exactly @p tier, in suite order,
 * and checks each against the tier contract. A failed run prints its
 * error; any other pair goes to @p print_row (program, baseline, rung,
 * whether it holds), after a blank line between languages when
 * @p by_lang, with the clauses it breaks under it. Returns the number
 * of pairs that break their contract.
 */
template <class PrintRow>
int
eachPair(const Pass &pass, int tier, bool by_lang, PrintRow print_row)
{
    int bad = 0;
    Lang last = Lang::C;
    for (const BenchSpec &program : pass.programs) {
        Lang mode = modeAtTier(program.lang, tier);
        if (mode == program.lang)
            continue;
        const Measurement &base = pass.at(program.lang, program);
        const Measurement &rung = pass.at(mode, program);
        std::vector<std::string> broken = contractBreaks(base, rung);
        bad += !broken.empty();
        if (base.failed || rung.failed) {
            std::printf("%-15s %-10s failed: %s\n", langName(mode),
                        program.name.c_str(),
                        (base.failed ? base.error : rung.error).c_str());
            continue;
        }
        if (by_lang && last != Lang::C && mode != last)
            std::printf("\n");
        last = mode;
        print_row(program, base, rung, broken.empty());
        printBreaks(broken);
    }
    return bad;
}

/** Percent fewer native instructions per command than @p base. */
double
reductionPct(const Measurement &base, const Measurement &rem)
{
    auto per_cmd = [](const Measurement &m) {
        return m.commands ? (double)m.profile.userInstructions() /
                                (double)m.commands
                          : 0.0;
    };
    double ipc_base = per_cmd(base);
    return ipc_base > 0 ? 100.0 * (1.0 - per_cmd(rem) / ipc_base) : 0;
}

/** The §5 remedy table; appends its JSON rows, returns bad pairs. */
int
tier1Table(const Pass &pass, std::vector<std::string> &rows)
{
    std::printf("Section 5: fetch/decode remedies on the real "
                "interpreters\n");
    std::printf("(each pair: faithful baseline vs remedy; execute/cmd "
                "must match exactly)\n\n");
    std::printf("%-15s %-10s %10s | %9s %8s %11s | %9s %8s %11s | %7s\n",
                "Mode", "Benchmark", "VirtCmds", "f/d-base", "f/d-rem",
                "(pre x1k)", "exec-base", "exec-rem", "cycles-sav",
                "i/cmd-%");
    std::printf("---------------------------------------------------------"
                "--------------------------------------------------\n");

    int bad_pairs = eachPair(pass, 1, true, [&](const BenchSpec &,
                                                const Measurement &base,
                                                const Measurement &rem,
                                                bool ok) {
        double fd_base = base.profile.fetchDecodePerCommand();
        double fd_rem = rem.profile.fetchDecodePerCommand();
        double ex_base = base.profile.executePerCommand();
        double ex_rem = rem.profile.executePerCommand();
        double reduction = reductionPct(base, rem);

        std::printf("%-15s %-10s %10s | %9.1f %8.1f %11.1f | %9.1f %8.1f"
                    " %11s | %6.1f%%%s\n",
                    langName(rem.lang), rem.name.c_str(),
                    sigThousands((double)rem.commands).c_str(), fd_base,
                    fd_rem, rem.profile.precompileInsts() / 1000.0,
                    ex_base, ex_rem,
                    sigThousands((double)base.cycles -
                                 (double)rem.cycles)
                        .c_str(),
                    reduction,
                    ok ? "" : "  [CONTRACT VIOLATION]");

        char buf[1024];
        std::snprintf(
            buf, sizeof buf,
            "{\"baseline_lang\": \"%s\", \"remedy_lang\": \"%s\", "
            "\"bench\": \"%s\",\n"
            "     \"commands\": %llu,\n"
            "     \"baseline\": {\"fd_per_cmd\": %.3f, \"exec_per_cmd\": "
            "%.3f, \"insts\": %llu, \"cycles\": %llu},\n"
            "     \"remedy\": {\"fd_per_cmd\": %.3f, \"exec_per_cmd\": "
            "%.3f, \"insts\": %llu, \"cycles\": %llu, "
            "\"precompile_insts\": %llu},\n"
            "     \"execute_identical\": %s, \"insts_per_cmd_reduction_pct\""
            ": %.2f}",
            jsonEscape(langName(base.lang)).c_str(),
            jsonEscape(langName(rem.lang)).c_str(),
            jsonEscape(rem.name).c_str(),
            (unsigned long long)rem.commands, fd_base, ex_base,
            (unsigned long long)base.profile.userInstructions(),
            (unsigned long long)base.cycles, fd_rem, ex_rem,
            (unsigned long long)rem.profile.userInstructions(),
            (unsigned long long)rem.cycles,
            (unsigned long long)rem.profile.precompileInsts(),
            ok ? "true" : "false", reduction);
        rows.push_back(buf);
    });

    std::printf("\nReading the table: f/d per command drops (threading "
                "~10x for MIPSI, quickening\n~2x for hot Java bytecodes, "
                "compiled scripts ~10-100x for Tcl) while execute per\n"
                "command is unchanged; the one-shot translation cost "
                "appears as (pre). This is\nthe paper's §5 remedy claim "
                "measured on the actual interpreters.\n");
    return bad_pairs;
}

/** The tier-2 table; appends its JSON rows, returns bad pairs. */
int
tier2Table(const Pass &pass, std::vector<std::string> &rows)
{
    std::printf("Tier-2: superinstructions and inline caches on the "
                "real interpreters\n");
    std::printf("(each pair: faithful baseline vs tier-2; "
                "(exec - memmodel)/cmd must match exactly)\n\n");
    std::printf("%-11s %-10s %10s | %9s %8s | %9s %8s %7s | %9s %7s\n",
                "Mode", "Benchmark", "VirtCmds", "f/d-base", "f/d-t2",
                "mm-base", "mm-t2", "mm-sav%", "(pre x1k)", "i/cmd-%");
    std::printf("---------------------------------------------------------"
                "-----------------------------------------\n");

    int bad_pairs = eachPair(pass, 2, true, [&](const BenchSpec &,
                                                const Measurement &base,
                                                const Measurement &tier,
                                                bool ok) {
        uint64_t mm_base = base.profile.memModelInsts();
        uint64_t mm_tier = tier.profile.memModelInsts();
        double fd_base = base.profile.fetchDecodePerCommand();
        double fd_tier = tier.profile.fetchDecodePerCommand();
        double mm_save =
            mm_base ? 100.0 * (1.0 - (double)mm_tier / (double)mm_base)
                    : 0;
        double reduction = reductionPct(base, tier);

        std::printf("%-11s %-10s %10s | %9.1f %8.1f | %9.2f %8.2f"
                    " %6.1f%% | %9.1f %6.1f%%%s\n",
                    langName(tier.lang), tier.name.c_str(),
                    sigThousands((double)tier.commands).c_str(),
                    fd_base, fd_tier,
                    base.commands ? (double)mm_base / base.commands : 0,
                    tier.commands ? (double)mm_tier / tier.commands : 0,
                    mm_save,
                    tier.profile.precompileInsts() / 1000.0, reduction,
                    ok ? "" : "  [CONTRACT VIOLATION]");

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
            ok ? "true" : "false", mm_save, reduction);
        rows.push_back(buf);
    });

    std::printf("\nReading the table: fetch/decode shrinks where fused "
                "pairs fire; the memory-model\nslice of execute (mm) "
                "shrinks where caches hit — everything else is "
                "byte-identical\nto the baseline. (pre) is the one-shot "
                "artifact build, charged like §5's\nquicken/compile. "
                "These are the tiers interpd promotes hot programs to "
                "at runtime.\n");
    return bad_pairs;
}

/** The tier-3 table; appends its JSON rows, returns bad rows. */
int
tier3Table(const Pass &pass, std::vector<std::string> &rows)
{
    std::printf("Tier-3: template-compiled stencil regions "
                "(mipsi-jit, tcl-jit)\n");
    std::printf("(each row: baseline vs previous tier vs jit; stdout, "
                "retired and native-lib\n per command must be "
                "byte-identical to the baseline)\n\n");
    std::printf("%-10s %-9s %10s | %7s %7s %7s | %7s %7s %7s | "
                "%8s %6s %6s\n",
                "Mode", "Bench", "VirtCmds", "fd-base", "fd-prev",
                "fd-jit", "mm-base", "mm-prev", "mm-jit", "jit-insts",
                "lines", "im%");
    std::printf("---------------------------------------------------------"
                "--------------------------------------------\n");

    int triples = 0;
    int improved_beyond_prev = 0;
    int bad = eachPair(pass, 3, false, [&](const BenchSpec &program,
                                           const Measurement &base,
                                           const Measurement &jit,
                                           bool ok) {
        ++triples;
        const Measurement &prev = pass.at(rungOf(program.lang, 2), program);
        const JitRegionSink &region =
            *pass.regions[pass.slot.at({jit.lang, program.name})];
        uint64_t fd_base = base.profile.fetchDecodeInsts();
        uint64_t fd_prev = prev.profile.fetchDecodeInsts();
        uint64_t fd_jit = jit.profile.fetchDecodeInsts();
        uint64_t mm_base = base.profile.memModelInsts();
        uint64_t mm_prev = prev.profile.memModelInsts();
        uint64_t mm_jit = jit.profile.memModelInsts();
        bool beyond = fd_jit + mm_jit < fd_prev + mm_prev;
        if (ok && beyond)
            ++improved_beyond_prev;

        auto per = [](uint64_t insts, uint64_t cmds) {
            return cmds ? (double)insts / (double)cmds : 0.0;
        };
        std::printf("%-10s %-9s %10s | %7.1f %7.1f %7.1f | %7.2f "
                    "%7.2f %7.2f | %8llu %6zu %5.2f%s\n",
                    langName(jit.lang), jit.name.c_str(),
                    sigThousands((double)jit.commands).c_str(),
                    per(fd_base, base.commands),
                    per(fd_prev, prev.commands),
                    per(fd_jit, jit.commands),
                    per(mm_base, base.commands),
                    per(mm_prev, prev.commands),
                    per(mm_jit, jit.commands),
                    (unsigned long long)region.insts(), region.lines(),
                    jit.imissPer100,
                    ok ? "" : "  [CONTRACT VIOLATION]");

        char buf[1200];
        std::snprintf(
            buf, sizeof buf,
            "{\"baseline_lang\": \"%s\", \"remedy_lang\": \"%s\", "
            "\"bench\": \"%s\", \"tier\": 3, \"commands\": %llu, "
            "\"baseline\": {\"fd_insts\": %llu, \"memmodel_insts\": "
            "%llu, \"insts\": %llu, \"cycles\": %llu}, "
            "\"prev_tier\": {\"lang\": \"%s\", \"fd_insts\": %llu, "
            "\"memmodel_insts\": %llu}, "
            "\"remedy\": {\"fd_insts\": %llu, \"memmodel_insts\": "
            "%llu, \"insts\": %llu, \"cycles\": %llu, "
            "\"precompile_insts\": %llu, \"jit_region_insts\": %llu, "
            "\"jit_region_lines\": %zu, \"imiss_per_100\": %.3f}, "
            "\"golden_contract_ok\": %s, "
            "\"improves_on_prev_tier\": %s}",
            jsonEscape(langName(base.lang)).c_str(),
            jsonEscape(langName(jit.lang)).c_str(),
            jsonEscape(jit.name).c_str(),
            (unsigned long long)jit.commands,
            (unsigned long long)fd_base, (unsigned long long)mm_base,
            (unsigned long long)base.profile.userInstructions(),
            (unsigned long long)base.cycles,
            jsonEscape(langName(prev.lang)).c_str(),
            (unsigned long long)fd_prev, (unsigned long long)mm_prev,
            (unsigned long long)fd_jit, (unsigned long long)mm_jit,
            (unsigned long long)jit.profile.userInstructions(),
            (unsigned long long)jit.cycles,
            (unsigned long long)jit.profile.precompileInsts(),
            (unsigned long long)region.insts(), region.lines(),
            jit.imissPer100,
            ok ? "true" : "false", beyond ? "true" : "false");
        rows.push_back(buf);
    });

    std::printf("\nReading the table: fd and mm columns are per-command "
                "averages; the jit column\nmust sit at or below the "
                "previous tier's. jit-insts/lines are the emitted\n"
                "stencil region's retired instructions and distinct "
                "32-byte i-cache lines\n(the region is a synthetic "
                "code segment, so the §4 machine sees it); im%% is\n"
                "the simulated overall i-miss rate per 100 "
                "instructions.\n");
    std::printf("\n%d/%d programs improve fetch/decode+memmodel beyond "
                "the previous tier.\n",
                improved_beyond_prev, triples);
    return bad;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, {.programs = true, .json = "BENCH_remedies.json"});

    // One suite: each program with a ladder runs once in its baseline
    // and once in each distinct rung, whichever tables use the run.
    Pass pass;
    for (BenchSpec &program :
         workloads::filterPrograms(macroSuite(), args.programs))
        if (rungOf(program.lang, 3) != program.lang)
            pass.programs.push_back(std::move(program));
    std::vector<BenchSpec> specs = ladderSuite(pass.programs);
    for (size_t i = 0; i < specs.size(); ++i)
        pass.slot[{specs[i].lang, specs[i].name}] = i;

    // The jit runs carry a region sink so the emitted segment's
    // footprint rides the same pass as the Table 3 machine.
    pass.regions.resize(specs.size());
    pass.results = runSuiteWith(
        specs, args.suite.jobs, [&](const BenchSpec &spec, size_t i) {
            std::vector<trace::Sink *> sinks;
            if (isJit(spec.lang)) {
                pass.regions[i] = std::make_unique<JitRegionSink>();
                sinks.push_back(pass.regions[i].get());
            }
            return runOrReplay(spec, args.suite.io, sinks);
        });

    std::vector<std::string> rows;
    int bad = tier1Table(pass, rows);
    bad += tier2Table(pass, rows);
    bad += tier3Table(pass, rows);
    // The per-language totals are a claim about the whole ladder: a
    // --programs subset may hold no cacheable site of a language.
    std::vector<std::string> totals;
    if (args.programs.empty())
        totals = ladderTotalsBreaks(pass.results);
    std::printf("\nTier contract: %d row(s) break their tier's clauses; "
                "per-language totals %s.\n",
                bad,
                !args.programs.empty() ? "not checked on a subset"
                : totals.empty()       ? "hold"
                                       : "broken");
    printBreaks(totals);
    if (!writeRemediesJson(args.jsonPath, rows))
        return 1;
    return bad == 0 && totals.empty() ? 0 : 1;
}
