/**
 * @file
 * Measures the tier-3 jit modes (per-opcode/per-command stencil
 * regions, src/jit/) against their faithful baselines and the tier
 * they are promoted from, on the macro suite. These are the artifacts
 * interpd's dynamic tier-up compiles for the hottest catalog programs;
 * measured here standalone so the steady-state gain over tier 2 and
 * the one-time stencil-emission cost are on the record.
 *
 * The golden contract is the tier-2 contract extended one rung:
 * stdout, virtual commands, and per-command retired and native-lib
 * counts must be byte-identical to the baseline; fetch/decode and the
 * memory-model slice of execute may only shrink, and must shrink at
 * least as far as the previous tier (threaded MIPSI / tier-2 Tcl).
 * Stencil emission is charged to Precompile like every other one-time
 * translation in the study.
 *
 * The emitted region is registered as a synthetic code segment
 * (Segment::JitCode), so the §4 machine attributes its i-cache
 * behaviour like any interpreter routine; the driver reports the
 * instructions retired from the region and the distinct 32-byte
 * i-cache lines it touches, alongside the simulated overall miss
 * rate.
 *
 * `--json [file]` (default BENCH_remedies.json) merges one
 * machine-readable row per program into the remedies document: jit
 * rows are single-line objects carrying `"tier": 3` that replace any
 * previous tier-3 rows, so re-running is idempotent (see
 * harness/remedies_json.hh). `--jobs N` / `--record` / `--replay` behave as in
 * the other drivers. `--programs=<glob[,glob...]>` restricts the
 * suite to matching workload names.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

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
    onBundle(const trace::Bundle &b) override
    {
        if (b.pc < lo_ || b.pc >= hi_)
            return;
        insts_ += b.count;
        uint32_t first = b.pc >> 5;
        uint32_t last = (b.pc + 4 * b.count - 1) >> 5;
        for (uint32_t line = first; line <= last; ++line)
            lines_.insert(line);
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

} // namespace

int
main(int argc, char **argv)
{
    int jobs = parseJobs(argc, argv);
    TraceIo tio = parseTraceDirs(argc, argv);

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

    // One flat suite: baseline, previous tier, jit — triple i is
    // results[3i] / results[3i+1] / results[3i+2].
    std::vector<BenchSpec> specs;
    for (BenchSpec &spec : workloads::filterPrograms(
             macroSuite(), workloads::parseProgramsArg(argc, argv))) {
        BenchSpec jit = spec;
        jit.lang = modeAtTier(spec.lang, 3);
        if (jit.lang == spec.lang)
            continue;
        BenchSpec prev = spec;
        prev.lang = rungOf(spec.lang, 2);
        specs.push_back(std::move(spec));
        specs.push_back(std::move(prev));
        specs.push_back(std::move(jit));
    }

    // The jit rows carry a region sink so the emitted segment's
    // footprint rides the same pass as the Table 3 machine.
    std::vector<std::unique_ptr<JitRegionSink>> regions(specs.size());
    std::vector<Measurement> results = runSuiteWith(
        specs, jobs, [&](const BenchSpec &spec, size_t i) {
            std::vector<trace::Sink *> sinks;
            if (isJit(spec.lang)) {
                regions[i] = std::make_unique<JitRegionSink>();
                sinks.push_back(regions[i].get());
            }
            return runOrReplay(spec, tio, sinks);
        });

    std::vector<std::string> rows;
    int bad = 0;
    int improved_beyond_prev = 0;

    for (size_t i = 0; i + 2 < results.size(); i += 3) {
        const Measurement &base = results[i];
        const Measurement &prev = results[i + 1];
        const Measurement &jit = results[i + 2];
        const JitRegionSink *region = regions[i + 2].get();
        if (base.failed || prev.failed || jit.failed) {
            std::printf("%-10s %-9s failed: %s\n", langName(jit.lang),
                        jit.name.c_str(),
                        (base.failed   ? base.error
                         : prev.failed ? prev.error
                                       : jit.error)
                            .c_str());
            ++bad;
            continue;
        }

        uint64_t fd_base = base.profile.fetchDecodeInsts();
        uint64_t fd_prev = prev.profile.fetchDecodeInsts();
        uint64_t fd_jit = jit.profile.fetchDecodeInsts();
        uint64_t mm_base = base.profile.memModelInsts();
        uint64_t mm_prev = prev.profile.memModelInsts();
        uint64_t mm_jit = jit.profile.memModelInsts();

        // Per command, retired and native-lib are identical;
        // fetch/decode and memModel may only shrink.
        bool ok = jit.commands == base.commands &&
                  jit.stdoutText == base.stdoutText &&
                  base.profile.everyCommand(
                      jit.profile,
                      [](const auto &a, const auto &b) {
                          return a.retired == b.retired &&
                                 a.nativeLib == b.nativeLib;
                      }) &&
                  fd_jit <= fd_base && mm_jit <= mm_base;
        if (!ok)
            ++bad;
        bool beyond =
            fd_jit + mm_jit < fd_prev + mm_prev;
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
                    (unsigned long long)(region ? region->insts() : 0),
                    region ? region->lines() : 0, jit.imissPer100,
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
            (unsigned long long)(region ? region->insts() : 0),
            region ? region->lines() : (size_t)0, jit.imissPer100,
            ok ? "true" : "false", beyond ? "true" : "false");
        rows.push_back(buf);
    }

    std::printf("\nReading the table: fd and mm columns are per-command "
                "averages; the jit column\nmust sit at or below the "
                "previous tier's. jit-insts/lines are the emitted\n"
                "stencil region's retired instructions and distinct "
                "32-byte i-cache lines\n(the region is a synthetic "
                "code segment, so the §4 machine sees it); im%% is\n"
                "the simulated overall i-miss rate per 100 "
                "instructions.\n");
    std::printf("\n%d/%zu programs improve fetch/decode+memmodel beyond "
                "the previous tier.\n",
                improved_beyond_prev, results.size() / 3);

    if (!writeRemediesTier(parseJsonPath(argc, argv), 3, rows))
        return 1;
    return bad == 0 ? 0 : 1;
}
