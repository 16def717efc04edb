/**
 * @file
 * The composition tower: what interpretation costs when the guest is
 * itself an interpreter. Scriptel — a mini script interpreter written
 * in MiniC — runs its script natively (one interpretation level) or
 * under mipsi (two levels: mipsi fetches and decodes MIPS commands,
 * Scriptel fetches and decodes script ops on top). Each composed
 * workload's payload program also exists as a direct MiniC benchmark,
 * so the tower has a native floor to normalize against.
 *
 * Six rungs per tower:
 *   payload-native    direct .mc under Lang::C          (level 0)
 *   payload-mipsi     direct .mc under Lang::Mipsi      (level 1)
 *   scriptel-native   Scriptel+script under Lang::C     (level 1)
 *   composed-mipsi    Scriptel+script under Lang::Mipsi (level 2)
 *   composed-threaded ... under MipsiThreaded  (cheaper lower level)
 *   composed-jit      ... under MipsiJit       (cheapest lower level)
 *
 * The headline number is multiplicativity: the outer interpreter's
 * blowup measured on the composed program (composed-mipsi /
 * scriptel-native) lands close to its blowup on ordinary code
 * (payload-mipsi / payload-native), so tower cost is the *product* of
 * the per-level factors — and tiering the outer level divides the
 * whole product.
 *
 * Per-level attribution: on the composed-mipsi rung a
 * GuestFetchProfiler buckets every outer-native instruction by the
 * inner-interpreter phase owning the guest PC (inner fetch, inner
 * decode ladder, opcode handlers, tokenizer), recovering the paper's
 * Table 2 taxonomy one level down.
 *
 * `--json [file]` (default BENCH_compose.json) writes the
 * machine-readable document; `--programs=<glob[,glob]>` subsets the
 * composed workloads; `--jobs N` parallelizes the runs.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "minic/compile.hh"
#include "support/strutil.hh"
#include "workloads/compose.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::harness;

namespace {

struct Tower
{
    const workloads::Workload *composed;
    const workloads::Workload *payload; ///< direct counterpart
};

/** Composed workload -> the direct benchmark computing its payload. */
const char *
payloadNameOf(const std::string &composed_name)
{
    if (composed_name == "compose-spin")
        return "spin";
    if (composed_name == "compose-mat")
        return "matmul";
    return nullptr;
}

constexpr size_t kRungs = 6;
const char *kRungLabel[kRungs] = {"payload-native",  "payload-mipsi",
                                  "scriptel-native", "composed-mipsi",
                                  "composed-threaded", "composed-jit"};
/** Interpretation levels under each rung (for the report). */
const int kRungLevels[kRungs] = {0, 1, 1, 2, 2, 2};

/** Parse the `[compose steps=N tokens=M]` trailer; 0 on mismatch. */
bool
parseTrailer(const std::string &text, uint64_t &steps,
             uint64_t &tokens, size_t &payload_end)
{
    size_t at = text.rfind("[compose steps=");
    if (at == std::string::npos)
        return false;
    payload_end = at;
    unsigned long long s = 0, t = 0;
    if (std::sscanf(text.c_str() + at, "[compose steps=%llu tokens=%llu]",
                    &s, &t) != 2)
        return false;
    steps = s;
    tokens = t;
    return steps > 0;
}

double
ratio(uint64_t num, uint64_t den)
{
    return den ? (double)num / (double)den : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, {.programs = true, .json = "BENCH_compose.json"});

    std::vector<Tower> towers;
    for (const workloads::Workload &w : workloads::registry()) {
        if (!w.composed())
            continue;
        if (!args.programs.empty() &&
            workloads::filterPrograms({workloads::specFor(w, Lang::Mipsi)},
                                      args.programs)
                .empty())
            continue;
        const char *payload = payloadNameOf(w.name);
        const workloads::Workload *direct =
            payload ? workloads::find(payload) : nullptr;
        if (!direct) {
            std::fprintf(stderr,
                         "%s: no direct payload counterpart, skipped\n",
                         w.name.c_str());
            continue;
        }
        towers.push_back({&w, direct});
    }
    if (towers.empty()) {
        std::fprintf(stderr, "no composed workloads selected\n");
        return 1;
    }

    // Build the flat suite: kRungs specs per tower. Every composed
    // rung shares one pre-compiled Scriptel image so the tower runs
    // identical inner code and the profiler knows its symbol ranges.
    std::vector<BenchSpec> specs;
    std::vector<std::shared_ptr<mips::Image>> images;
    for (const Tower &tower : towers) {
        BenchSpec payload_spec =
            workloads::specFor(*tower.payload, Lang::Mipsi);
        BenchSpec composed_spec =
            workloads::specFor(*tower.composed, Lang::Mipsi);
        auto image = std::make_shared<mips::Image>(minic::compileMips(
            composed_spec.source, composed_spec.name));
        images.push_back(image);

        BenchSpec s0 = payload_spec;
        s0.lang = Lang::C;
        BenchSpec s1 = payload_spec;
        BenchSpec s2 = composed_spec;
        s2.lang = Lang::C;
        s2.image = image;
        BenchSpec s3 = composed_spec;
        s3.image = image;
        BenchSpec s4 = composed_spec;
        s4.lang = Lang::MipsiThreaded;
        s4.image = image;
        BenchSpec s5 = composed_spec;
        s5.lang = Lang::MipsiJit;
        s5.image = image;
        for (BenchSpec *s : {&s0, &s1, &s2, &s3, &s4, &s5})
            specs.push_back(std::move(*s));
    }

    // The composed-mipsi rung carries the per-level profiler.
    std::vector<std::unique_ptr<workloads::GuestFetchProfiler>> profs(
        specs.size());
    std::vector<Measurement> results = runSuiteWith(
        specs, args.suite.jobs, [&](const BenchSpec &spec, size_t i) {
            std::vector<trace::Sink *> sinks;
            if (i % kRungs == 3) {
                profs[i] = std::make_unique<workloads::GuestFetchProfiler>(
                    *images[i / kRungs]);
                sinks.push_back(profs[i].get());
            }
            return runOrReplay(spec, args.suite.io, sinks);
        });

    std::printf("Composition tower: Scriptel (MiniC script interpreter) "
                "on mipsi\n\n");

    std::string json = "{\n  \"schema\": \"interp-compose-v1\",\n"
                       "  \"towers\": [\n";
    int bad = 0;

    for (size_t t = 0; t < towers.size(); ++t) {
        const Tower &tower = towers[t];
        const Measurement *r = &results[t * kRungs];
        for (size_t i = 0; i < kRungs; ++i)
            if (r[i].failed) {
                std::printf("%s: rung %s failed: %s\n",
                            tower.composed->name.c_str(), kRungLabel[i],
                            r[i].error.c_str());
                ++bad;
            }
        if (r[0].failed || r[1].failed || r[2].failed || r[3].failed ||
            r[4].failed || r[5].failed)
            continue;

        uint64_t steps = 0, tokens = 0;
        size_t payload_end = 0;
        bool trailer_ok =
            parseTrailer(r[3].stdoutText, steps, tokens, payload_end);

        // Golden contract: every composed rung byte-identical, the
        // payload prefix identical to the direct program's stdout,
        // and the registry golden (captured at the baseline) matches.
        bool composed_identical =
            r[3].stdoutText == r[2].stdoutText &&
            r[3].stdoutText == r[4].stdoutText &&
            r[3].stdoutText == r[5].stdoutText;
        bool payload_matches =
            trailer_ok && r[0].stdoutText == r[1].stdoutText &&
            r[3].stdoutText.compare(0, payload_end, r[0].stdoutText) == 0;
        bool golden_ok = workloads::goldenMatches(
            *tower.composed, Lang::Mipsi, r[3].stdoutText);
        if (!composed_identical || !payload_matches || !golden_ok)
            ++bad;

        std::printf("== %s  (payload: %s, %llu inner steps, %llu "
                    "tokens)%s\n",
                    tower.composed->name.c_str(),
                    tower.payload->name.c_str(),
                    (unsigned long long)steps,
                    (unsigned long long)tokens,
                    composed_identical && payload_matches && golden_ok
                        ? ""
                        : "  [CONTRACT VIOLATION]");
        std::printf("   %-18s %5s %12s %12s %10s %8s %9s\n", "rung",
                    "lvls", "insts", "virt-cmds", "fd-insts", "fd/cmd",
                    "insts/step");
        for (size_t i = 0; i < kRungs; ++i) {
            const Measurement &m = r[i];
            std::printf("   %-18s %5d %12llu %12llu %10llu %8.1f %9.0f\n",
                        kRungLabel[i], kRungLevels[i],
                        (unsigned long long)m.profile.userInstructions(),
                        (unsigned long long)m.commands,
                        (unsigned long long)m.profile.fetchDecodeInsts(),
                        ratio(m.profile.fetchDecodeInsts(), m.commands),
                        steps ? (double)m.profile.userInstructions() /
                                    (double)steps
                              : 0.0);
        }

        double outer_on_payload = ratio(r[1].profile.userInstructions(),
                                        r[0].profile.userInstructions());
        double inner_factor = ratio(r[2].profile.userInstructions(),
                                    r[0].profile.userInstructions());
        double outer_on_composed =
            ratio(r[3].profile.userInstructions(),
                  r[2].profile.userInstructions());
        double total = ratio(r[3].profile.userInstructions(),
                             r[0].profile.userInstructions());
        double threaded_factor =
            ratio(r[4].profile.userInstructions(),
                  r[2].profile.userInstructions());
        double jit_factor = ratio(r[5].profile.userInstructions(),
                                  r[2].profile.userInstructions());
        std::printf("   blowup: outer %.1fx on plain code, %.1fx on the "
                    "inner interpreter;\n"
                    "           inner %.1fx; total %.0fx = %.1f x %.1f "
                    "(multiplicative)\n"
                    "           tiered outer: threaded %.1fx, jit %.1fx "
                    "over scriptel-native\n",
                    outer_on_payload, outer_on_composed, inner_factor,
                    total, inner_factor, outer_on_composed,
                    threaded_factor, jit_factor);

        const workloads::GuestFetchProfiler *prof =
            profs[t * kRungs + 3].get();
        std::printf("   per-level attribution (composed-mipsi rung, by "
                    "guest PC):\n");
        std::printf("   %-18s %12s %12s %12s %11s\n", "inner phase",
                    "outer-fd", "outer-exec", "total", "guest-fetch");
        std::string phase_json;
        for (size_t p = 0; p < (size_t)workloads::InnerPhase::kCount;
             ++p) {
            const workloads::PhaseCounters &pc = prof->phases()[p];
            if (pc.total() == 0 && pc.guestFetches == 0)
                continue;
            const char *pname =
                workloads::innerPhaseName((workloads::InnerPhase)p);
            std::printf("   %-18s %12llu %12llu %12llu %11llu\n", pname,
                        (unsigned long long)pc.outerFetchDecode,
                        (unsigned long long)pc.outerExecute,
                        (unsigned long long)pc.total(),
                        (unsigned long long)pc.guestFetches);
            char pbuf[320];
            std::snprintf(
                pbuf, sizeof pbuf,
                "        {\"phase\": \"%s\", \"outer_fd_insts\": %llu, "
                "\"outer_exec_insts\": %llu, \"outer_precompile_insts\": "
                "%llu, \"guest_fetches\": %llu}",
                pname, (unsigned long long)pc.outerFetchDecode,
                (unsigned long long)pc.outerExecute,
                (unsigned long long)pc.outerPrecompile,
                (unsigned long long)pc.guestFetches);
            if (!phase_json.empty())
                phase_json += ",\n";
            phase_json += pbuf;
        }
        std::printf("\n");

        std::string rung_json;
        for (size_t i = 0; i < kRungs; ++i) {
            const Measurement &m = r[i];
            char rbuf[400];
            std::snprintf(
                rbuf, sizeof rbuf,
                "        {\"rung\": \"%s\", \"mode\": \"%s\", "
                "\"levels\": %d, \"insts\": %llu, \"commands\": %llu, "
                "\"fd_insts\": %llu, \"memmodel_insts\": %llu, "
                "\"cycles\": %llu}",
                kRungLabel[i], langName(m.lang), kRungLevels[i],
                (unsigned long long)m.profile.userInstructions(),
                (unsigned long long)m.commands,
                (unsigned long long)m.profile.fetchDecodeInsts(),
                (unsigned long long)m.profile.memModelInsts(),
                (unsigned long long)m.cycles);
            if (!rung_json.empty())
                rung_json += ",\n";
            rung_json += rbuf;
        }

        char tbuf[900];
        std::snprintf(
            tbuf, sizeof tbuf,
            "    {\"workload\": \"%s\", \"payload\": \"%s\", "
            "\"inner_steps\": %llu, \"inner_tokens\": %llu,\n"
            "      \"blowup\": {\"outer_on_payload\": %.3f, "
            "\"inner\": %.3f, \"outer_on_composed\": %.3f, "
            "\"total\": %.3f, \"outer_threaded_on_composed\": %.3f, "
            "\"outer_jit_on_composed\": %.3f},\n"
            "      \"stdout_golden_ok\": %s, "
            "\"composed_rungs_identical\": %s, "
            "\"payload_matches_direct\": %s,\n"
            "      \"rungs\": [\n",
            jsonEscape(tower.composed->name).c_str(),
            jsonEscape(tower.payload->name).c_str(),
            (unsigned long long)steps, (unsigned long long)tokens,
            outer_on_payload, inner_factor, outer_on_composed, total,
            threaded_factor, jit_factor, golden_ok ? "true" : "false",
            composed_identical ? "true" : "false",
            payload_matches ? "true" : "false");
        json += tbuf;
        json += rung_json + "\n      ],\n      \"per_level\": [\n" +
                phase_json + "\n      ]}";
        json += t + 1 < towers.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";

    std::printf("Reading the tower: insts/step normalizes every rung to "
                "one inner-interpreter\nstep, so the composed rows show "
                "the multiplied cost directly. The per-level\ntable "
                "splits the composed rung's outer-native instructions "
                "by which inner\nphase the guest PC was executing — the "
                "inner interpreter's own fetch/decode\nshare, measured "
                "through two levels of interpretation.\n");

    if (!args.jsonPath.empty()) {
        std::FILE *f = std::fopen(args.jsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         args.jsonPath.c_str());
            return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "wrote %zu towers to %s\n", towers.size(),
                     args.jsonPath.c_str());
    }
    return bad == 0 ? 0 : 1;
}
