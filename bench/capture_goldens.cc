/**
 * @file
 * Regenerates src/workloads/goldens.inc: runs every registry workload
 * under each of its baseline modes (counting-only, no machine model)
 * and prints the expected-stdout table. Literal text for short
 * outputs, fnv64 checksums for long ones, so the registry source
 * stays reviewable.
 *
 *   build/bench/capture_goldens > src/workloads/goldens.inc
 */

#include <cstdio>
#include <string>

#include "harness/runner.hh"
#include "workloads/registry.hh"

using namespace interp;
using harness::Lang;

namespace {

/** Longest output embedded literally rather than checksummed. */
constexpr size_t kLiteralLimit = 240;

std::string
cEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        switch (c) {
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace

int
main()
{
    printf("// Expected-stdout goldens per (workload, baseline mode)."
           " Generated by\n"
           "// the capture_goldens tool (bench/capture_goldens.cc) —"
           " regenerate\n"
           "// with `build/bench/capture_goldens >"
           " src/workloads/goldens.inc`\n"
           "// after adding or changing a workload. Large outputs are"
           " stored as\n"
           "// fnv64 checksums.\n");
    for (const workloads::Workload &w : workloads::registry()) {
        for (const workloads::ModeSource &src : w.sources) {
            harness::BenchSpec spec = workloads::specFor(w, src.lang);
            harness::Measurement m =
                harness::run(spec, {}, nullptr, /*with_machine=*/false);
            if (!m.finished) {
                fprintf(stderr, "FAILED: %s under %s did not finish\n",
                        w.name.c_str(), harness::langName(src.lang));
                return 1;
            }
            std::string expect =
                m.stdoutText.size() <= kLiteralLimit
                    ? m.stdoutText
                    : workloads::fnv64Hex(m.stdoutText);
            printf("{\"%s\", Lang::%s, \"%s\"},\n", w.name.c_str(),
                   harness::modeInfo(src.lang).ident,
                   cEscape(expect).c_str());
            fprintf(stderr, "%-14s %-6s %6zu bytes  cmds=%llu\n",
                    w.name.c_str(), harness::langName(src.lang),
                    m.stdoutText.size(),
                    (unsigned long long)m.commands);
        }
    }
    return 0;
}
