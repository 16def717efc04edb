/**
 * @file
 * The guest-workload registry: the single source of truth for what
 * the benchmark suite runs. Every workload declares its name, a
 * traffic class (interactive short-run vs batch long-run — the
 * serving mix loadgen builds), the guest source it runs under each
 * baseline mode, and an expected-stdout golden per mode. The macro
 * suite, interpd's warm catalog and the bench drivers all enumerate
 * from here instead of keeping hard-coded lists.
 *
 * Composition-tower workloads (script non-empty) are ordinary
 * registry entries whose MIPS-mode source is the Scriptel interpreter
 * (programs/minic/scriptel.mc) specialised to read the workload's
 * script: guest-on-guest execution under mipsi, servable and
 * tierable like any other program.
 */

#ifndef INTERP_WORKLOADS_REGISTRY_HH
#define INTERP_WORKLOADS_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace interp::workloads {

/** Serving traffic class, the unit of the loadgen interactive:batch
 *  mix and of per-class latency/shed accounting. */
enum class Traffic : uint8_t
{
    Interactive, ///< short request, latency-sensitive
    Batch,       ///< long request, throughput-oriented
};

const char *trafficName(Traffic t);

/** One guest implementation of a workload: the baseline mode it runs
 *  under and the programs/-relative source path. `order` fixes the
 *  row position within the mode's suite group (the legacy Table 2
 *  ordering predates the registry and is kept stable). */
struct ModeSource
{
    harness::Lang lang;
    std::string path;
    int order = 0;
};

/** Expected stdout for a workload under one baseline mode. Either the
 *  literal text, or "fnv64:<hex>" for outputs too large to embed. */
struct Golden
{
    harness::Lang lang;
    std::string expect;
};

struct Workload
{
    std::string name;
    Traffic traffic = Traffic::Batch;
    bool needsInputs = false;
    /** Composition tower: the vfs script file Scriptel interprets
     *  (installed by installAllInputs). Empty for direct workloads. */
    std::string script;
    std::vector<ModeSource> sources;
    std::vector<Golden> goldens;

    /** True if the workload runs under @p mode (via its baseline). */
    bool supports(harness::Lang mode) const;
    bool composed() const { return !script.empty(); }
};

/** All registered workloads, legacy Table 2 entries first. */
const std::vector<Workload> &registry();

/** Lookup by workload name; nullptr when unknown. */
const Workload *find(const std::string &name);

/** The declared golden for @p mode's baseline; nullptr if none. */
const std::string *goldenFor(const Workload &w, harness::Lang mode);

/** Compare @p got against the golden (literal or fnv64 form). False
 *  when no golden is declared. */
bool goldenMatches(const Workload &w, harness::Lang mode,
                   const std::string &got);

/** FNV-1a 64-bit, for the checksum golden form. */
uint64_t fnv64(const std::string &text);
std::string fnv64Hex(const std::string &text);

/** Build the BenchSpec running @p w under @p mode. */
harness::BenchSpec specFor(const Workload &w, harness::Lang mode);

/** The full macro suite in canonical order (what macroSuite serves):
 *  per baseline mode, registry workloads sorted by ModeSource::order. */
std::vector<harness::BenchSpec> macroRows();

/** Read a source file from the repository's programs/ directory. */
std::string loadProgramFile(const std::string &relative_path);

/** The Scriptel interpreter source specialised to run @p script. */
std::string composeSource(const std::string &script);

// --- suite subsetting (--programs=<glob>) ------------------------------

/** Shell-style match: `*` any run, `?` any one char. */
bool globMatch(const std::string &pattern, const std::string &name);

/** Keep only rows whose name matches one of the comma-separated
 *  patterns; an empty pattern list keeps everything. */
std::vector<harness::BenchSpec>
filterPrograms(std::vector<harness::BenchSpec> suite,
               const std::string &patterns);

} // namespace interp::workloads

#endif // INTERP_WORKLOADS_REGISTRY_HH
