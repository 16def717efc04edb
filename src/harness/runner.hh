/**
 * @file
 * Benchmark registry and runner: the paper's methodology as a
 * library. A BenchSpec names a program, its language and workload;
 * run() executes it under full instrumentation (software Profile +
 * Table 3 machine model, plus any extra sinks) and returns the
 * Measurement every table and figure is derived from.
 */

#ifndef INTERP_HARNESS_RUNNER_HH
#define INTERP_HARNESS_RUNNER_HH

#include <chrono>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "mips/image.hh"
#include "sim/machine.hh"
#include "trace/profile.hh"

namespace interp::jvm {
struct Module;
struct TierArtifact;
struct PairProfile;
} // namespace interp::jvm

namespace interp::jit {
class JitArtifact;
} // namespace interp::jit

namespace interp::harness {

/**
 * The execution modes of the study: the five faithful baselines, the
 * three §5 fetch/decode remedies, and the tier-2 modes (profile-
 * discovered superinstructions + monomorphic inline caches attacking
 * the §3.3 memory-model cost). Each remedy runs the same programs as
 * its baseline with identical per-command execute attribution; tier-2
 * modes additionally shrink the memory-model *subset* of execute
 * (execute minus memModel stays byte-identical), with one-time
 * tiering cost charged to Precompile. The jit modes are the tier-3
 * endpoint: per-opcode stencils concatenated into an executable
 * buffer (src/jit/), with the emitted region registered as synthetic
 * code so §4 simulation still attributes its i-cache behaviour.
 */
enum class Lang : uint8_t
{
    C,     ///< compiled MiniC, direct execution (the baseline)
    Mipsi, ///< MiniC compiled to MIPS, interpreted by MIPSI
    Java,  ///< MiniC compiled to bytecode, run on the JVM-like VM
    Perl,  ///< perlish source
    Tcl,   ///< tclish source
    MipsiThreaded, ///< MIPSI with predecoded direct threading (§5)
    JavaQuick,     ///< JVM with bytecode quickening (§5)
    TclBytecode,   ///< tclish with Tcl 8.0-style compiled scripts (§5)
    JavaTier2,     ///< quickened + superinstructions + field ICs
    TclTier2,      ///< bytecode + command-pair fusion + symbol ICs
    PerlIC,        ///< baseline op tree + hash-lookup inline caches
    MipsiJit,      ///< threaded + per-opcode stencil region (tier 3)
    TclJit,        ///< tier-2 + per-command stencil region (tier 3)
};

/**
 * One execution mode: everything the system classifies a mode by.
 * Adding a mode means one enumerator, one row in kModes and one
 * makeEngine() case.
 */
struct ModeInfo
{
    Lang lang;
    const char *name;  ///< display and command-line name ("Tcl-jit")
    const char *ident; ///< the enumerator's spelling (generated code)
    Lang baseline;     ///< the faithful mode it is measured against
    int tier;          ///< 0 baseline, 1 §5 remedy, 2 tier-2, 3 jit
    /** Baseline rows: the runtime tier ladder, i.e. the mode a warm
     *  program is promoted to at the first (remedy), second (tier-2)
     *  and third (jit) hotness thresholds. A language without a rung
     *  repeats the one below. Unused on the other rows. */
    Lang ladder[3];
    /** As a rung of a warm program's ladder, the mode runs through a
     *  published Artifact that one request builds (TierSlot). */
    bool artifact = false;
};

// Inline so header-only consumers (the workload registry is below
// interp_harness in the link order) can read it without pulling in
// the runner's symbols.
inline constexpr ModeInfo kModes[] = {
    {Lang::C, "C", "C", Lang::C, 0, {Lang::C, Lang::C, Lang::C}},
    {Lang::Mipsi, "MIPSI", "Mipsi", Lang::Mipsi, 0,
     {Lang::MipsiThreaded, Lang::MipsiThreaded, Lang::MipsiJit}},
    {Lang::Java, "Java", "Java", Lang::Java, 0,
     {Lang::JavaQuick, Lang::JavaTier2, Lang::JavaTier2}},
    {Lang::Perl, "Perl", "Perl", Lang::Perl, 0,
     {Lang::PerlIC, Lang::PerlIC, Lang::PerlIC}},
    {Lang::Tcl, "Tcl", "Tcl", Lang::Tcl, 0,
     {Lang::TclBytecode, Lang::TclTier2, Lang::TclJit}},
    {Lang::MipsiThreaded, "MIPSI-threaded", "MipsiThreaded", Lang::Mipsi,
     1, {}},
    {Lang::JavaQuick, "Java-quick", "JavaQuick", Lang::Java, 1, {}},
    {Lang::TclBytecode, "Tcl-bytecode", "TclBytecode", Lang::Tcl, 1, {}},
    {Lang::JavaTier2, "Java-tier2", "JavaTier2", Lang::Java, 2, {}, true},
    {Lang::TclTier2, "Tcl-tier2", "TclTier2", Lang::Tcl, 2, {}},
    {Lang::PerlIC, "Perl-ic", "PerlIC", Lang::Perl, 2, {}},
    {Lang::MipsiJit, "MIPSI-jit", "MipsiJit", Lang::Mipsi, 3, {}, true},
    {Lang::TclJit, "Tcl-jit", "TclJit", Lang::Tcl, 3, {}},
};

/** Number of modes; also one past the largest wire encoding. */
inline constexpr int kNumModes = (int)std::size(kModes);

constexpr bool
modesIndexedByLang()
{
    for (int i = 0; i < kNumModes; ++i)
        if ((int)kModes[i].lang != i)
            return false;
    return true;
}
static_assert(modesIndexedByLang(), "kModes rows must follow Lang order");

constexpr const ModeInfo &
modeInfo(Lang lang)
{
    return kModes[(size_t)lang];
}

inline const char *
langName(Lang lang)
{
    return (int)lang < kNumModes ? modeInfo(lang).name : "?";
}

/** True for every non-baseline mode (§5 remedies, tier-2 and jit). */
inline bool isRemedy(Lang lang) { return modeInfo(lang).tier > 0; }
inline bool isTier2(Lang lang) { return modeInfo(lang).tier == 2; }
inline bool isJit(Lang lang) { return modeInfo(lang).tier == 3; }

/** The ladder rung @p base is promoted to at @p level (1-3); identity
 *  for modes that are not baselines. */
constexpr Lang
rungOf(Lang base, int level)
{
    const ModeInfo &m = modeInfo(base);
    return m.tier == 0 ? m.ladder[level - 1] : base;
}

/** @p base's mode of exactly tier @p tier (its §5 remedy at 1, its
 *  jit mode at 3), or @p base when its ladder has none. */
constexpr Lang
modeAtTier(Lang base, int tier)
{
    Lang rung = rungOf(base, tier);
    return modeInfo(rung).tier == tier ? rung : base;
}

/**
 * What a tiered rung executes through: a pre-quickened jvm module with
 * its fusion and inline-cache tables (Java-tier2), or a stencil
 * program (MIPSI-jit). Immutable once built, so every run holding one
 * may share it. Java-quick needs none: it quickens a private copy of
 * the module in place.
 */
using Artifact = std::variant<std::shared_ptr<const jvm::TierArtifact>,
                              std::shared_ptr<const jit::JitArtifact>>;

/** True when @p a holds an artifact of either kind. */
inline bool
present(const Artifact &a)
{
    return std::visit([](const auto &p) { return p != nullptr; }, a);
}

/**
 * The tier-artifact slot: what carries a warm program up the tier
 * ladder. The tier manager fills it (tier/tier.hh); a standalone run
 * leaves it empty.
 */
struct TierSlot
{
    /** Published artifact to execute with. When absent, a run in an
     *  artifact mode (Java-tier2, MIPSI-jit) builds one in-run,
     *  charged to Precompile. A poisoned stencil program
     *  (debugPoison, or a build whose emit buffer overflowed) is
     *  never executed: the run falls back to the previous tier,
     *  mirroring debugPoisonIc. */
    Artifact artifact;
    /** Invoked with the artifact the run built (the tier manager's
     *  publish hook). */
    std::function<void(Artifact)> publish;
    /** Pair profile a Java-tier2 build starts from (skips the
     *  standalone profiling pre-run). */
    std::shared_ptr<const jvm::PairProfile> pairs;
    /** When set on a baseline Java run, dynamic adjacent-pair counts
     *  are collected into it (host-side only, zero emission). */
    std::shared_ptr<jvm::PairProfile> collect;

    /** The artifact if it is a @p T, else null. */
    template <class T>
    std::shared_ptr<const T>
    get() const
    {
        auto *p = std::get_if<std::shared_ptr<const T>>(&artifact);
        return p ? *p : nullptr;
    }
};

/** One benchmark to run. */
struct BenchSpec
{
    Lang lang;
    std::string name;     ///< benchmark name (des, compress, ...)
    std::string source;   ///< full program text
    /**
     * Pre-linked guest image (C/MIPSI only). When set, `source` is
     * ignored. Used by the microbenchmarks, whose C baselines are
     * hand-scheduled assembly — the paper's baseline was an optimizing
     * C compiler, and MiniC's naive codegen would flatter the
     * interpreters by a constant factor otherwise.
     */
    std::shared_ptr<mips::Image> image;
    bool needsInputs = false; ///< install the standard input files
    uint64_t maxCommands = 400'000'000;
    /** The run throws trace::DeadlineExpired at the first trace
     *  safepoint past this (trace::Execution::setDeadline); max()
     *  never fires. */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();

    // --- warm-catalog / tier-up inputs (interpd) ----------------------
    /**
     * Pre-compiled jvm module shared from a warm catalog (Java modes
     * only; `source` is ignored when set). The runner never mutates
     * it: Java-quick quickens a private copy, and Java-tier2 runs a
     * published artifact or builds one in-run.
     */
    std::shared_ptr<const jvm::Module> module;
    TierSlot tier;
};

/** Everything measured from one run. */
struct Measurement
{
    Lang lang;
    std::string name;
    size_t programBytes = 0;
    uint64_t commands = 0;
    uint64_t cycles = 0;
    trace::Profile profile;
    sim::SlotBreakdown breakdown;
    double imissPer100 = 0;
    std::string stdoutText;
    bool finished = false;
    /**
     * The run aborted before producing results (a fatal program error
     * or an exception inside a suite job); `error` says why. Only the
     * parallel/suite helpers set this — a direct run() call propagates
     * the error instead.
     */
    bool failed = false;
    std::string error;
    /** Command names resolved from the interpreter's command set. */
    std::vector<std::string> commandNames;
};

/**
 * Run one benchmark under a Profile and (optionally) the Table 3
 * machine model.
 * @param extra_sinks  additional consumers of the instruction stream
 * @param machine_cfg  machine configuration (null = Table 3 default)
 * @param with_machine simulate timing (disable for counting-only runs,
 *                     which then build no machine and report cycles,
 *                     breakdown and imissPer100 as zero)
 * Throws trace::DeadlineExpired once spec.deadline passes mid-run.
 */
Measurement run(const BenchSpec &spec,
                const std::vector<trace::Sink *> &extra_sinks = {},
                const sim::MachineConfig *machine_cfg = nullptr,
                bool with_machine = true);

// --- suites ------------------------------------------------------------

/** The Table 2 macro suite (des in all languages + per-language apps). */
std::vector<BenchSpec> macroSuite();

/** Each row of @p suite in its own mode, then in each distinct rung of
 *  its ladder (a row without one appears once). */
std::vector<BenchSpec> ladderSuite(const std::vector<BenchSpec> &suite);

/** One microbenchmark from Table 1, for one language. */
BenchSpec microBench(Lang lang, const std::string &op, int iterations);

/** The Table 1 microbenchmark names. */
std::vector<std::string> microOps();

/** Default per-language iteration counts for the micro suite. */
int microIterations(Lang lang);

} // namespace interp::harness

#endif // INTERP_HARNESS_RUNNER_HH
