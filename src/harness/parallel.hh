/**
 * @file
 * Parallel suite execution for the benchmark harness.
 *
 * The paper's evaluation is a cross product of independent runs;
 * these helpers execute a std::vector<BenchSpec> (or any indexed job
 * set) on a ThreadPool and return Measurements in deterministic spec
 * order regardless of completion order. Every job gets its own
 * Profile, Machine, FileSystem and sinks inside harness::run(), and
 * the deterministic AddressMapper makes the results bit-identical to
 * a serial pass, so `--jobs N` changes wall-clock time only.
 *
 * Failure containment: each job runs under a ScopedFatalThrow, so a
 * fatal program error (or any exception) marks that one Measurement
 * failed instead of killing the whole suite.
 */

#ifndef INTERP_HARNESS_PARALLEL_HH
#define INTERP_HARNESS_PARALLEL_HH

#include <functional>
#include <vector>

#include "harness/record_replay.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"

namespace interp::harness {

/** Resolve a user-facing jobs value: 0 -> hardware threads, >=1 kept. */
int resolveJobs(int jobs);

/**
 * Run fn(i) for every i in [0, n) on @p jobs worker threads.
 * Serial (and allocation-free) when jobs resolves to 1. @p fn must
 * not throw; wrap fallible work via runSuiteWith() instead.
 */
void parallelFor(size_t n, int jobs, const std::function<void(size_t)> &fn);

/**
 * Run every spec through @p fn (typically a harness::run wrapper)
 * on @p jobs threads. Results are returned in spec order. Exceptions
 * (including fatal() program errors) surface as Measurements with
 * failed=true and the message in error.
 */
std::vector<Measurement>
runSuiteWith(const std::vector<BenchSpec> &specs, int jobs,
             const std::function<Measurement(const BenchSpec &, size_t)> &fn);

/** Options forwarded to harness::run() for every spec of a suite. */
struct SuiteOptions
{
    int jobs = 1;                                ///< 0 = hardware threads
    const sim::MachineConfig *machineCfg = nullptr; ///< null = Table 3
    bool withMachine = true;                     ///< simulate timing
    /**
     * Record every run into io.recordDir, or replay every spec from
     * io.replayDir, instead of plain live runs (see record_replay.hh).
     * Record/replay jobs are ordinary suite jobs: they run on the
     * pool and a bad trace file fails one Measurement, not the suite.
     */
    TraceIo io;
};

/** Run a whole suite under the standard instrumentation. */
std::vector<Measurement> runSuite(const std::vector<BenchSpec> &specs,
                                  const SuiteOptions &opt = {});

/** The flags a suite driver takes on top of --jobs, --record and
 *  --replay, which every suite driver takes. */
struct BenchFlags
{
    bool modes = false;         ///< --modes=baseline|remedies|all|jit
    bool programs = false;      ///< --programs=<glob[,glob...]>
    const char *json = nullptr; ///< --json [file]: a bare --json's file
};

/** A suite driver's command line. */
struct BenchArgs
{
    SuiteOptions suite;   ///< jobs and record/replay directories
    ModeSet modes = ModeSet::Baseline;
    std::string programs; ///< glob list; "" = the whole suite
    std::string jsonPath; ///< "" = no --json
};

/**
 * Parse a suite driver's whole command line. `--jobs N` (also `-jN`;
 * 0 = one worker per hardware thread, default 1), `--record <dir>`,
 * `--replay <dir>` and the flags @p flags names take their value as
 * the next argument or after `=`; `--json` takes the next argument as
 * its file only when that does not start with '-'. Any other
 * argument, a malformed value, and --record together with --replay
 * are fatal() usage errors naming the argument.
 */
BenchArgs parseBenchArgs(int argc, const char *const *argv,
                         const BenchFlags &flags = {});

} // namespace interp::harness

#endif // INTERP_HARNESS_PARALLEL_HH
