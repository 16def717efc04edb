/**
 * @file
 * Record-once / replay-many support for the benchmark harness.
 *
 * The paper captured each workload's trace once and fed it to every
 * simulator configuration; these helpers give the bench drivers the
 * same workflow. `--record <dir>` makes every suite run also write a
 * binary trace (tracefile::TraceWriter) into <dir>; `--replay <dir>`
 * skips the interpreters entirely and drives the Profile / Machine /
 * extra sinks from the recorded stream, producing byte-identical
 * Measurements. Trace files are named <lang>-<bench>.itr, so a suite
 * recorded by one driver replays under any other.
 */

#ifndef INTERP_HARNESS_RECORD_REPLAY_HH
#define INTERP_HARNESS_RECORD_REPLAY_HH

#include <string>
#include <vector>

#include "harness/runner.hh"

namespace interp::harness {

/** Trace directories for one suite invocation (empty = off). */
struct TraceIo
{
    std::string recordDir; ///< write a trace per run into this dir
    std::string replayDir; ///< replay traces from this dir
    bool active() const
    {
        return !recordDir.empty() || !replayDir.empty();
    }
};

/**
 * Canonical trace file name for a spec: lowercase language, sanitized
 * benchmark name, `.itr` — e.g. "perl-txt2html.itr".
 */
std::string traceFileName(const BenchSpec &spec);

/** traceFileName() joined onto @p dir. */
std::string traceFilePath(const std::string &dir, const BenchSpec &spec);

/**
 * Replay the trace at @p path into a fresh Profile (plus the Table 3
 * machine when @p with_machine, plus @p extra_sinks) and return the
 * Measurement the live run would have produced. The file's recorded
 * language/benchmark must match @p spec (fatal() otherwise —
 * replaying the wrong tape is a methodology error, not a warning).
 * Program stdout is not part of a trace, so stdoutText stays empty.
 */
Measurement replayTrace(const std::string &path, const BenchSpec &spec,
                        const std::vector<trace::Sink *> &extra_sinks = {},
                        const sim::MachineConfig *machine_cfg = nullptr,
                        bool with_machine = true);

/**
 * harness::run() that also records the run's trace into the tape at
 * @p tape_path (creating its directory), labelled with @p spec's
 * language and name.
 */
Measurement recordRun(const BenchSpec &spec, const std::string &tape_path,
                      const std::vector<trace::Sink *> &extra_sinks = {},
                      const sim::MachineConfig *machine_cfg = nullptr,
                      bool with_machine = true);

/**
 * harness::run() with the record/replay policy applied: replay from
 * io.replayDir if set, otherwise run live, also recording into
 * io.recordDir if set. Drop-in replacement for run() in suite
 * lambdas.
 */
Measurement runOrReplay(const BenchSpec &spec, const TraceIo &io,
                        const std::vector<trace::Sink *> &extra_sinks = {},
                        const sim::MachineConfig *machine_cfg = nullptr,
                        bool with_machine = true);

} // namespace interp::harness

#endif // INTERP_HARNESS_RECORD_REPLAY_HH
