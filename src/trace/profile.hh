/**
 * @file
 * Counting sink: the software-perspective measurements of §3.
 *
 * A Profile accumulates, for one interpreter/benchmark run, everything
 * Tables 1-2, Figures 1-2 and §3.3 report:
 *   - virtual commands retired,
 *   - native instructions split by Category (fetch/decode, execute,
 *     precompile),
 *   - per-virtual-command instruction and retirement counts,
 *   - native-library and memory-model attribution,
 *   - logical memory-model accesses (for per-access cost).
 */

#ifndef INTERP_TRACE_PROFILE_HH
#define INTERP_TRACE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/events.hh"

namespace interp::trace {

/** Per-virtual-command counters. */
struct CommandStats
{
    uint64_t retired = 0;       ///< times the command was executed
    uint64_t fetchDecode = 0;   ///< fetch/decode instructions charged
    uint64_t execute = 0;       ///< execute instructions charged
    uint64_t nativeLib = 0;     ///< subset of execute in native libraries
    uint64_t memModel = 0;      ///< subset of execute in the memory model
};

/** Accumulates software-level counters for one run. */
class Profile final : public Sink
{
  public:
    void onBatch(const BundleBatch &batch) override;
    void
    onCommand(CommandId command) override
    {
        ++totalCommands;
        if (command >= cmds.size()) [[unlikely]]
            cmds.resize(command + 1);
        ++cmds[command].retired;
    }
    void onMemModelAccess() override { ++memAccesses; }

    // --- totals ---------------------------------------------------------
    uint64_t commands() const { return totalCommands; }
    uint64_t instructions() const { return totalInsts; }
    uint64_t fetchDecodeInsts() const { return catInsts[0]; }
    uint64_t executeInsts() const { return catInsts[1]; }
    uint64_t precompileInsts() const { return catInsts[2]; }
    uint64_t nativeLibInsts() const { return nativeInsts; }
    uint64_t memModelInsts() const { return memInsts; }
    uint64_t systemInsts() const { return sysInsts; }
    /** Total instructions excluding OS work (Table 2's Native column). */
    uint64_t userInstructions() const { return totalInsts - sysInsts; }
    uint64_t memModelAccesses() const { return memAccesses; }

    /** Average fetch/decode instructions per virtual command. */
    double fetchDecodePerCommand() const;
    /** Average execute instructions per virtual command. */
    double executePerCommand() const;
    /** Average memory-model instructions per logical access. */
    double memModelCostPerAccess() const;
    /** Memory-model share of all (non-precompile) instructions. */
    double memModelFraction() const;

    // --- per-command ------------------------------------------------------
    const std::vector<CommandStats> &perCommand() const { return cmds; }

    /**
     * Commands sorted by descending execute-instruction count,
     * as (commandId, stats) pairs — the input to Figures 1 and 2.
     */
    std::vector<std::pair<CommandId, CommandStats>> byExecuteInsts() const;

    /**
     * Cumulative execute-instruction fraction covered by the top
     * @p top_n commands (a point on a Figure 1 curve).
     */
    double cumulativeExecuteShare(size_t top_n) const;

    /**
     * Accounting for @p count instructions sharing one attribution
     * (category, packed flags sans taken, command). onBatch()
     * collapses each same-attribution run into a single call, and an
     * Execution counting into this profile (countInto()) calls it once
     * per attribution counter at each flush(); every counter update is
     * an associative uint64 add, so both totals match exactly however
     * the runs are cut.
     */
    void
    accountRun(Category cat, uint8_t flags, CommandId command,
               uint64_t count)
    {
        totalInsts += count;
        if (flags & BundleBatch::kSystemBit) {
            // OS work is timed but kept out of the software-level
            // counts, as the paper's ATOM instrumentation excluded the
            // kernel.
            sysInsts += count;
            return;
        }
        catInsts[(int)cat] += count;
        if (flags & BundleBatch::kNativeBit)
            nativeInsts += count;
        if (flags & BundleBatch::kMemModelBit)
            memInsts += count;
        if (command != kNoCommand) {
            if (command >= cmds.size())
                cmds.resize(command + 1);
            CommandStats &cs = cmds[command];
            if (cat == Category::FetchDecode) {
                cs.fetchDecode += count;
            } else if (cat == Category::Execute) {
                cs.execute += count;
                if (flags & BundleBatch::kNativeBit)
                    cs.nativeLib += count;
                if (flags & BundleBatch::kMemModelBit)
                    cs.memModel += count;
            }
        }
    }

  private:
    uint64_t totalCommands = 0;
    uint64_t totalInsts = 0;
    uint64_t catInsts[3] = {0, 0, 0};
    uint64_t nativeInsts = 0;
    uint64_t memInsts = 0;
    uint64_t sysInsts = 0;
    uint64_t memAccesses = 0;
    std::vector<CommandStats> cmds;
};

} // namespace interp::trace

#endif // INTERP_TRACE_PROFILE_HH
