/**
 * @file
 * Per-level attribution for the composition tower (guest-on-guest).
 *
 * When Scriptel — a mini script interpreter written in MiniC — runs
 * under mipsi, the outer Profile's fetch/decode vs execute split
 * describes only the *outer* interpreter. The inner interpreter's own
 * structure (its fetch loop, its decode ladder, its opcode handlers)
 * is invisible: it is all just "execute" to mipsi. GuestFetchProfiler
 * recovers that level: mipsi's instruction fetch surfaces the guest PC
 * as a memory-model load at (kGuestDataBit | pc), and MiniC's codegen
 * records a `fn.<name>` symbol per function, so every outer-native
 * instruction can be bucketed by which inner-interpreter phase the
 * guest program counter was in. The inner phases mirror the paper's
 * taxonomy one level down: Scriptel's tokenizer is inner Precompile,
 * fetch_op is inner FetchDecode's fetch half, exec_op's dispatch
 * ladder is its decode half, the op_* handlers are inner Execute.
 */

#ifndef INTERP_WORKLOADS_COMPOSE_HH
#define INTERP_WORKLOADS_COMPOSE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mips/image.hh"
#include "trace/events.hh"

namespace interp::workloads {

/** The paper's Table 2 categories, applied to the *inner* level. */
enum class InnerPhase : uint8_t
{
    Startup,    ///< before the first guest fetch (outer precompile)
    Precompile, ///< inner tokenizer/loader (load_script, tokenize, ...)
    Fetch,      ///< inner command fetch (fetch_op)
    Decode,     ///< inner dispatch ladder (exec_op)
    Execute,    ///< inner opcode handlers (op_*)
    Dispatch,   ///< the inner main loop's own residue (main)
    Runtime,    ///< shared runtime helpers (print_*, read_file, ...)
    kCount,
};

const char *innerPhaseName(InnerPhase p);

/** Outer-native instruction counts charged while the guest PC was in
 *  one inner phase, split by the *outer* interpreter's category. */
struct PhaseCounters
{
    uint64_t outerFetchDecode = 0;
    uint64_t outerExecute = 0;
    uint64_t outerPrecompile = 0;
    uint64_t guestFetches = 0; ///< guest instructions fetched in phase

    uint64_t total() const
    {
        return outerFetchDecode + outerExecute + outerPrecompile;
    }
};

/** Per-guest-function tallies (the drill-down table). */
struct FuncCounters
{
    std::string name; ///< without the fn. prefix
    uint32_t start = 0;
    uint32_t end = 0;
    InnerPhase phase = InnerPhase::Runtime;
    uint64_t outerInsts = 0;
    uint64_t guestFetches = 0;
};

/**
 * Trace sink attributing every outer-native instruction to the inner
 * interpreter phase owning the current guest PC. Pass as an extra
 * sink to harness::run() for a baseline-MIPSI composed workload; the
 * guest PC is tracked through mipsi's per-instruction fetch loads, so
 * the remedy/jit rungs (which elide those fetches by design) only
 * yield totals, not per-phase splits.
 */
class GuestFetchProfiler : public trace::Sink
{
  public:
    explicit GuestFetchProfiler(const mips::Image &image);

    void onBatch(const trace::BundleBatch &batch) override;

    const std::array<PhaseCounters, (size_t)InnerPhase::kCount> &
    phases() const
    {
        return phases_;
    }
    const std::vector<FuncCounters> &functions() const { return funcs_; }

    /** Classify a guest function name into its inner phase. */
    static InnerPhase classify(const std::string &fn_name);

  private:
    size_t indexOf(uint32_t guest_pc) const;

    std::vector<FuncCounters> funcs_; ///< sorted by start address
    std::array<PhaseCounters, (size_t)InnerPhase::kCount> phases_{};
    size_t cur_ = SIZE_MAX; ///< function owning the last guest fetch
};

} // namespace interp::workloads

#endif // INTERP_WORKLOADS_COMPOSE_HH
