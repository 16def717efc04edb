/**
 * @file
 * Stall-accounting model of the 2-issue superscalar of §4 (Table 3).
 *
 * The machine consumes the instrumented instruction stream as a trace
 * sink and attributes every unfilled issue slot to one of the Table 3
 * causes. As in the paper's simulator, execution units are uniform,
 * the first-level data cache is effectively banked (no bank-conflict
 * modeling), and only user-level instructions are seen.
 *
 * Latencies (Table 3):
 *   other      variable  control hazards, fp/int multiply
 *   short int  2         shift and byte instructions
 *   load delay 3         pipeline delay with first-level cache hit
 *   mispredict 4         branch misprediction
 *   dtlb/itlb  40        TLB miss
 *   dmiss/imiss 6 or 30  L1 miss that hits/misses in the 512 KB L2
 *
 * Dependence-induced delays (load-use, short-int-use) depend on
 * instruction scheduling that an attribute trace does not carry; the
 * model charges them for a fixed fraction of the instructions of the
 * class, applied deterministically (every Nth instance). The fractions
 * are configuration parameters documented in MachineConfig.
 *
 * Accounting is kept as a single issue-slot ledger: a retired
 * instruction fills one slot (busy) and a stall of k cycles wastes
 * k * issueWidth slots, charged to its cause. Every slot the machine
 * ever issued is therefore in exactly one ledger column, so the
 * Figure 3 breakdown sums to 100% by construction — the paper's bars
 * are slot fractions, and mixing cycle- and slot-denominated terms
 * (as an earlier version of breakdown() did) cannot reproduce them.
 *
 * The I-cache, D-cache, L2 and both TLBs are sim::Cache instances (a
 * TLB is one fully associative set of page-sized lines), so every
 * lookup is one Cache::access.
 *
 * The hot path is batched: trace producers deliver BundleBatches and
 * onBatch() drains each batch in one non-virtual pass over its
 * columns, one class switch per bundle, with the cache and predictor
 * lookups inlined (their access methods live in the headers). A load
 * or store calls dataAccess() out of line for its D-TLB, D-cache and
 * L2 lookups: forcing it inline measured no gain. Runs of
 * same-class bundles are too short to hoist the switch out of: the
 * served keys average 1.13 bundles per run. A bundle that stays on
 * the last fetched i-line costs one compare, and the use-delay
 * charges are summed over the batch and charged once, in closed form.
 * With MachineConfig::shadowCheck (default-on under
 * INTERP_SIM_CHECK, which every INTERP_SANITIZE build defines) a shadow
 * machine re-simulates every batch bundle-at-a-time through the
 * straightforward reference switch and fatal()s on the first counter
 * divergence between the two paths.
 */

#ifndef INTERP_SIM_MACHINE_HH
#define INTERP_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/branch.hh"
#include "sim/cache.hh"
#include "trace/events.hh"

namespace interp::sim {

/** Stall causes, ordered as in Table 3. */
enum class StallCause : uint8_t
{
    Other,
    ShortInt,
    LoadDelay,
    Mispredict,
    Dtlb,
    Itlb,
    Dmiss,
    Imiss,
    NumCauses,
};

constexpr int kNumStallCauses = (int)StallCause::NumCauses;

/** Printable name of a stall cause. */
const char *stallCauseName(StallCause cause);

/** Full machine configuration with Table 3 defaults. */
struct MachineConfig
{
    uint32_t issueWidth = 2;

    CacheConfig icache{8 * 1024, 1, 32};
    CacheConfig dcache{8 * 1024, 1, 32};
    CacheConfig l2{512 * 1024, 1, 32};

    /// TLB entry counts; powers of two (Cache rejects other counts).
    uint32_t itlbEntries = 8;
    uint32_t dtlbEntries = 32;
    uint32_t pageBits = 13; // 8 KB pages

    BranchConfig branch;

    uint32_t l1MissPenalty = 6;   ///< L1 miss, L2 hit
    uint32_t l2MissPenalty = 30;  ///< L1 miss, L2 miss
    uint32_t tlbMissPenalty = 40;
    uint32_t mispredictPenalty = 4;
    uint32_t loadDelayCycles = 3;
    uint32_t shortIntCycles = 2;
    uint32_t floatOpCycles = 4;   ///< charged to "other"

    /**
     * One in loadUsePeriod loads is followed closely enough by a use
     * to expose the full 3-cycle load delay (≈ compiler scheduling
     * quality); likewise for short-int results and fp/multiply ops.
     */
    uint32_t loadUsePeriod = 3;
    uint32_t shortIntUsePeriod = 4;
    uint32_t floatUsePeriod = 2;

    /**
     * Re-simulate every delivered bundle through a bundle-at-a-time
     * shadow machine and fatal() on any counter divergence from the
     * batched hot loop. Defaults on when built with INTERP_SIM_CHECK
     * (every INTERP_SANITIZE build, the ASan+UBSan preset's, defines
     * it), off otherwise; tests flip it per-instance in any build.
     */
#ifdef INTERP_SIM_CHECK
    bool shadowCheck = true;
#else
    bool shadowCheck = false;
#endif
};

/**
 * Issue-slot breakdown for reporting Figure 3. All nine columns are
 * percentages of the same denominator (total issue slots), so
 * busyPct + Σ stallPct == 100 up to floating-point rounding.
 */
struct SlotBreakdown
{
    double busyPct = 0;
    std::array<double, kNumStallCauses> stallPct{};

    /** busyPct + every stallPct; 100.0 ± ε on any non-empty run. */
    double
    total() const
    {
        double sum = busyPct;
        for (double pct : stallPct)
            sum += pct;
        return sum;
    }
};

/** The trace-driven machine model. */
class Machine : public trace::Sink
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig());

    void onBatch(const trace::BundleBatch &batch) override;

    /** Total simulated cycles so far. */
    uint64_t cycles() const;
    /** Instructions retired. */
    uint64_t instructions() const { return insts; }
    /** Stall cycles attributed to @p cause. */
    uint64_t stallCycles(StallCause cause) const
    {
        return stallSlots[(int)cause] / cfg.issueWidth;
    }
    /** Issue slots wasted by @p cause (stall cycles × issue width). */
    uint64_t slotsLostTo(StallCause cause) const
    {
        return stallSlots[(int)cause];
    }
    /** Every slot accounted so far: busy (== instructions) + stalls. */
    uint64_t totalSlots() const;

    /** Issue-slot percentages (Figure 3 bar contents). */
    SlotBreakdown breakdown() const;

    /** Instruction-cache misses per 100 instructions (Figure 4). */
    double imissPer100Insts() const;

    const Cache &icache() const { return il1; }
    const Cache &dcache() const { return dl1; }
    const Cache &l2cache() const { return l2; }
    const Cache &itlb() const { return itlb_; }
    const Cache &dtlb() const { return dtlb_; }
    const BranchPredictor &predictor() const { return bp; }

  private:
    /** Batched hot loop: one pass over the batch's SoA columns. */
    void simulateBatch(const trace::BundleBatch &batch);
    /** Reference path: one bundle through the per-bundle switch. Only
     *  the shadow machine runs it (MachineConfig::shadowCheck). */
    void simulateOne(const trace::Bundle &bundle);
    /** Feed the shadow machine and compare every counter. */
    void crossCheck(const trace::BundleBatch &batch);
    /** fatal() on the first counter divergence from the shadow. */
    void compareWithShadow();

    /** Fetch the i-cache lines of @p count instructions at @p pc. */
    void fetch(uint32_t pc, uint32_t count);
    void dataAccess(uint32_t addr);
    void addStall(StallCause cause, uint64_t cycles_);

    MachineConfig cfg;
    Cache il1;
    Cache dl1;
    Cache l2;
    Cache itlb_;
    Cache dtlb_;
    BranchPredictor bp;

    uint64_t insts = 0; ///< busy slots: one per retired instruction
    uint64_t stallSlots[kNumStallCauses] = {};
    uint64_t imisses = 0;

    // Deterministic accumulators for the use-delay fractions.
    uint32_t loadTick = 0;
    uint32_t shortTick = 0;
    uint32_t floatTick = 0;
    /// log2(icache line bytes); Cache's ctor guarantees a power of two.
    uint32_t ilineShift = 5;
    // Last fetched line/page, to skip redundant lookups.
    uint64_t lastFetchLine = ~0ull;
    uint64_t lastFetchPage = ~0ull;

    /** Bundle-at-a-time re-simulation (MachineConfig::shadowCheck). */
    std::unique_ptr<Machine> shadow;
};

} // namespace interp::sim

#endif // INTERP_SIM_MACHINE_HH
