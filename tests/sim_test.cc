/**
 * @file
 * Unit and property tests for the architecture simulator: caches,
 * TLBs, branch prediction and the stall-accounting machine.
 */

#include <gtest/gtest.h>

#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/cache_sweep.hh"
#include "sim/machine.hh"
#include "sim/tlb.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/events.hh"

namespace {

using namespace interp;
using namespace interp::sim;

// --- Cache -------------------------------------------------------------

TEST(Cache, ColdMissThenHit)
{
    Cache cache({1024, 1, 32});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x101f)) << "same 32-byte line";
    EXPECT_FALSE(cache.access(0x1020)) << "next line misses";
}

TEST(Cache, DirectMappedConflict)
{
    Cache cache({1024, 1, 32}); // 32 sets
    cache.access(0x0000);
    cache.access(0x0000 + 1024); // same set, different tag
    EXPECT_FALSE(cache.access(0x0000)) << "evicted by the conflict";
}

TEST(Cache, TwoWayAbsorbsConflictPair)
{
    Cache cache({1024, 2, 32});
    cache.access(0x0000);
    cache.access(0x0000 + 1024);
    EXPECT_TRUE(cache.access(0x0000)) << "both fit in a 2-way set";
    EXPECT_TRUE(cache.access(0x0000 + 1024));
}

TEST(Cache, LruEvictsOldest)
{
    Cache cache({2 * 32, 2, 32}); // one set, 2 ways
    cache.access(0 * 32);
    cache.access(1 * 32);
    cache.access(0 * 32);        // refresh line 0
    cache.access(2 * 32);        // evicts line 1 (LRU)
    EXPECT_TRUE(cache.access(0 * 32));
    EXPECT_FALSE(cache.access(1 * 32));
}

/**
 * Fill-then-evict in strict LRU order, parameterized on associativity.
 * Filling a set must consume free ways without evicting valid lines
 * (first free way, as in Tlb::access), and once full, evictions must
 * follow recency order exactly.
 */
class CacheLruOrder : public testing::TestWithParam<uint32_t>
{};

TEST_P(CacheLruOrder, FillThenEvictFollowsRecency)
{
    const uint32_t assoc = GetParam();
    Cache cache({assoc * 32, assoc, 32}); // one set, `assoc` ways

    // Fill: each new line is a cold miss but must not evict any of the
    // previously installed lines while free ways remain.
    for (uint32_t i = 0; i < assoc; ++i) {
        EXPECT_FALSE(cache.access(i * 32)) << "cold line " << i;
        for (uint32_t j = 0; j <= i; ++j)
            EXPECT_TRUE(cache.access(j * 32))
                << "line " << j << " evicted during fill at " << i;
    }
    // That re-touch loop left recency order = 0,1,...,assoc-1 (oldest
    // first). Overflowing lines must evict in exactly that order.
    for (uint32_t i = 0; i < assoc; ++i) {
        EXPECT_FALSE(cache.access((assoc + i) * 32));
        EXPECT_FALSE(cache.access(i * 32))
            << "line " << i << " should have been the LRU victim";
        // Re-installing line i evicts the then-oldest resident, so
        // line i+1 is gone by the time the next iteration probes it.
    }
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheLruOrder,
                         testing::Values(1u, 2u, 4u));

/**
 * Same fill-then-evict recency contract for the fully-associative
 * TLB, parameterized on entry count. Mirrors CacheLruOrder so the
 * shared victim-selection idiom (first free way wins, valid entries
 * form a prefix) is pinned in both structures.
 */
class TlbLruOrder : public testing::TestWithParam<uint32_t>
{};

TEST_P(TlbLruOrder, FillThenEvictFollowsRecency)
{
    const uint32_t entries = GetParam();
    Tlb tlb(entries);
    const uint32_t page = 8192;

    // Fill: every new page is a cold miss and must land in a free
    // entry, never evicting a resident page while free entries remain.
    for (uint32_t i = 0; i < entries; ++i) {
        EXPECT_FALSE(tlb.access(i * page)) << "cold page " << i;
        for (uint32_t j = 0; j <= i; ++j)
            EXPECT_TRUE(tlb.access(j * page))
                << "page " << j << " evicted during fill at " << i;
    }
    // Recency order is now 0,1,...,entries-1 (oldest first); overflow
    // pages must evict in exactly that order.
    for (uint32_t i = 0; i < entries; ++i) {
        EXPECT_FALSE(tlb.access((entries + i) * page));
        EXPECT_FALSE(tlb.access(i * page))
            << "page " << i << " should have been the LRU victim";
    }
}

INSTANTIATE_TEST_SUITE_P(Entries, TlbLruOrder,
                         testing::Values(1u, 2u, 4u));

TEST(Cache, WorkingSetFitsAfterWarmup)
{
    Cache cache({8192, 1, 32});
    // Sequential 4 KB working set: second pass must be all hits.
    for (uint32_t a = 0; a < 4096; a += 32)
        cache.access(a);
    uint64_t misses_before = cache.misses();
    for (uint32_t a = 0; a < 4096; a += 32)
        EXPECT_TRUE(cache.access(a));
    EXPECT_EQ(cache.misses(), misses_before);
}

TEST(Cache, MissRateMonotonicInSizeProperty)
{
    // Property: for an LRU cache with fixed assoc, a larger cache
    // never has more misses on the same trace (inclusion property
    // holds within same associativity for power-of-2 sizes with LRU
    // only per-set; we check empirically on a random trace).
    Rng rng(42);
    std::vector<uint32_t> trace;
    for (int i = 0; i < 20000; ++i)
        trace.push_back((uint32_t)rng.below(64 * 1024));
    uint64_t last = UINT64_MAX;
    for (uint32_t kb : {8, 16, 32, 64}) {
        Cache cache({kb * 1024, 4, 32});
        for (uint32_t a : trace)
            cache.access(a);
        EXPECT_LE(cache.misses(), last);
        last = cache.misses();
    }
}

TEST(Cache, FullAssocBeatsDirectOnConflictTrace)
{
    // Ping-pong between two conflicting lines.
    Cache direct({1024, 1, 32});
    Cache assoc({1024, 4, 32});
    for (int i = 0; i < 100; ++i) {
        direct.access(i % 2 ? 0u : 1024u);
        assoc.access(i % 2 ? 0u : 1024u);
    }
    EXPECT_EQ(assoc.misses(), 2u);
    EXPECT_EQ(direct.misses(), 100u);
}

TEST(Cache, ResetClearsState)
{
    Cache cache({1024, 1, 32});
    cache.access(0);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_FALSE(cache.access(0));
}

// --- TLB ---------------------------------------------------------------

TEST(Tlb, HitWithinPage)
{
    Tlb tlb(8);
    EXPECT_FALSE(tlb.access(0x2000));
    EXPECT_TRUE(tlb.access(0x2000 + 8191)) << "same 8 KB page";
    EXPECT_FALSE(tlb.access(0x2000 + 8192));
}

TEST(Tlb, LruCapacity)
{
    Tlb tlb(4);
    for (uint32_t p = 0; p < 4; ++p)
        tlb.access(p * 8192);
    for (uint32_t p = 0; p < 4; ++p)
        EXPECT_TRUE(tlb.access(p * 8192));
    tlb.access(4 * 8192); // evicts page 0 (LRU)
    EXPECT_FALSE(tlb.access(0));
    EXPECT_TRUE(tlb.access(4 * 8192));
}

TEST(Tlb, EightEntryItlbThrashesOnNinePages)
{
    Tlb tlb(8);
    // Round-robin over 9 pages with LRU: every access misses.
    uint64_t misses = 0;
    for (int round = 0; round < 10; ++round)
        for (uint32_t p = 0; p < 9; ++p)
            misses += !tlb.access(p * 8192);
    EXPECT_EQ(misses, 90u);
}

// --- Branch prediction ------------------------------------------------------

TEST(Branch, OneBitLearnsStableDirection)
{
    BranchPredictor bp(BranchConfig{});
    // First prediction defaults to not-taken -> mispredict, then learn.
    EXPECT_FALSE(bp.predictConditional(0x100, true));
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(bp.predictConditional(0x100, true));
}

TEST(Branch, OneBitMispredictsTwicePerFlip)
{
    BranchPredictor bp(BranchConfig{});
    bp.predictConditional(0x100, true); // learn taken
    // Alternating pattern: 1-bit predictor mispredicts every time.
    int wrong = 0;
    bool dir = false;
    for (int i = 0; i < 20; ++i) {
        wrong += !bp.predictConditional(0x100, dir);
        dir = !dir;
    }
    EXPECT_EQ(wrong, 20);
}

TEST(Branch, BhtIndexedByPc)
{
    BranchPredictor bp(BranchConfig{});
    bp.predictConditional(0x100, true);
    // A different PC (different BHT slot) still starts cold.
    EXPECT_FALSE(bp.predictConditional(0x104, true));
}

TEST(Branch, ReturnStackMatchesCalls)
{
    BranchPredictor bp(BranchConfig{});
    bp.call(0x1000);
    bp.call(0x2000);
    EXPECT_TRUE(bp.predictReturn(0x2000));
    EXPECT_TRUE(bp.predictReturn(0x1000));
    EXPECT_FALSE(bp.predictReturn(0x3000)) << "underflow mispredicts";
}

TEST(Branch, ReturnStackOverflowLosesDeepFrames)
{
    BranchPredictor bp(BranchConfig{});
    for (uint32_t i = 0; i < 13; ++i)
        bp.call(0x1000 + i * 4); // 12-entry stack: frame 0 lost
    for (uint32_t i = 13; i > 1; --i)
        EXPECT_TRUE(bp.predictReturn(0x1000 + (i - 1) * 4));
    EXPECT_FALSE(bp.predictReturn(0x1000));
}

TEST(Branch, BtcRemembersIndirectTargets)
{
    BranchPredictor bp(BranchConfig{});
    EXPECT_FALSE(bp.predictIndirect(0x500, 0xaaaa));
    EXPECT_TRUE(bp.predictIndirect(0x500, 0xaaaa));
    EXPECT_FALSE(bp.predictIndirect(0x500, 0xbbbb)) << "target changed";
    EXPECT_TRUE(bp.predictIndirect(0x500, 0xbbbb));
}

TEST(Branch, BtcIndexWrapsByMasking)
{
    BranchConfig cfg;
    cfg.btcEntries = 4;
    BranchPredictor bp(cfg);
    // 0x100 and 0x110 are 4 word-slots apart: same BTC entry. The
    // second PC must evict the first (tag mismatch), proving the
    // index wraps over the full table rather than truncating.
    bp.predictIndirect(0x100, 0xaaaa);
    EXPECT_TRUE(bp.predictIndirect(0x100, 0xaaaa));
    EXPECT_FALSE(bp.predictIndirect(0x110, 0xbbbb)) << "cold aliased slot";
    EXPECT_FALSE(bp.predictIndirect(0x100, 0xaaaa)) << "evicted by alias";
}

TEST(Branch, NonPowerOfTwoBhtIsFatal)
{
    BranchConfig cfg;
    cfg.bhtEntries = 100; // masking with 99 would alias away entries
    ScopedFatalThrow contain;
    EXPECT_THROW(BranchPredictor bp(cfg), FatalError);
}

TEST(Branch, NonPowerOfTwoBtcIsFatal)
{
    BranchConfig cfg;
    cfg.btcEntries = 33;
    ScopedFatalThrow contain;
    EXPECT_THROW(BranchPredictor bp(cfg), FatalError);
}

TEST(Branch, EmptyPredictorStructuresAreFatal)
{
    ScopedFatalThrow contain;
    BranchConfig no_bht;
    no_bht.bhtEntries = 0;
    EXPECT_THROW(BranchPredictor bp(no_bht), FatalError);
    BranchConfig no_btc;
    no_btc.btcEntries = 0;
    EXPECT_THROW(BranchPredictor bp(no_btc), FatalError);
    BranchConfig no_ras;
    no_ras.returnStack = 0;
    EXPECT_THROW(BranchPredictor bp(no_ras), FatalError);
}

// --- Machine -----------------------------------------------------------

trace::Bundle
aluBundle(uint32_t pc, uint32_t count)
{
    trace::Bundle b;
    b.pc = pc;
    b.count = count;
    b.cls = trace::InstClass::IntAlu;
    return b;
}

TEST(Machine, BusyOnlyForStraightLineHits)
{
    Machine machine;
    // Many passes so the cold-start misses are amortized away.
    for (int pass = 0; pass < 20; ++pass)
        machine.onBundle(aluBundle(0x1000, 64));
    EXPECT_EQ(machine.instructions(), 20u * 64u);
    auto bd = machine.breakdown();
    EXPECT_GT(bd.busyPct, 50.0);
}

TEST(Machine, ImissChargedForColdFetch)
{
    Machine machine;
    machine.onBundle(aluBundle(0x0, 1024)); // 128 lines, all cold
    EXPECT_GT(machine.stallCycles(StallCause::Imiss), 0u);
    EXPECT_EQ(machine.stallCycles(StallCause::Dmiss), 0u);
}

TEST(Machine, DmissAndDtlbChargedForColdLoads)
{
    Machine machine;
    trace::Bundle b;
    b.pc = 0x1000;
    b.cls = trace::InstClass::Load;
    for (int i = 0; i < 64; ++i) {
        b.memAddr = 0x40000000 + (uint32_t)i * 8192; // new page each time
        machine.onBundle(b);
    }
    EXPECT_GT(machine.stallCycles(StallCause::Dmiss), 0u);
    EXPECT_GT(machine.stallCycles(StallCause::Dtlb), 0u);
}

TEST(Machine, MispredictCharged)
{
    Machine machine;
    trace::Bundle b;
    b.pc = 0x1000;
    b.cls = trace::InstClass::CondBranch;
    bool dir = false;
    for (int i = 0; i < 32; ++i) {
        b.taken = dir;
        dir = !dir;
        machine.onBundle(b);
    }
    EXPECT_GT(machine.stallCycles(StallCause::Mispredict), 0u);
}

TEST(Machine, L2HitCheaperThanL2Miss)
{
    // Working set fitting L2 but not L1 vs exceeding both.
    MachineConfig cfg;
    Machine small(cfg), large(cfg);
    trace::Bundle b;
    b.pc = 0x1000;
    b.cls = trace::InstClass::Load;
    // Warm both with their working sets twice; second pass differs.
    for (int pass = 0; pass < 2; ++pass) {
        for (uint32_t i = 0; i < 2048; ++i) {
            b.memAddr = 0x40000000 + i * 32; // 64 KB: fits L2, not L1
            small.onBundle(b);
        }
        for (uint32_t i = 0; i < 64 * 1024; ++i) {
            b.memAddr = 0x40000000 + i * 32; // 2 MB: misses L2 too
            large.onBundle(b);
        }
    }
    double small_per = (double)small.stallCycles(StallCause::Dmiss) /
                       (double)small.instructions();
    double large_per = (double)large.stallCycles(StallCause::Dmiss) /
                       (double)large.instructions();
    EXPECT_LT(small_per, large_per);
}

/**
 * Mixed workload exercising every stall cause: loads (dmiss/dtlb/load
 * delay), alternating branches (mispredict), short-int and float runs
 * (use delays), scattered PCs (imiss/itlb), calls and returns.
 */
std::vector<trace::Bundle>
mixedWorkload(int n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<trace::Bundle> out;
    out.reserve((size_t)n);
    for (int i = 0; i < n; ++i) {
        trace::Bundle b;
        b.pc = 0x1000 + (uint32_t)rng.below(64 * 1024) / 4 * 4;
        b.count = 1 + (uint32_t)rng.below(4);
        switch (rng.below(10)) {
          case 0:
          case 1:
            b.cls = trace::InstClass::Load;
            b.count = 1;
            b.memAddr = 0x40000000 + (uint32_t)rng.below(1 << 20);
            break;
          case 2:
            b.cls = trace::InstClass::Store;
            b.count = 1;
            b.memAddr = 0x40000000 + (uint32_t)rng.below(1 << 20);
            break;
          case 3:
            b.cls = trace::InstClass::CondBranch;
            b.count = 1;
            b.taken = rng.below(2) != 0;
            b.target = b.pc + 16;
            break;
          case 4:
            b.cls = trace::InstClass::ShortInt;
            break;
          case 5:
            b.cls = trace::InstClass::FloatOp;
            break;
          case 6:
            b.cls = trace::InstClass::Call;
            b.count = 1;
            b.target = 0x8000;
            break;
          case 7:
            b.cls = trace::InstClass::Return;
            b.count = 1;
            b.target = 0x2000 + (uint32_t)rng.below(64) * 4;
            break;
          case 8:
            b.cls = trace::InstClass::IndirectJump;
            b.count = 1;
            b.target = 0x9000 + (uint32_t)rng.below(8) * 64;
            break;
          default:
            b.cls = trace::InstClass::IntAlu;
            break;
        }
        out.push_back(b);
    }
    return out;
}

/**
 * The Figure 3 invariant: busy% and every stall% share one slot
 * denominator, so the columns sum to 100 up to fp rounding — at any
 * issue width (the old accounting mixed slot- and cycle-denominated
 * terms, and only came close at width 1).
 */
class MachineBreakdownSum : public testing::TestWithParam<uint32_t>
{};

TEST_P(MachineBreakdownSum, SumsTo100AtEveryIssueWidth)
{
    MachineConfig cfg;
    cfg.issueWidth = GetParam();
    Machine machine(cfg);
    for (const auto &b : mixedWorkload(5000, 7))
        machine.onBundle(b);
    ASSERT_GT(machine.totalSlots(), 0u);
    EXPECT_NEAR(machine.breakdown().total(), 100.0, 0.01);

    // The ledger leaves total cycles exactly where the pre-ledger
    // accounting had them: ceil(insts / W) + total stall cycles.
    uint64_t stall_cycles = 0;
    for (int c = 0; c < kNumStallCauses; ++c)
        stall_cycles += machine.stallCycles((StallCause)c);
    uint64_t w = cfg.issueWidth;
    EXPECT_EQ(machine.cycles(),
              (machine.instructions() + w - 1) / w + stall_cycles);
}

INSTANTIATE_TEST_SUITE_P(IssueWidth, MachineBreakdownSum,
                         testing::Values(1u, 2u, 4u));

TEST(Machine, ResetRestoresInitialState)
{
    Machine machine;
    machine.onBundle(aluBundle(0, 100));
    machine.reset();
    EXPECT_EQ(machine.instructions(), 0u);
    EXPECT_EQ(machine.cycles(), 0u);
}

TEST(Machine, ZeroCountBundleFetchesNothing)
{
    // Regression: fetch() computed pc + (count - 1) * 4 with a
    // uint32_t count, so count == 0 underflowed and walked ~2^30
    // i-cache lines. An empty bundle must be a no-op.
    Machine machine;
    trace::Bundle b;
    b.pc = 0x1000;
    b.count = 0;
    b.cls = trace::InstClass::IntAlu;
    machine.onBundle(b);
    EXPECT_EQ(machine.instructions(), 0u);
    EXPECT_EQ(machine.icache().accesses(), 0u);
    EXPECT_EQ(machine.itlb().misses(), 0u);
    EXPECT_EQ(machine.cycles(), 0u);

    // And a normal bundle afterwards behaves as if it came first.
    b.count = 4;
    machine.onBundle(b);
    EXPECT_EQ(machine.instructions(), 4u);
    EXPECT_EQ(machine.icache().accesses(), 1u);
}

TEST(Machine, LineCrossingFetchChargesPerLine)
{
    // Four instructions starting 8 bytes before a 32-byte line
    // boundary span exactly two lines on the same 8 KB page: two
    // i-cache accesses, one iTLB access.
    Machine machine;
    trace::Bundle b;
    b.pc = 0x1000 - 8;
    b.count = 4;
    b.cls = trace::InstClass::IntAlu;
    machine.onBundle(b);
    EXPECT_EQ(machine.icache().accesses(), 2u);
    EXPECT_EQ(machine.icache().misses(), 2u);
    EXPECT_EQ(machine.itlb().hits() + machine.itlb().misses(), 1u);
}

TEST(Machine, PageCrossingFetchChargesOneItlbPerPage)
{
    // Two instructions straddling the 8 KB page boundary: two lines,
    // two pages, so two iTLB accesses (both cold misses).
    Machine machine;
    trace::Bundle b;
    b.pc = 0x2000 - 4;
    b.count = 2;
    b.cls = trace::InstClass::IntAlu;
    machine.onBundle(b);
    EXPECT_EQ(machine.icache().accesses(), 2u);
    EXPECT_EQ(machine.itlb().hits() + machine.itlb().misses(), 2u);
    EXPECT_EQ(machine.itlb().misses(), 2u);
}

TEST(Machine, SameLineRefetchIsDeduplicatedUntilReset)
{
    // Consecutive fetches of the same line collapse into one lookup
    // (the paper's per-line charging), but reset() must forget the
    // last-line latch so a genuine re-fetch is charged again.
    Machine machine;
    machine.onBundle(aluBundle(0x1000, 1));
    EXPECT_EQ(machine.icache().accesses(), 1u);
    machine.onBundle(aluBundle(0x1004, 1)); // same 32-byte line
    EXPECT_EQ(machine.icache().accesses(), 1u);

    machine.reset();
    machine.onBundle(aluBundle(0x1000, 1));
    EXPECT_EQ(machine.icache().accesses(), 1u)
        << "reset() must not suppress the first fetch after it";
}

TEST(Machine, BatchedPathMatchesBundlePathExactly)
{
    // The run-hoisted batch loop (closed-form use-delay ticks, hoisted
    // switch) must be observationally identical on every counter
    // whether the stream comes in one-bundle batches or full ones.
    // The shadow checks each one-bundle batch against the per-bundle
    // reference path (Machine::simulateOne).
    auto work = mixedWorkload(4000, 99);

    MachineConfig checked;
    checked.shadowCheck = true;
    Machine byBundle(checked), byBatch;
    ScopedFatalThrow contain;
    for (const auto &b : work)
        byBundle.onBundle(b);

    trace::BundleBatch batch;
    for (const auto &b : work) {
        batch.push(b);
        if (batch.full()) {
            byBatch.onBatch(batch);
            batch.clear();
        }
    }
    if (!batch.empty())
        byBatch.onBatch(batch);

    EXPECT_EQ(byBatch.instructions(), byBundle.instructions());
    EXPECT_EQ(byBatch.cycles(), byBundle.cycles());
    EXPECT_EQ(byBatch.totalSlots(), byBundle.totalSlots());
    for (int c = 0; c < kNumStallCauses; ++c)
        EXPECT_EQ(byBatch.slotsLostTo((StallCause)c),
                  byBundle.slotsLostTo((StallCause)c))
            << stallCauseName((StallCause)c);
    EXPECT_EQ(byBatch.icache().accesses(), byBundle.icache().accesses());
    EXPECT_EQ(byBatch.icache().misses(), byBundle.icache().misses());
    EXPECT_EQ(byBatch.dcache().accesses(), byBundle.dcache().accesses());
    EXPECT_EQ(byBatch.dcache().misses(), byBundle.dcache().misses());
    EXPECT_EQ(byBatch.l2cache().misses(), byBundle.l2cache().misses());
    EXPECT_EQ(byBatch.itlb().misses(), byBundle.itlb().misses());
    EXPECT_EQ(byBatch.dtlb().misses(), byBundle.dtlb().misses());
    EXPECT_EQ(byBatch.predictor().lookups(),
              byBundle.predictor().lookups());
    EXPECT_EQ(byBatch.predictor().mispredicts(),
              byBundle.predictor().mispredicts());
    EXPECT_EQ(byBatch.imissPer100Insts(), byBundle.imissPer100Insts());
}

TEST(Machine, ShadowCheckAcceptsBatchedSimulation)
{
    // With shadowCheck on, every batch is re-simulated bundle-at-a-
    // time and any counter divergence is fatal. A clean run over a
    // stressful workload must therefore complete without throwing.
    MachineConfig cfg;
    cfg.shadowCheck = true;
    Machine machine(cfg);
    ScopedFatalThrow contain;
    auto work = mixedWorkload(4000, 1234);
    trace::BundleBatch batch;
    EXPECT_NO_THROW({
        for (const auto &b : work) {
            batch.push(b);
            if (batch.full()) {
                machine.onBatch(batch);
                batch.clear();
            }
        }
        if (!batch.empty())
            machine.onBatch(batch);
    });
    EXPECT_NEAR(machine.breakdown().total(), 100.0, 0.01);
}

TEST(CacheSweep, GridShapeAndMonotonicity)
{
    CacheSweep sweep({8, 16, 32, 64}, {1, 2, 4});
    Rng rng(3);
    trace::Bundle b;
    b.cls = trace::InstClass::IntAlu;
    for (int i = 0; i < 50000; ++i) {
        b.pc = (uint32_t)rng.below(48 * 1024) & ~3u;
        b.count = 4;
        sweep.onBundle(b);
    }
    auto results = sweep.results();
    ASSERT_EQ(results.size(), 12u);
    // Within each associativity, misses fall (weakly) with size.
    for (int a = 0; a < 3; ++a)
        for (int s = 1; s < 4; ++s)
            EXPECT_LE(results[a * 4 + s].misses,
                      results[a * 4 + s - 1].misses + 5);
    EXPECT_EQ(sweep.instructions(), 200000u);
}

TEST(CacheSweep, ZeroCountBundleIsIgnored)
{
    // A Bundle with count == 0 carries no instructions; the line walk
    // from pc to pc + (count - 1) * 4 must not underflow and sweep
    // ~2^32 lines through every cache.
    CacheSweep sweep({8}, {1});
    trace::Bundle b;
    b.pc = 0x1000;
    b.count = 0;
    b.cls = trace::InstClass::IntAlu;
    sweep.onBundle(b);
    EXPECT_EQ(sweep.instructions(), 0u);
    EXPECT_EQ(sweep.results()[0].misses, 0u);

    // And a normal bundle afterwards behaves as if it came first.
    b.count = 4;
    sweep.onBundle(b);
    EXPECT_EQ(sweep.instructions(), 4u);
    EXPECT_EQ(sweep.results()[0].misses, 1u);
}

} // namespace
