/**
 * @file
 * Unit and property tests for the architecture simulator: caches (and
 * the TLBs built from them), branch prediction and the stall-accounting
 * machine. A timestamp-LRU reference model checks sim::Cache access by
 * access over random and recorded address streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/record_replay.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/cache_sweep.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/events.hh"
#include "tracefile/reader.hh"
#include "workloads/registry.hh"

namespace interp::sim {

/** Prints a geometry in test failure messages. */
void
PrintTo(const CacheConfig &c, std::ostream *os)
{
    *os << "{" << c.sizeBytes << ", " << c.assoc << ", " << c.lineBytes
        << "}";
}

} // namespace interp::sim

namespace {

using namespace interp;
using namespace interp::sim;

// --- Cache -------------------------------------------------------------

/** A TLB of @p entries 8 KB pages, shaped as Machine shapes its TLBs. */
CacheConfig
tlbGeometry(uint32_t entries)
{
    return {entries << 13, entries, 8192};
}

std::string
geometryName(const testing::TestParamInfo<CacheConfig> &info)
{
    const CacheConfig &c = info.param;
    if (c.lineBytes == 8192)
        return "Tlb" + std::to_string(c.assoc);
    return std::to_string(c.sizeBytes) + "B" + std::to_string(c.assoc) +
           "Way" + std::to_string(c.lineBytes) + "BLine";
}

/** The distance between two lines of one set: the sets' span. */
uint32_t
setStride(const CacheConfig &c)
{
    return c.sizeBytes / c.assoc;
}

/** Hit within a line (an 8 KB page for a TLB), miss on the next. */
class CacheColdMissThenHit : public testing::TestWithParam<CacheConfig>
{};

TEST_P(CacheColdMissThenHit, SameLineHitsNextLineMisses)
{
    Cache cache(GetParam());
    const uint32_t line = GetParam().lineBytes;
    const uint32_t base = 0x10000;
    EXPECT_FALSE(cache.access(base));
    EXPECT_TRUE(cache.access(base));
    EXPECT_TRUE(cache.access(base + line - 1)) << "same line";
    EXPECT_FALSE(cache.access(base + line)) << "next line misses";
}

INSTANTIATE_TEST_SUITE_P(Geometry, CacheColdMissThenHit,
                         testing::Values(CacheConfig{1024, 1, 32},
                                         tlbGeometry(8)),
                         geometryName);

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

/**
 * A full set holds all its lines; after line 0 is refreshed, one more
 * line evicts line 1, the least recently used.
 */
class CacheLruEvictsOldest : public testing::TestWithParam<CacheConfig>
{};

TEST_P(CacheLruEvictsOldest, RefreshedLineSurvives)
{
    Cache cache(GetParam());
    const uint32_t assoc = GetParam().assoc;
    const uint32_t stride = setStride(GetParam());
    for (uint32_t i = 0; i < assoc; ++i)
        cache.access(i * stride);
    for (uint32_t i = 0; i < assoc; ++i)
        EXPECT_TRUE(cache.access(i * stride)) << "line " << i;
    cache.access(0);                   // refresh line 0
    cache.access(assoc * stride);      // evicts line 1 (LRU)
    EXPECT_TRUE(cache.access(0));
    EXPECT_FALSE(cache.access(1 * stride));
}

INSTANTIATE_TEST_SUITE_P(Geometry, CacheLruEvictsOldest,
                         testing::Values(CacheConfig{2 * 32, 2, 32},
                                         tlbGeometry(4)),
                         geometryName);

/**
 * Fill-then-evict in strict LRU order, parameterized on geometry: one
 * set of 1, 2 or 4 ways, as a cache and as a TLB. Filling a set must
 * consume free ways without evicting valid lines, and once full,
 * evictions must follow recency order exactly.
 */
class CacheLruOrder : public testing::TestWithParam<CacheConfig>
{};

TEST_P(CacheLruOrder, FillThenEvictFollowsRecency)
{
    Cache cache(GetParam());
    const uint32_t assoc = GetParam().assoc;
    const uint32_t line = GetParam().lineBytes;
    ASSERT_EQ(setStride(GetParam()), line) << "one set";

    // Fill: each new line is a cold miss but must not evict any of the
    // previously installed lines while free ways remain.
    for (uint32_t i = 0; i < assoc; ++i) {
        EXPECT_FALSE(cache.access(i * line)) << "cold line " << i;
        for (uint32_t j = 0; j <= i; ++j)
            EXPECT_TRUE(cache.access(j * line))
                << "line " << j << " evicted during fill at " << i;
    }
    // That re-touch loop left recency order = 0,1,...,assoc-1 (oldest
    // first). Overflowing lines must evict in exactly that order.
    for (uint32_t i = 0; i < assoc; ++i) {
        EXPECT_FALSE(cache.access((assoc + i) * line));
        EXPECT_FALSE(cache.access(i * line))
            << "line " << i << " should have been the LRU victim";
        // Re-installing line i evicts the then-oldest resident, so
        // line i+1 is gone by the time the next iteration probes it.
    }
}

INSTANTIATE_TEST_SUITE_P(Geometry, CacheLruOrder,
                         testing::Values(CacheConfig{32, 1, 32},
                                         CacheConfig{2 * 32, 2, 32},
                                         CacheConfig{4 * 32, 4, 32},
                                         tlbGeometry(1), tlbGeometry(2),
                                         tlbGeometry(4)),
                         geometryName);

/**
 * Round-robin over one line more than a set holds: with LRU every
 * access misses (a direct-mapped ping-pong, an 8-entry iTLB over nine
 * pages).
 */
class CacheThrash : public testing::TestWithParam<CacheConfig>
{};

TEST_P(CacheThrash, OneLineTooManyAlwaysMisses)
{
    Cache cache(GetParam());
    const uint32_t lines = GetParam().assoc + 1;
    const uint32_t stride = setStride(GetParam());
    uint64_t misses = 0;
    for (int round = 0; round < 10; ++round)
        for (uint32_t i = 0; i < lines; ++i)
            misses += !cache.access(i * stride);
    EXPECT_EQ(misses, 10u * lines);
}

INSTANTIATE_TEST_SUITE_P(Geometry, CacheThrash,
                         testing::Values(CacheConfig{1024, 1, 32},
                                         tlbGeometry(8)),
                         geometryName);

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

TEST(CacheDeathTest, BadGeometryPanics)
{
    // A TLB entry count must be a power of two, like Table 3's 8 and
    // 32, and a line must hold at least two bytes, so that no line
    // address can equal an empty way's marker.
    EXPECT_DEATH(Cache c({12u << 13, 12, 8192}), "bad cache geometry");
    EXPECT_DEATH(Cache c({0, 1, 8192}), "bad cache geometry");
    EXPECT_DEATH(Cache c({1024, 1, 1}), "bad cache geometry");
    EXPECT_DEATH(Cache c({1024, 1, 48}), "bad cache geometry");
    MachineConfig cfg;
    cfg.dtlbEntries = 12;
    EXPECT_DEATH(Machine m(cfg), "bad cache geometry");
}

// --- Reference model ------------------------------------------------------

/** What a reference model counted over one stream. */
struct RefCounts
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** Hits on the set's most recently used line: Cache's front way. */
    uint64_t frontHits = 0;

    RefCounts &
    operator+=(const RefCounts &o)
    {
        hits += o.hits;
        misses += o.misses;
        frontHits += o.frontHits;
        return *this;
    }
};

/** Count a hit on @p way of the set [begin, end), stamped by lastUse. */
template <class Way>
void
countHit(RefCounts &counts, const Way *begin, const Way *end, const Way &way)
{
    ++counts.hits;
    counts.frontHits += std::none_of(begin, end, [&](const Way &o) {
        return o.valid && o.lastUse > way.lastUse;
    });
}

/**
 * The simulator's earlier timestamp-LRU cache, kept as the reference
 * that sim::Cache must match access by access. Every way carries a
 * valid flag and a 64-bit last-use stamp; ways fill front to back, and
 * once a set is full a miss evicts the way with the oldest stamp.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &config)
        : cfg(config),
          sets(config.sizeBytes / config.lineBytes / config.assoc),
          ways((size_t)sets * config.assoc)
    {
    }

    bool
    access(uint32_t addr)
    {
        ++tick;
        uint32_t line = addr / cfg.lineBytes;
        uint32_t set = line & (sets - 1);
        Way *base = &ways[(size_t)set * cfg.assoc];
        Way *victim = base;
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            Way &way = base[w];
            if (!way.valid) {
                // Valid ways form a prefix: a free way ends the scan
                // and is the victim.
                victim = &way;
                break;
            }
            if (way.tag == line) {
                countHit(counts, base, base + cfg.assoc, way);
                way.lastUse = tick;
                return true;
            }
            if (way.lastUse < victim->lastUse)
                victim = &way;
        }
        ++counts.misses;
        victim->valid = true;
        victim->tag = line;
        victim->lastUse = tick;
        return false;
    }

    RefCounts counts;

  private:
    struct Way
    {
        uint32_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig cfg;
    uint32_t sets;
    std::vector<Way> ways;
    uint64_t tick = 0;
};

/** The earlier fully associative timestamp-LRU TLB, same rules. */
class RefTlb
{
  public:
    RefTlb(uint32_t entries, uint32_t page_bits)
        : entries(entries), bits(page_bits)
    {
    }

    bool
    access(uint32_t addr)
    {
        ++tick;
        uint32_t page = addr >> bits;
        Entry *victim = &entries[0];
        for (Entry &e : entries) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.page == page) {
                countHit(counts, entries.data(),
                         entries.data() + entries.size(), e);
                e.lastUse = tick;
                return true;
            }
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
        ++counts.misses;
        victim->valid = true;
        victim->page = page;
        victim->lastUse = tick;
        return false;
    }

    RefCounts counts;

  private:
    struct Entry
    {
        uint32_t page = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    std::vector<Entry> entries;
    uint32_t bits;
    uint64_t tick = 0;
};

/**
 * Seeded addresses with mixed reuse distances: three accesses in four
 * repeat an address from 1 to 16384 accesses back (a power of four
 * drawn uniformly bounds the distance), the rest touch a fresh address
 * in a region of 64 KB to 16 MB.
 */
std::vector<uint32_t>
mixedReuseStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<uint32_t> out;
    out.reserve(n);
    while (out.size() < n) {
        if (!out.empty() && rng.below(4) != 0) {
            uint64_t span = std::min<uint64_t>(out.size(),
                                               1ull << (2 * rng.below(8)));
            out.push_back(out[out.size() - 1 - rng.below(span)]);
        } else {
            uint64_t region = 1ull << (16 + 2 * rng.below(5));
            out.push_back((uint32_t)rng.below(region));
        }
    }
    return out;
}

/**
 * The address streams the Table 3 machine looks up: every fetched
 * i-cache line (consecutive repeats collapsed, as Machine fetches),
 * every load and store address, and each fetched line whose page
 * differs from the previous one (the iTLB's lookups).
 */
class AddressStreams : public trace::Sink
{
  public:
    void
    onBatch(const trace::BundleBatch &batch) override
    {
        for (const trace::Bundle &b : batch) {
            if (b.cls == trace::InstClass::Load ||
                b.cls == trace::InstClass::Store)
                data.push_back(b.memAddr);
            if (b.count == 0)
                continue;
            uint32_t last = (b.pc + (b.count - 1) * 4) >> 5;
            for (uint32_t line = b.pc >> 5; line <= last; ++line) {
                if (line == lastLine)
                    continue;
                lastLine = line;
                ilines.push_back(line << 5);
                if ((line << 5 >> 13) != lastPage) {
                    lastPage = line << 5 >> 13;
                    pages.push_back(line << 5);
                }
            }
        }
    }

    std::vector<uint32_t> ilines;
    std::vector<uint32_t> data;
    std::vector<uint32_t> pages;

  private:
    uint32_t lastLine = ~0u;
    uint32_t lastPage = ~0u;
};

/** Every Fig 4 point, then Table 3's L1 and L2. */
std::vector<CacheConfig>
referenceCacheGeometries()
{
    std::vector<CacheConfig> out;
    for (uint32_t assoc : {1u, 2u, 4u})
        for (uint32_t kb : {8u, 16u, 32u, 64u})
            out.push_back({kb * 1024, assoc, 32});
    MachineConfig table3;
    out.push_back(table3.icache);
    out.push_back(table3.l2);
    return out;
}

/**
 * ADD_FAILURE at the first access whose hit/miss outcome differs, then
 * compare the hit and miss totals with the reference's.
 * @return what the reference counted.
 */
template <class Ref>
RefCounts
expectSameOutcomes(Ref ref, Cache cache, const std::vector<uint32_t> &stream,
                   const std::string &what)
{
    for (size_t i = 0; i < stream.size(); ++i) {
        bool want = ref.access(stream[i]);
        if (cache.access(stream[i]) != want) {
            ADD_FAILURE() << what << ": access " << i << " to 0x"
                          << std::hex << stream[i] << std::dec
                          << (want ? " hits" : " misses")
                          << " in the reference";
            return ref.counts;
        }
    }
    EXPECT_EQ(cache.hits(), ref.counts.hits) << what;
    EXPECT_EQ(cache.misses(), ref.counts.misses) << what;
    return ref.counts;
}

/**
 * Every stream through every cache geometry and TLB size. Over the
 * streams, each geometry must have hit on a set's front way (Cache's
 * first check) and, with more than one way, behind it.
 */
void
expectCacheMatchesReference(
    const std::vector<std::pair<std::string, std::vector<uint32_t>>>
        &streams)
{
    const std::vector<CacheConfig> caches = referenceCacheGeometries();
    const std::vector<uint32_t> tlbs = {1, 2, 4, 8, 32};
    std::vector<RefCounts> cacheTotals(caches.size()), tlbTotals(tlbs.size());
    auto cacheName = [](const CacheConfig &g) {
        return std::to_string(g.sizeBytes) + " B " + std::to_string(g.assoc) +
               "-way";
    };
    auto tlbName = [](uint32_t n) {
        return "a " + std::to_string(n) + "-entry TLB";
    };
    for (const auto &[name, stream] : streams) {
        ASSERT_FALSE(stream.empty()) << name;
        for (size_t i = 0; i < caches.size(); ++i)
            cacheTotals[i] += expectSameOutcomes(
                RefCache(caches[i]), Cache(caches[i]), stream,
                name + " in " + cacheName(caches[i]));
        for (size_t i = 0; i < tlbs.size(); ++i)
            tlbTotals[i] += expectSameOutcomes(
                RefTlb(tlbs[i], 13), Cache(tlbGeometry(tlbs[i])), stream,
                name + " in " + tlbName(tlbs[i]));
    }
    auto expectBothPaths = [](const RefCounts &t, uint32_t assoc,
                              const std::string &what) {
        EXPECT_GT(t.frontHits, 0u) << what;
        if (assoc > 1) {
            EXPECT_GT(t.hits - t.frontHits, 0u) << what;
        }
    };
    for (size_t i = 0; i < caches.size(); ++i)
        expectBothPaths(cacheTotals[i], caches[i].assoc, cacheName(caches[i]));
    for (size_t i = 0; i < tlbs.size(); ++i)
        expectBothPaths(tlbTotals[i], tlbs[i], tlbName(tlbs[i]));
}

TEST(CacheReference, RandomStreamsMatchTimestampLru)
{
    expectCacheMatchesReference({{"seed 1", mixedReuseStream(1, 200000)},
                                 {"seed 2", mixedReuseStream(2, 200000)}});
}

/** Record a Tcl kanren run of 20,000 commands and replay it into
 *  @p sinks: the bundle stream of a real interpreter run. */
void
replayKanrenTape(const std::vector<trace::Sink *> &sinks)
{
    const workloads::Workload *w = workloads::find("kanren");
    ASSERT_NE(w, nullptr);
    harness::BenchSpec spec = workloads::specFor(*w, harness::Lang::Tcl);
    spec.maxCommands = 20'000;
    std::string tape = testing::TempDir() + "sim_test_kanren_" +
                       std::to_string(getpid()) + ".itr";
    harness::recordRun(spec, tape, {}, nullptr, false);
    tracefile::TraceReader(tape).replay(sinks);
    std::filesystem::remove(tape);
}

TEST(CacheReference, TapeStreamsMatchTimestampLru)
{
    // The lookup order of a real interpreter run: 3.4M i-line, 0.8M
    // data and 0.2M page lookups over about 900 code lines and 1700
    // data lines. Its 14 code and 13 data pages evict in TLBs of up
    // to 8 entries; the random streams evict in every geometry.
    AddressStreams streams;
    replayKanrenTape({&streams});
    expectCacheMatchesReference({{"i-lines", streams.ilines},
                                 {"data", streams.data},
                                 {"pages", streams.pages}});
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

TEST(Machine, SameLineRefetchIsDeduplicated)
{
    // Consecutive fetches of the same line collapse into one lookup
    // (the paper's per-line charging); the first fetch of a fresh
    // machine is always charged.
    Machine machine;
    machine.onBundle(aluBundle(0x1000, 1));
    EXPECT_EQ(machine.icache().accesses(), 1u);
    machine.onBundle(aluBundle(0x1004, 1)); // same 32-byte line
    EXPECT_EQ(machine.icache().accesses(), 1u);
    machine.onBundle(aluBundle(0x1020, 1)); // next line
    EXPECT_EQ(machine.icache().accesses(), 2u);
    // A bundle that starts on the last fetched line and runs into the
    // next one fetches the next one only.
    machine.onBundle(aluBundle(0x103c, 2));
    EXPECT_EQ(machine.icache().accesses(), 3u);
}

/** Every counter of @p m, by name. */
std::vector<std::pair<std::string, uint64_t>>
machineCounters(const Machine &m)
{
    std::vector<std::pair<std::string, uint64_t>> out = {
        {"cycles", m.cycles()}, {"instructions", m.instructions()}};
    for (int c = 0; c < kNumStallCauses; ++c)
        out.emplace_back(stallCauseName((StallCause)c),
                         m.slotsLostTo((StallCause)c));
    const std::pair<std::string, const Cache *> caches[] = {
        {"icache", &m.icache()}, {"dcache", &m.dcache()},
        {"l2", &m.l2cache()},    {"itlb", &m.itlb()},
        {"dtlb", &m.dtlb()}};
    for (const auto &[name, cache] : caches) {
        out.emplace_back(name + " hits", cache->hits());
        out.emplace_back(name + " misses", cache->misses());
    }
    out.emplace_back("branch lookups", m.predictor().lookups());
    out.emplace_back("branch mispredicts", m.predictor().mispredicts());
    return out;
}

/**
 * Cuts the stream it is fed into batches of @p size bundles (a seeded
 * random size from 1 to a full batch when @p size is 0) and drains
 * them into its own Machine.
 */
class Resplit : public trace::Sink
{
  public:
    Resplit(uint32_t size, uint64_t seed) : size(size), rng(seed)
    {
        drain(); // picks the first batch's size
    }

    void
    onBatch(const trace::BundleBatch &in) override
    {
        for (const trace::Bundle &b : in)
            push(b);
    }

    void
    push(const trace::Bundle &b)
    {
        batch.push(b);
        if (batch.size() == next)
            drain();
    }

    /** Deliver the batch so far (at the end: the partial last one). */
    void
    drain()
    {
        if (!batch.empty())
            machine.onBatch(batch);
        batch.clear();
        next = size ? size
                    : 1 + (uint32_t)rng.below(trace::BundleBatch::kCapacity);
    }

    Machine machine;

  private:
    uint32_t size;
    Rng rng;
    uint32_t next = 0;
    trace::BundleBatch batch;
};

TEST(MachineDeathTest, ZeroUsePeriodPanics)
{
    // The batch loop charges use delays in closed form, dividing by
    // each period.
    for (uint32_t MachineConfig::*period :
         {&MachineConfig::loadUsePeriod, &MachineConfig::shortIntUsePeriod,
          &MachineConfig::floatUsePeriod}) {
        MachineConfig cfg;
        cfg.*period = 0;
        EXPECT_DEATH(Machine m(cfg), "use-delay periods must be nonzero");
    }
}

TEST(Machine, BatchedPathMatchesBundlePathExactly)
{
    // The batch loop (one pass, closed-form use-delay charges) must be
    // observationally identical on every counter whether the stream
    // comes in one-bundle batches or full ones. The shadow checks each
    // one-bundle batch against the per-bundle reference path
    // (Machine::simulateOne).
    auto work = mixedWorkload(4000, 99);

    MachineConfig checked;
    checked.shadowCheck = true;
    Machine byBundle(checked);
    Resplit byBatch(trace::BundleBatch::kCapacity, 0);
    ScopedFatalThrow contain;
    for (const auto &b : work) {
        byBundle.onBundle(b);
        byBatch.push(b);
    }
    byBatch.drain();

    EXPECT_EQ(machineCounters(byBatch.machine), machineCounters(byBundle));
    EXPECT_EQ(byBatch.machine.imissPer100Insts(),
              byBundle.imissPer100Insts());
}

TEST(Machine, CountersDoNotDependOnBatchSplit)
{
    // The use-delay charges are made once per batch, while the caches,
    // the predictor and the same-line fetch test carry their state
    // from one batch to the next. However a stream is cut into
    // batches, every counter must come out the same: batches of 1, 2,
    // 21 (the served average) and 256 bundles, and seeded random cuts.
    auto feed = [](const std::string &what, auto &&stream) {
        std::vector<std::unique_ptr<Resplit>> splits;
        for (uint32_t size : {1u, 2u, 21u, 256u, 0u})
            splits.push_back(std::make_unique<Resplit>(size, 17));
        stream(splits);
        for (auto &split : splits)
            split->drain();
        ASSERT_GT(splits[0]->machine.instructions(), 0u) << what;
        for (auto &split : splits)
            EXPECT_EQ(machineCounters(split->machine),
                      machineCounters(splits[0]->machine))
                << what;
    };
    feed("mixed workload", [](auto &splits) {
        for (const auto &b : mixedWorkload(20000, 5))
            for (auto &split : splits)
                split->push(b);
    });
    feed("kanren tape", [](auto &splits) {
        std::vector<trace::Sink *> sinks;
        for (auto &split : splits)
            sinks.push_back(split.get());
        replayKanrenTape(sinks);
    });
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
