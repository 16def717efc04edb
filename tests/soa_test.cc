/**
 * @file
 * SoA-batch equivalence: one recorded tape, replayed twice through
 * identically configured sinks — once bundle-at-a-time (each Bundle
 * reconstructed from the columns and delivered as a one-bundle batch)
 * and once as full batches through the SoA column consumers
 * (Machine::simulateBatch, Profile::onBatch, CacheSweep::onBatch).
 * Every observable counter must match exactly: simulated cycles, the
 * full stall ledger, per-structure hit/miss counts, the Profile
 * attribution tables, and the cache-sweep miss grid. This is the
 * test that pins "the SoA layout changed the memory layout, not the
 * event stream". The bundle-at-a-time machine runs with its shadow
 * on, so every bundle is also checked against the reference
 * Machine::simulateOne.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "harness/record_replay.hh"
#include "harness/runner.hh"
#include "sim/cache_sweep.hh"
#include "sim/machine.hh"
#include "trace/profile.hh"
#include "tracefile/reader.hh"

namespace {

using namespace interp;
namespace fs = std::filesystem;

/**
 * Wrapper that cuts every batch into one-bundle batches: each Bundle
 * is materialized from the SoA columns and handed to the inner sink
 * through Sink::onBundle.
 */
class BundleAtATime : public trace::Sink
{
  public:
    explicit BundleAtATime(trace::Sink &inner) : inner(inner) {}
    void
    onBatch(const trace::BundleBatch &batch) override
    {
        for (const trace::Bundle &b : batch)
            inner.onBundle(b);
    }
    void onCommand(trace::CommandId id) override
    {
        inner.onCommand(id);
    }
    void onMemModelAccess() override { inner.onMemModelAccess(); }

  private:
    trace::Sink &inner;
};

/**
 * Record one Mipsi microbenchmark and return the tape path. The tape
 * goes into ./soa_tapes (the ctest working directory): this test is
 * the FIXTURES_SETUP for bench_topdown_smoke, which replays the same
 * directory (tests/CMakeLists.txt, `topdown` label).
 */
std::string
recordTape()
{
    fs::path dir = "soa_tapes";
    fs::create_directories(dir);
    harness::BenchSpec spec =
        harness::microBench(harness::Lang::Mipsi, "string-split", 40);
    harness::TraceIo io;
    io.recordDir = dir.string();
    harness::runOrReplay(spec, io);
    fs::path tape = dir / "mipsi-string-split.itr";
    EXPECT_TRUE(fs::exists(tape)) << tape;
    return tape.string();
}

void
expectSameMachine(const sim::Machine &a, const sim::Machine &b)
{
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.instructions(), b.instructions());
    EXPECT_EQ(a.totalSlots(), b.totalSlots());
    for (int c = 0; c < sim::kNumStallCauses; ++c)
        EXPECT_EQ(a.slotsLostTo((sim::StallCause)c),
                  b.slotsLostTo((sim::StallCause)c))
            << sim::stallCauseName((sim::StallCause)c);
    EXPECT_EQ(a.icache().hits(), b.icache().hits());
    EXPECT_EQ(a.icache().misses(), b.icache().misses());
    EXPECT_EQ(a.dcache().hits(), b.dcache().hits());
    EXPECT_EQ(a.dcache().misses(), b.dcache().misses());
    EXPECT_EQ(a.l2cache().hits(), b.l2cache().hits());
    EXPECT_EQ(a.l2cache().misses(), b.l2cache().misses());
    EXPECT_EQ(a.itlb().hits(), b.itlb().hits());
    EXPECT_EQ(a.itlb().misses(), b.itlb().misses());
    EXPECT_EQ(a.dtlb().hits(), b.dtlb().hits());
    EXPECT_EQ(a.dtlb().misses(), b.dtlb().misses());
}

void
expectSameProfile(const trace::Profile &a, const trace::Profile &b)
{
    EXPECT_EQ(a.commands(), b.commands());
    EXPECT_EQ(a.instructions(), b.instructions());
    EXPECT_EQ(a.fetchDecodeInsts(), b.fetchDecodeInsts());
    EXPECT_EQ(a.executeInsts(), b.executeInsts());
    EXPECT_EQ(a.precompileInsts(), b.precompileInsts());
    EXPECT_EQ(a.nativeLibInsts(), b.nativeLibInsts());
    EXPECT_EQ(a.memModelInsts(), b.memModelInsts());
    EXPECT_EQ(a.systemInsts(), b.systemInsts());
    EXPECT_EQ(a.memModelAccesses(), b.memModelAccesses());

    const auto &pa = a.perCommand();
    const auto &pb = b.perCommand();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].retired, pb[i].retired) << "command " << i;
        EXPECT_EQ(pa[i].fetchDecode, pb[i].fetchDecode)
            << "command " << i;
        EXPECT_EQ(pa[i].execute, pb[i].execute) << "command " << i;
        EXPECT_EQ(pa[i].nativeLib, pb[i].nativeLib)
            << "command " << i;
    }
}

TEST(SoaEquivalence, BatchedSinksMatchBundleAtATimeReplay)
{
    std::string tape = recordTape();
    tracefile::TraceReader reader(tape);

    // Pass 1: one-bundle batches, the machine checked by its shadow.
    sim::MachineConfig checked;
    checked.shadowCheck = true;
    sim::Machine slowMachine(checked);
    trace::Profile slowProfile;
    sim::CacheSweep slowSweep({4, 16}, {1, 2});
    BundleAtATime wrapMachine(slowMachine);
    BundleAtATime wrapProfile(slowProfile);
    BundleAtATime wrapSweep(slowSweep);
    reader.replay({&wrapMachine, &wrapProfile, &wrapSweep});

    // Pass 2: the batched SoA column consumers.
    sim::Machine fastMachine;
    trace::Profile fastProfile;
    sim::CacheSweep fastSweep({4, 16}, {1, 2});
    reader.replay({&fastMachine, &fastProfile, &fastSweep});

    expectSameMachine(slowMachine, fastMachine);
    expectSameProfile(slowProfile, fastProfile);

    EXPECT_EQ(slowSweep.instructions(), fastSweep.instructions());
    auto sa = slowSweep.results();
    auto sb = fastSweep.results();
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].misses, sb[i].misses) << "sweep point " << i;
        EXPECT_EQ(sa[i].missesPer100Insts, sb[i].missesPer100Insts)
            << "sweep point " << i;
    }
}

} // namespace
