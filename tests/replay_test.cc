/**
 * @file
 * End-to-end record/replay equivalence: for every execution mode of
 * the study, a benchmark recorded with runOrReplay(--record) and then
 * replayed from the tape must reproduce the live Measurement —
 * profile counters, Table 3 machine cycles and stall breakdown, and
 * the Figure 4 cache-sweep points — exactly. The doubles are derived
 * deterministically from the same integer event stream on both paths,
 * so equality here is bitwise, not approximate.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/record_replay.hh"
#include "harness/runner.hh"
#include "sim/cache_sweep.hh"
#include "sim/machine.hh"
#include "support/detalloc.hh"
#include "support/logging.hh"
#include "tracefile/reader.hh"
#include "workloads/registry.hh"

namespace {

using namespace interp;
using namespace interp::harness;
namespace fs = std::filesystem;

std::string
traceDir()
{
    fs::path dir = fs::path(::testing::TempDir()) / "interp_replay";
    fs::create_directories(dir);
    return dir.string();
}

void
expectSameProfile(const trace::Profile &live, const trace::Profile &tape)
{
    EXPECT_EQ(live.commands(), tape.commands());
    EXPECT_EQ(live.instructions(), tape.instructions());
    EXPECT_EQ(live.fetchDecodeInsts(), tape.fetchDecodeInsts());
    EXPECT_EQ(live.executeInsts(), tape.executeInsts());
    EXPECT_EQ(live.precompileInsts(), tape.precompileInsts());
    EXPECT_EQ(live.nativeLibInsts(), tape.nativeLibInsts());
    EXPECT_EQ(live.memModelInsts(), tape.memModelInsts());
    EXPECT_EQ(live.systemInsts(), tape.systemInsts());
    EXPECT_EQ(live.memModelAccesses(), tape.memModelAccesses());

    const auto &lc = live.perCommand();
    const auto &tc = tape.perCommand();
    ASSERT_EQ(lc.size(), tc.size());
    for (size_t i = 0; i < lc.size(); ++i) {
        EXPECT_EQ(lc[i].retired, tc[i].retired) << "command " << i;
        EXPECT_EQ(lc[i].fetchDecode, tc[i].fetchDecode)
            << "command " << i;
        EXPECT_EQ(lc[i].execute, tc[i].execute) << "command " << i;
        EXPECT_EQ(lc[i].nativeLib, tc[i].nativeLib) << "command " << i;
    }
}

void
expectSameMeasurement(const Measurement &live, const Measurement &tape)
{
    EXPECT_EQ(live.programBytes, tape.programBytes);
    EXPECT_EQ(live.commands, tape.commands);
    EXPECT_EQ(live.cycles, tape.cycles);
    EXPECT_EQ(live.finished, tape.finished);
    EXPECT_EQ(live.commandNames, tape.commandNames);
    // Bitwise equality: same integer stream, same arithmetic.
    EXPECT_EQ(live.imissPer100, tape.imissPer100);
    EXPECT_EQ(live.breakdown.busyPct, tape.breakdown.busyPct);
    for (size_t i = 0; i < live.breakdown.stallPct.size(); ++i)
        EXPECT_EQ(live.breakdown.stallPct[i],
                  tape.breakdown.stallPct[i])
            << "stall cause " << i;
    expectSameProfile(live.profile, tape.profile);
}

/** Record spec into dir, replay it, and check both Measurements. */
void
roundTrip(BenchSpec spec)
{
    std::string dir = traceDir();
    TraceIo record;
    record.recordDir = dir;
    TraceIo replay;
    replay.replayDir = dir;

    Measurement live = runOrReplay(spec, record);
    Measurement tape = runOrReplay(spec, replay);
    expectSameMeasurement(live, tape);

    // Program stdout is deliberately not part of the trace format.
    EXPECT_TRUE(tape.stdoutText.empty());
}

TEST(Replay, CByteIdentical)
{
    roundTrip(microBench(Lang::C, "a=b+c", 60));
}

TEST(Replay, MipsiByteIdentical)
{
    roundTrip(microBench(Lang::Mipsi, "a=b+c", 60));
}

TEST(Replay, JavaByteIdentical)
{
    roundTrip(microBench(Lang::Java, "string-split", 40));
}

TEST(Replay, PerlByteIdentical)
{
    roundTrip(microBench(Lang::Perl, "string-split", 40));
}

TEST(Replay, TclByteIdentical)
{
    roundTrip(microBench(Lang::Tcl, "string-split", 40));
}

TEST(Replay, CacheSweepMatchesLiveRun)
{
    // The bench_fig4 shape: the sweep rides along as an extra sink on
    // both the live run and the replay; every (size, assoc) point must
    // agree.
    BenchSpec spec = microBench(Lang::Perl, "a=b+c", 40);
    std::string dir = traceDir();
    TraceIo record;
    record.recordDir = dir;
    TraceIo replay;
    replay.replayDir = dir;

    const std::vector<uint32_t> sizes = {8, 16, 32, 64};
    const std::vector<uint32_t> assocs = {1, 2, 4};
    sim::CacheSweep live_sweep(sizes, assocs);
    sim::CacheSweep tape_sweep(sizes, assocs);

    runOrReplay(spec, record, {&live_sweep}, nullptr, false);
    runOrReplay(spec, replay, {&tape_sweep}, nullptr, false);

    std::vector<sim::SweepPoint> live = live_sweep.results();
    std::vector<sim::SweepPoint> tape = tape_sweep.results();
    ASSERT_EQ(live.size(), tape.size());
    EXPECT_EQ(live_sweep.instructions(), tape_sweep.instructions());
    for (size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(live[i].misses, tape[i].misses) << "point " << i;
        EXPECT_EQ(live[i].missesPer100Insts, tape[i].missesPer100Insts)
            << "point " << i;
    }
}

TEST(Replay, AlternateMachineConfigFromOneTape)
{
    // Record once, replay under a different machine configuration —
    // the record-once/replay-many workflow. The replayed cycles must
    // match a live run under that same configuration.
    BenchSpec spec = microBench(Lang::Tcl, "if", 30);
    std::string dir = traceDir();
    TraceIo record;
    record.recordDir = dir;
    TraceIo replay;
    replay.replayDir = dir;

    sim::MachineConfig big;
    big.icache.sizeBytes = 32 * 1024;
    big.icache.assoc = 4;

    Measurement live_default = runOrReplay(spec, record);
    Measurement live_big = run(spec, {}, &big);
    Measurement tape_default = runOrReplay(spec, replay);
    Measurement tape_big = runOrReplay(spec, replay, {}, &big);

    EXPECT_EQ(live_default.cycles, tape_default.cycles);
    EXPECT_EQ(live_big.cycles, tape_big.cycles);
    // Sanity: the sweep actually changes the answer, so the equality
    // above is not vacuous.
    EXPECT_NE(live_big.cycles, live_default.cycles);
}

TEST(Replay, WrongTapeForSpecIsFatal)
{
    BenchSpec recorded = microBench(Lang::Perl, "if", 20);
    std::string dir = traceDir();
    TraceIo record;
    record.recordDir = dir;
    runOrReplay(recorded, record);

    BenchSpec other = microBench(Lang::Perl, "if", 20);
    other.name = "something-else";
    ScopedFatalThrow contain;
    EXPECT_THROW(
        replayTrace(traceFilePath(dir, recorded), other), FatalError);
}

TEST(Replay, MissingTapeIsFatal)
{
    BenchSpec spec = microBench(Lang::Perl, "if", 20);
    TraceIo replay;
    replay.replayDir = traceDir() + "/no-such-subdir";
    ScopedFatalThrow contain;
    EXPECT_THROW(runOrReplay(spec, replay), FatalError);
}

TEST(Replay, TraceFileNamesAreSanitized)
{
    BenchSpec spec;
    spec.lang = Lang::Perl;
    spec.name = "des+50 weird/name";
    EXPECT_EQ(traceFileName(spec), "perl-des_50_weird_name.itr");
    spec.name = "scaling-10";
    spec.lang = Lang::C;
    EXPECT_EQ(traceFileName(spec), "c-scaling-10.itr");
}

TEST(Replay, ReaderDeliversBundlesInBatches)
{
    // The reader uses the same batched delivery as a live Execution:
    // bundles arrive through onBatch (many per virtual call), and
    // non-bundle events interleave in exact stream order.
    BenchSpec spec = microBench(Lang::Perl, "a=b+c", 40);
    std::string dir = traceDir();
    TraceIo record;
    record.recordDir = dir;
    runOrReplay(spec, record);

    class BatchCounter : public trace::Sink
    {
      public:
        void
        onBatch(const trace::BundleBatch &batch) override
        {
            ++batches;
            bundles += batch.size();
        }
        uint64_t batches = 0, bundles = 0;
    };

    tracefile::TraceReader reader(traceFilePath(dir, spec));
    BatchCounter counter;
    reader.replay({&counter});
    EXPECT_EQ(counter.bundles, reader.meta().totalBundles);
    EXPECT_LT(counter.batches, counter.bundles / 8)
        << "batches should amortize many bundles per virtual call";
}

TEST(Replay, RecordedMetaDescribesTheRun)
{
    BenchSpec spec = microBench(Lang::Java, "if", 25);
    std::string dir = traceDir();
    TraceIo record;
    record.recordDir = dir;
    Measurement live = runOrReplay(spec, record);

    tracefile::TraceReader reader(traceFilePath(dir, spec));
    const tracefile::TraceMeta &meta = reader.meta();
    EXPECT_EQ(meta.lang, langName(spec.lang));
    EXPECT_EQ(meta.name, spec.name);
    EXPECT_EQ(meta.programBytes, live.programBytes);
    EXPECT_EQ(meta.commands, live.commands);
    EXPECT_EQ(meta.finished, live.finished);
    EXPECT_EQ(meta.totalInsts, live.profile.instructions());
    EXPECT_EQ(meta.totalMemAccesses, live.profile.memModelAccesses());
    EXPECT_EQ(meta.commandNames, live.commandNames);
}

/**
 * FNV-1a 64 over the event stream exactly as a batch sink receives it:
 * every column of every delivered batch (so the batch boundaries count
 * too) and each command retirement and memory-model access in its
 * place between them. With a cut of C, only the stream before its
 * (C + 1)-th command event.
 */
class StreamHash : public trace::Sink
{
  public:
    explicit StreamHash(uint64_t cut = UINT64_MAX) : commandsLeft(cut) {}

    void
    onBatch(const trace::BundleBatch &batch) override
    {
        if (cut)
            return;
        uint32_t n = batch.size();
        mix('B');
        mix(&n, sizeof n);
        mix(batch.pcCol(), n * sizeof(uint32_t));
        mix(batch.countCol(), n * sizeof(uint32_t));
        mix(batch.memAddrCol(), n * sizeof(uint32_t));
        mix(batch.targetCol(), n * sizeof(uint32_t));
        mix(batch.clsCatCol(), n);
        mix(batch.flagsCol(), n);
        mix(batch.commandCol(), n * sizeof(trace::CommandId));
    }
    void
    onCommand(trace::CommandId command) override
    {
        cut = cut || commandsLeft-- == 0;
        if (cut)
            return;
        mix('c');
        mix(&command, sizeof command);
    }
    void
    onMemModelAccess() override
    {
        if (!cut)
            mix('m');
    }

    void mix(char tag) { mix(&tag, 1); }

    uint64_t hash = 0xcbf29ce484222325ull;

  private:
    uint64_t commandsLeft;
    bool cut = false;

    void
    mix(const void *data, size_t n)
    {
        auto *p = (const unsigned char *)data;
        for (size_t i = 0; i < n; ++i)
            hash = (hash ^ p[i]) * 0x100000001b3ull;
    }
};

/** FNV-1a 64 over the bytes of @p counters. */
uint64_t
counterHash(const std::vector<uint64_t> &counters)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t v : counters)
        for (int i = 0; i < 8; ++i)
            hash = (hash ^ (uint8_t)(v >> (8 * i))) * 0x100000001b3ull;
    return hash;
}

/** FNV-1a over every counter of @p machine. */
uint64_t
machineHash(const sim::Machine &machine)
{
    std::vector<uint64_t> counters = {machine.cycles(),
                                      machine.instructions()};
    for (int c = 0; c < sim::kNumStallCauses; ++c)
        counters.push_back(machine.slotsLostTo((sim::StallCause)c));
    for (const sim::Cache *cache :
         {&machine.icache(), &machine.dcache(), &machine.l2cache(),
          &machine.itlb(), &machine.dtlb()}) {
        counters.push_back(cache->hits());
        counters.push_back(cache->misses());
    }
    counters.push_back(machine.predictor().lookups());
    counters.push_back(machine.predictor().mispredicts());
    return counterHash(counters);
}

/** FNV-1a over every total of @p profile and every CommandStats. */
uint64_t
profileHash(const trace::Profile &profile)
{
    std::vector<uint64_t> counters = {
        profile.commands(),         profile.instructions(),
        profile.fetchDecodeInsts(), profile.executeInsts(),
        profile.precompileInsts(),  profile.nativeLibInsts(),
        profile.memModelInsts(),    profile.systemInsts(),
        profile.memModelAccesses(), profile.perCommand().size()};
    for (const trace::CommandStats &c : profile.perCommand())
        counters.insert(counters.end(), {c.retired, c.fetchDecode, c.execute,
                                         c.nativeLib, c.memModel});
    return counterHash(counters);
}

TEST(Replay, EmissionStreamIsPinned)
{
    if (!support::deterministicAllocatorActive())
        GTEST_SKIP() << "the data addresses in the stream need the "
                        "deterministic allocator (off under sanitizers)";
    // Every PC, data address, branch target, attribution byte and
    // batch boundary the trace layer emits for two programs under every
    // mode each supports, 20,000 commands each. A change to the
    // emission primitives, the address mapper or the trace layer's own
    // heap allocations must leave all of them as they are. Each run
    // goes three times: plain; under a deadline that never fires, whose
    // safepoint clock reads must emit and allocate nothing; and with a
    // Table 3 machine as a further sink, which must leave the stream as
    // it is and whose every counter is pinned too. The profile each of
    // them counts at the source is pinned as well, and so is the one a
    // counting-only run with no sink at all counts (serve-count's
    // path), with and without the deadline.
    struct Pin
    {
        const char *program;
        Lang mode;
        uint64_t hash;
        uint64_t machine;
        uint64_t profile;
    };
    const Pin pins[] = {
        {"spin", Lang::Mipsi, 0xcefa30f3c35d824bull, 0xcc9e9107eeaf867bull,
         0x71c7343e7f6e68b5ull},
        {"spin", Lang::Java, 0x0ae68956571ed04full, 0xc65250d44fbaed40ull,
         0x6efd0f6d435ba662ull},
        {"spin", Lang::Perl, 0x4b33fb0eb2431e96ull, 0xd675771ae44c099aull,
         0x48488053f0236217ull},
        {"spin", Lang::Tcl, 0x9a954f9dc5f0f8c3ull, 0x0a22e4bcfa6c8b5aull,
         0xad2dda085eab503eull},
        {"spin", Lang::MipsiThreaded, 0xfebf89c8b6a2cb30ull, 0x2223b118a30421b4ull,
         0x81e0b5de6b6dcfaeull},
        {"spin", Lang::JavaQuick, 0xf5a2c97155d3b2d7ull, 0x3053c64db620b6fbull,
         0x4e5b2511ec477569ull},
        {"spin", Lang::TclBytecode, 0x4071cc94f4bc4a9aull, 0x11d3c1c403566474ull,
         0x48f79ceb9d977fc5ull},
        {"spin", Lang::JavaTier2, 0xa69bf747c86c8a2aull, 0x08a80e663f57dac6ull,
         0x67ed124ffb874e79ull},
        {"spin", Lang::TclTier2, 0xa30585c53c2407c6ull, 0xfb2574dc5e7e165aull,
         0xf21d6ccacdf06113ull},
        {"spin", Lang::PerlIC, 0x071bad524fd483f8ull, 0xd675771ae44c099aull,
         0x48488053f0236217ull},
        {"spin", Lang::MipsiJit, 0x4c40ff0aede21b1eull, 0xe29ff7c418e08270ull,
         0x490e6f2ba9ca4253ull},
        {"spin", Lang::TclJit, 0x8061571020205b9full, 0xe83d841a36d39e36ull,
         0xb6c3edf6a93b2b89ull},
        {"kanren", Lang::Mipsi, 0x2d5fd3bff2abe9c0ull, 0x9d9a2f577c89052eull,
         0xbba73b3379748c61ull},
        {"kanren", Lang::Java, 0x208e71853ea22bcaull, 0x7657c89b64d9fbe3ull,
         0x762cda7dc85e9c5aull},
        {"kanren", Lang::Tcl, 0xa8e823c1a9f5513aull, 0x007508c83bfef6c4ull,
         0x180c3153659546e3ull},
        {"kanren", Lang::MipsiThreaded, 0xe578f4ea4c03a7f0ull, 0x4377e070571eba7aull,
         0xb761186f1bf8d4acull},
        {"kanren", Lang::JavaQuick, 0x4c2bf45769de1978ull, 0x286c9db8436e2303ull,
         0xc034a3c11d6b1140ull},
        {"kanren", Lang::TclBytecode, 0xb528ed1d2729310dull, 0xd1ca5ae262a2b1c3ull,
         0xd3a45352aeb09762ull},
        {"kanren", Lang::JavaTier2, 0xc21f09055a7c2891ull, 0xbaebd164bed31bb4ull,
         0x441c4f972ef03257ull},
        {"kanren", Lang::TclTier2, 0x242d2a398b91f26cull, 0x0dcf7dc91a3aa39dull,
         0xe71bb2a3624a6bd8ull},
        {"kanren", Lang::MipsiJit, 0x8519b452d40446c4ull, 0xce40cf1008515c02ull,
         0x25aee8647ef82655ull},
        {"kanren", Lang::TclJit, 0x049c867d593550bfull, 0xe293bd92ce550777ull,
         0xb1e05e476a75990dull},
    };
    size_t runs = 0;
    for (const char *program : {"spin", "kanren"}) {
        const workloads::Workload *w = workloads::find(program);
        ASSERT_NE(w, nullptr) << program;
        for (const ModeInfo &mode : kModes) {
            if (!w->supports(mode.lang))
                continue;
            BenchSpec spec = workloads::specFor(*w, mode.lang);
            spec.maxCommands = 20'000;
            const Pin *pin = nullptr;
            for (const Pin &p : pins)
                if (p.program == std::string(program) &&
                    p.mode == mode.lang)
                    pin = &p;
            // The stream hash and the counted profile's hash; with no
            // sinks, only the profile's.
            struct Hashes
            {
                uint64_t stream;
                uint64_t profile;
            };
            auto hashRun = [&](std::vector<trace::Sink *> sinks,
                               bool stream_sink = true) {
                StreamHash stream;
                if (stream_sink)
                    sinks.insert(sinks.begin(), &stream);
                uint64_t profile =
                    profileHash(run(spec, sinks, nullptr, false).profile);
                return Hashes{stream.hash, profile};
            };
            Hashes plain = hashRun({});
            Hashes counting = hashRun({}, false);
            spec.deadline =
                std::chrono::steady_clock::now() + std::chrono::hours(24);
            Hashes with_deadline = hashRun({});
            Hashes counting_deadline = hashRun({}, false);
            sim::Machine machine;
            Hashes with_machine = hashRun({&machine});
            uint64_t counters = machineHash(machine);

            char got[160];
            std::snprintf(got, sizeof got,
                          "{\"%s\", Lang::%s, 0x%016llxull, 0x%016llxull, "
                          "0x%016llxull},",
                          program, mode.ident,
                          (unsigned long long)plain.stream,
                          (unsigned long long)counters,
                          (unsigned long long)counting.profile);
            ASSERT_NE(pin, nullptr) << "no pin for " << got;
            EXPECT_EQ(plain.stream, pin->hash) << "now " << got;
            EXPECT_EQ(with_deadline.stream, pin->hash) << "with a deadline";
            EXPECT_EQ(with_machine.stream, pin->hash) << "with a machine";
            EXPECT_EQ(counters, pin->machine) << "now " << got;
            EXPECT_EQ(counting.profile, pin->profile)
                << "counting only, now " << got;
            EXPECT_EQ(counting_deadline.profile, pin->profile)
                << "counting only, with a deadline";
            for (const Hashes &h : {plain, with_deadline, with_machine})
                EXPECT_EQ(h.profile, pin->profile) << "beside a batch sink";
            ++runs;
        }
    }
    EXPECT_EQ(runs, std::size(pins));
}

TEST(Replay, BudgetStopsWhereTheNextCommandWouldRetire)
{
    if (!support::deterministicAllocatorActive())
        GTEST_SKIP() << "the data addresses in the stream need the "
                        "deterministic allocator (off under sanitizers)";
    // One stop rule for every mode: a budget of B ends the run where
    // its (B + 1)-th command would retire. So on every pinned (program,
    // mode) pair, the stream of a run at budget B is the stream of a
    // run at budget B + 1 up to its (B + 1)-th command event. (The
    // eight Tcl pairs finish first.)
    constexpr uint64_t kBudget = 20'000;
    size_t runs = 0, stopped_runs = 0;
    for (const char *program : {"spin", "kanren"}) {
        const workloads::Workload *w = workloads::find(program);
        ASSERT_NE(w, nullptr) << program;
        for (const ModeInfo &mode : kModes) {
            if (!w->supports(mode.lang))
                continue;
            SCOPED_TRACE(std::string(program) + " under " + mode.ident);
            BenchSpec spec = workloads::specFor(*w, mode.lang);
            spec.maxCommands = kBudget;
            StreamHash stopped;
            Measurement m = run(spec, {&stopped}, nullptr, false);
            if (!m.finished) {
                EXPECT_EQ(m.commands, kBudget);
                ++stopped_runs;
            }
            spec.maxCommands = kBudget + 1;
            StreamHash cut(kBudget);
            run(spec, {&cut}, nullptr, false);
            EXPECT_EQ(stopped.hash, cut.hash);
            ++runs;
        }
    }
    EXPECT_EQ(runs, 22u);
    EXPECT_EQ(stopped_runs, 14u);
}

} // namespace
