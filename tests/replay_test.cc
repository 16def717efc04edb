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
 * place between them.
 */
class StreamHash : public trace::Sink
{
  public:
    void
    onBatch(const trace::BundleBatch &batch) override
    {
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
        mix('c');
        mix(&command, sizeof command);
    }
    void onMemModelAccess() override { mix('m'); }

    void mix(char tag) { mix(&tag, 1); }

    uint64_t hash = 0xcbf29ce484222325ull;

  private:
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
        {"spin", Lang::Mipsi, 0xeed50b200d1fea5aull, 0xcdf14f5f892f6bdcull,
         0x4be4805874c44559ull},
        {"spin", Lang::Java, 0x807567b4fd264ff5ull, 0x1224ab9b78dd0d60ull,
         0x7b64031fc224dc32ull},
        {"spin", Lang::Perl, 0x4b33fb0eb2431e96ull, 0xd675771ae44c099aull,
         0x48488053f0236217ull},
        {"spin", Lang::Tcl, 0x9a954f9dc5f0f8c3ull, 0x0a22e4bcfa6c8b5aull,
         0xad2dda085eab503eull},
        {"spin", Lang::MipsiThreaded, 0x2a6664e9cc64ca3aull, 0x4dc4faec220b0d2aull,
         0xac2c7c3d716e899aull},
        {"spin", Lang::JavaQuick, 0x56cab731f8fea30dull, 0x1e84219ee34017a5ull,
         0x4268a7a2eafb2539ull},
        {"spin", Lang::TclBytecode, 0x4071cc94f4bc4a9aull, 0x11d3c1c403566474ull,
         0x48f79ceb9d977fc5ull},
        {"spin", Lang::JavaTier2, 0x922106e5cad774dfull, 0x3d374bc253ba2ba2ull,
         0xefc3aa80f74bdaf9ull},
        {"spin", Lang::TclTier2, 0xa30585c53c2407c6ull, 0xfb2574dc5e7e165aull,
         0xf21d6ccacdf06113ull},
        {"spin", Lang::PerlIC, 0x071bad524fd483f8ull, 0xd675771ae44c099aull,
         0x48488053f0236217ull},
        {"spin", Lang::MipsiJit, 0x4660ff6024a9f495ull, 0x531c29ccf5380413ull,
         0x27c689c338444348ull},
        {"spin", Lang::TclJit, 0x8061571020205b9full, 0xe83d841a36d39e36ull,
         0xb6c3edf6a93b2b89ull},
        {"kanren", Lang::Mipsi, 0xf6c5ea4bf285b123ull, 0x07f5c1a47650aa55ull,
         0x2ab04e5e0e20737aull},
        {"kanren", Lang::Java, 0xd505a532dcba3227ull, 0xfe80443e425812eeull,
         0xa0934cfc5fb6a36aull},
        {"kanren", Lang::Tcl, 0xa8e823c1a9f5513aull, 0x007508c83bfef6c4ull,
         0x180c3153659546e3ull},
        {"kanren", Lang::MipsiThreaded, 0xfbc6f3495f5778b7ull, 0x7c81a983ac35d543ull,
         0xa0c711fa4c378a98ull},
        {"kanren", Lang::JavaQuick, 0xfac4275860859954ull, 0x37ca781a6ec576e5ull,
         0x5b20f4443a329b78ull},
        {"kanren", Lang::TclBytecode, 0xb528ed1d2729310dull, 0xd1ca5ae262a2b1c3ull,
         0xd3a45352aeb09762ull},
        {"kanren", Lang::JavaTier2, 0x320bc341d8d990d2ull, 0x20a23d24ce72c286ull,
         0x84a4166693e18b7full},
        {"kanren", Lang::TclTier2, 0x242d2a398b91f26cull, 0x0dcf7dc91a3aa39dull,
         0xe71bb2a3624a6bd8ull},
        {"kanren", Lang::MipsiJit, 0x4cc548a682dc51b6ull, 0xc2e98a08cdcd9a19ull,
         0x5714c0b81f8d3558ull},
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

} // namespace
