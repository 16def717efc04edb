/**
 * @file
 * Unit tests for the binary trace format: varint/zigzag/RLE/CRC
 * primitives, writer->reader event round trips (including chunk
 * boundaries and attribution state), and the robustness contract —
 * truncated, bit-flipped, version-bumped and unfinalized files must
 * fail with a contained FatalError, never a crash or a silently
 * wrong decode.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "tracefile/format.hh"
#include "tracefile/reader.hh"
#include "tracefile/writer.hh"

namespace {

using namespace interp;
using namespace interp::tracefile;
namespace fs = std::filesystem;

std::string
tmpPath(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / "interp_tracefile";
    fs::create_directories(dir);
    return (dir / name).string();
}

// --- primitives ------------------------------------------------------------

TEST(Varint, RoundTrips)
{
    const uint64_t values[] = {0, 1, 0x7f, 0x80, 0x3fff, 0x4000,
                               1234567, 0xffffffffull,
                               0xffffffffffffffffull};
    std::string buf;
    for (uint64_t v : values)
        putVarint(buf, v);
    const uint8_t *p = (const uint8_t *)buf.data();
    const uint8_t *end = p + buf.size();
    for (uint64_t v : values) {
        uint64_t got = 0;
        ASSERT_TRUE(getVarint(p, end, got));
        EXPECT_EQ(got, v);
    }
    EXPECT_EQ(p, end);
}

TEST(Varint, TruncationDetected)
{
    std::string buf;
    putVarint(buf, 0x12345678u);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
        const uint8_t *p = (const uint8_t *)buf.data();
        uint64_t got;
        EXPECT_FALSE(getVarint(p, p + cut, got))
            << "decoded from only " << cut << " bytes";
    }
}

TEST(Varint, SignedRoundTrips)
{
    const int64_t values[] = {0, 1, -1, 63, -64, 64, -65, 1 << 20,
                              -(1 << 20), INT64_MAX, INT64_MIN};
    std::string buf;
    for (int64_t v : values)
        putSVarint(buf, v);
    const uint8_t *p = (const uint8_t *)buf.data();
    const uint8_t *end = p + buf.size();
    for (int64_t v : values) {
        int64_t got = 0;
        ASSERT_TRUE(getSVarint(p, end, got));
        EXPECT_EQ(got, v);
    }
}

TEST(Crc32, KnownVector)
{
    // The classic check value for CRC-32/IEEE.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Rle, RoundTripsRunsAndLiterals)
{
    std::string raw;
    raw.append(200, 'a');          // long run (> one token)
    raw += "literal bytes here";   // literal stretch
    raw.append(3, 'b');            // below run threshold
    raw.append(7, '\0');           // zero run
    for (int i = 0; i < 300; ++i)  // incompressible stretch
        raw.push_back((char)(i * 37 + 11));

    std::string stored = rleCompress(raw);
    std::string back;
    ASSERT_TRUE(rleDecompress((const uint8_t *)stored.data(),
                              stored.size(), raw.size(), back));
    EXPECT_EQ(back, raw);
}

TEST(Rle, CompressesRuns)
{
    std::string raw(10000, 'x');
    std::string stored = rleCompress(raw);
    EXPECT_LT(stored.size(), raw.size() / 20);
}

TEST(Rle, RejectsMalformedInput)
{
    std::string out;
    // Literal token promising 5 bytes with only 2 present.
    const uint8_t lit[] = {0x04, 'a', 'b'};
    EXPECT_FALSE(rleDecompress(lit, sizeof(lit), 5, out));
    // Run token with no value byte.
    const uint8_t run[] = {0x90};
    EXPECT_FALSE(rleDecompress(run, sizeof(run), 19, out));
    // Output size mismatch.
    const uint8_t ok[] = {0x81, 'z'};
    EXPECT_FALSE(rleDecompress(ok, sizeof(ok), 3, out));
}

// --- writer -> reader round trip -------------------------------------------

/** Sink recording every delivered event for equality checks. */
class Collector : public trace::Sink
{
  public:
    struct Event
    {
        int kind; // 0 bundle, 1 command, 2 memaccess
        trace::Bundle bundle;
        trace::CommandId command = 0;
    };

    void
    onBatch(const trace::BundleBatch &batch) override
    {
        for (const trace::Bundle &b : batch)
            events.push_back({0, b, 0});
    }
    void
    onCommand(trace::CommandId c) override
    {
        events.push_back({1, {}, c});
    }
    void onMemModelAccess() override { events.push_back({2, {}, 0}); }

    std::vector<Event> events;
};

void
expectSameEvents(const Collector &a, const Collector &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        const auto &ea = a.events[i];
        const auto &eb = b.events[i];
        ASSERT_EQ(ea.kind, eb.kind) << "event " << i;
        if (ea.kind == 1) {
            EXPECT_EQ(ea.command, eb.command) << "event " << i;
            continue;
        }
        if (ea.kind != 0)
            continue;
        const trace::Bundle &x = ea.bundle;
        const trace::Bundle &y = eb.bundle;
        EXPECT_EQ(x.pc, y.pc) << "event " << i;
        EXPECT_EQ(x.count, y.count) << "event " << i;
        EXPECT_EQ((int)x.cls, (int)y.cls) << "event " << i;
        EXPECT_EQ((int)x.cat, (int)y.cat) << "event " << i;
        EXPECT_EQ(x.command, y.command) << "event " << i;
        EXPECT_EQ(x.memModel, y.memModel) << "event " << i;
        EXPECT_EQ(x.native, y.native) << "event " << i;
        EXPECT_EQ(x.system, y.system) << "event " << i;
        EXPECT_EQ(x.taken, y.taken) << "event " << i;
        EXPECT_EQ(x.memAddr, y.memAddr) << "event " << i;
        EXPECT_EQ(x.target, y.target) << "event " << i;
    }
}

/** Deterministic synthetic stream exercising every event shape. */
void
emitSyntheticStream(trace::Sink &sink)
{
    uint32_t pc = 0x1000;
    uint32_t addr = 0x40000000;
    for (int i = 0; i < 5000; ++i) {
        trace::Bundle b;
        b.cat = (i % 7 == 0) ? trace::Category::FetchDecode
                             : trace::Category::Execute;
        b.command = (trace::CommandId)(i % 13);
        b.memModel = i % 5 == 0;
        b.native = i % 11 == 0;
        b.system = i % 17 == 0;
        if (i % 13 == 0)
            sink.onCommand(b.command);
        switch (i % 4) {
          case 0: // straight-line run, sequential PC
            b.pc = pc;
            b.count = 1 + (i % 9);
            b.cls = trace::InstClass::IntAlu;
            break;
          case 1: // load with wandering address
            b.pc = pc;
            b.count = 1;
            b.cls = trace::InstClass::Load;
            addr += (i % 3 == 0) ? 16 : (uint32_t)-48;
            b.memAddr = addr;
            break;
          case 2: // branch, sometimes backward, alternating outcome
            b.pc = pc;
            b.count = 1;
            b.cls = trace::InstClass::CondBranch;
            b.taken = i % 3 != 0;
            b.target = b.taken ? pc - 256 : pc + 16;
            break;
          default: // non-sequential jump to a distant routine
            b.pc = pc + 0x2000;
            b.count = 1;
            b.cls = trace::InstClass::IndirectJump;
            b.taken = true;
            b.target = 0x04000000 + (uint32_t)(i * 64);
            break;
        }
        pc = b.pc + b.count * 4;
        sink.onBundle(b);
        if (i % 19 == 0)
            sink.onMemModelAccess();
    }
}

std::string
writeSyntheticTrace(const std::string &name, size_t chunk_bytes)
{
    std::string path = tmpPath(name);
    TraceWriter writer(path, "Perl", "synthetic", chunk_bytes);
    emitSyntheticStream(writer);
    writer.setRunResult(1234, 777, true);
    writer.setCommandNames({"add", "sub", "print"});
    writer.finish();
    return path;
}

TEST(TraceRoundTrip, EventsSurviveExactly)
{
    // Tiny chunks force many chunk boundaries (delta/attribution
    // state resets) through the same stream.
    for (size_t chunk_bytes : {size_t(64), size_t(4096),
                               kDefaultChunkBytes}) {
        Collector live;
        emitSyntheticStream(live);

        std::string path = writeSyntheticTrace("roundtrip.itr",
                                               chunk_bytes);
        TraceReader reader(path);
        Collector replayed;
        reader.replay({&replayed});
        expectSameEvents(live, replayed);

        EXPECT_EQ(reader.meta().lang, "Perl");
        EXPECT_EQ(reader.meta().name, "synthetic");
        EXPECT_EQ(reader.meta().programBytes, 1234u);
        EXPECT_EQ(reader.meta().commands, 777u);
        EXPECT_TRUE(reader.meta().finished);
        ASSERT_EQ(reader.meta().commandNames.size(), 3u);
        EXPECT_EQ(reader.meta().commandNames[2], "print");
    }
}

TEST(TraceRoundTrip, ReplayIsRepeatable)
{
    std::string path = writeSyntheticTrace("repeat.itr", 512);
    TraceReader reader(path);
    Collector first, second;
    reader.replay({&first});
    reader.replay({&second});
    expectSameEvents(first, second);
}

TEST(TraceRoundTrip, MultipleSinksSeeTheSameStream)
{
    std::string path = writeSyntheticTrace("fanout.itr", 512);
    TraceReader reader(path);
    Collector a, b;
    reader.replay({&a, &b});
    expectSameEvents(a, b);
}

// --- corrupt / hostile files -----------------------------------------------

// Open + full decode in one call: the robustness contract is that a
// bad file fails with a contained FatalError, whether the defect is
// caught by the constructor's structural scan or by the payload
// decode in replay().
void
openAndReplay(const std::string &path)
{
    TraceReader reader(path);
    Collector sink;
    reader.replay({&sink});
}

void
flipByteAt(const std::string &path, uint64_t offset)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg((std::streamoff)offset);
    char c = 0;
    f.read(&c, 1);
    c = (char)(c ^ 0x5a);
    f.seekp((std::streamoff)offset);
    f.write(&c, 1);
}

TEST(TraceCorruption, TruncatedChunkIsContained)
{
    std::string path = writeSyntheticTrace("truncated.itr", 512);
    uint64_t size = (uint64_t)fs::file_size(path);
    fs::resize_file(path, size - 7);
    ScopedFatalThrow contain;
    EXPECT_THROW(openAndReplay(path), FatalError);
}

TEST(TraceCorruption, TruncatedHeaderIsContained)
{
    std::string path = writeSyntheticTrace("shortheader.itr", 512);
    fs::resize_file(path, 20);
    ScopedFatalThrow contain;
    EXPECT_THROW(TraceReader reader(path), FatalError);
}

TEST(TraceCorruption, BadCrcIsContained)
{
    std::string path = writeSyntheticTrace("badcrc.itr", 512);
    // Flip a byte inside the first chunk's payload (header is 80
    // fixed + 4+4 lang + 4+9 name = 101 bytes, chunk header 32).
    flipByteAt(path, 150);
    ScopedFatalThrow contain;
    EXPECT_THROW(openAndReplay(path), FatalError);
}

TEST(TraceCorruption, WrongVersionIsContained)
{
    std::string path = writeSyntheticTrace("badversion.itr", 512);
    flipByteAt(path, 8); // first byte of the version field
    ScopedFatalThrow contain;
    EXPECT_THROW(TraceReader reader(path), FatalError);
}

TEST(TraceCorruption, BadMagicIsContained)
{
    std::string path = writeSyntheticTrace("badmagic.itr", 512);
    flipByteAt(path, 0);
    ScopedFatalThrow contain;
    EXPECT_THROW(TraceReader reader(path), FatalError);
}

TEST(TraceCorruption, UnfinalizedFileIsRejected)
{
    std::string path = tmpPath("unfinished.itr");
    {
        TraceWriter writer(path, "Tcl", "aborted", 512);
        trace::Bundle b;
        b.pc = 64;
        writer.onBundle(b);
        // No finish(): simulates a recording killed mid-run. The
        // destructor warns; the file must then be unreadable.
    }
    ScopedFatalThrow contain;
    EXPECT_THROW(TraceReader reader(path), FatalError);
}

TEST(TraceCorruption, MissingFileIsContained)
{
    ScopedFatalThrow contain;
    EXPECT_THROW(TraceReader reader(tmpPath("does-not-exist.itr")),
                 FatalError);
}

TEST(TraceCorruption, TrailingGarbageIsContained)
{
    std::string path = writeSyntheticTrace("trailing.itr", 512);
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("junk", 4);
    f.close();
    ScopedFatalThrow contain;
    EXPECT_THROW(openAndReplay(path), FatalError);
}

// --- degenerate-but-legal and degenerate-illegal edge files ----------------

TEST(TraceCorruption, ZeroLengthFileIsContained)
{
    // A zero-byte file (e.g. a recording that died before the header
    // write) must fail the header read, not index into an empty
    // buffer.
    std::string path = tmpPath("zero.itr");
    { std::ofstream f(path, std::ios::binary | std::ios::trunc); }
    ASSERT_EQ(fs::file_size(path), 0u);
    ScopedFatalThrow contain;
    EXPECT_THROW(openAndReplay(path), FatalError);
}

TEST(TraceRoundTrip, EmptyFinalizedTapeReplaysCleanly)
{
    // finish() with no events is legal (a run can retire zero virtual
    // commands); the tape must open and replay to all-zero totals —
    // clean EOF, not UB and not a spurious corruption report.
    std::string path = tmpPath("empty.itr");
    {
        TraceWriter writer(path, "Tcl", "empty", 512);
        writer.setRunResult(0, 0, true);
        writer.setCommandNames({});
        writer.finish();
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.meta().totalEvents, 0u);
    EXPECT_EQ(reader.meta().totalInsts, 0u);
    EXPECT_TRUE(reader.meta().finished);
    EXPECT_TRUE(reader.meta().commandNames.empty());
    Collector sink;
    reader.replay({&sink});
    EXPECT_TRUE(sink.events.empty());
}

} // namespace
