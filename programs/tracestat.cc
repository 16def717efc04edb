/**
 * @file
 * tracestat: inspect binary trace files (.itr) recorded with
 * `--record <dir>` (see src/tracefile/ and record_replay.hh).
 *
 * For each file it prints the header (who was recorded, run results,
 * event totals), a chunk summary (encoding, compression, events and
 * instructions per chunk), an instruction-class histogram from a full
 * decode, and — so future encoding changes have a baseline to beat —
 * the file-size economics (bytes/event, bytes per thousand
 * instructions) and the decode throughput in events and instructions
 * per second.
 *
 * Usage: tracestat [-v] <file.itr> [more.itr ...]
 *   -v  also list every chunk (default: first 8 + aggregate)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "trace/events.hh"
#include "tracefile/format.hh"
#include "tracefile/reader.hh"

using namespace interp;
using namespace interp::tracefile;

namespace {

const char *
className(trace::InstClass cls)
{
    switch (cls) {
      case trace::InstClass::IntAlu: return "int alu";
      case trace::InstClass::ShortInt: return "short int";
      case trace::InstClass::Load: return "load";
      case trace::InstClass::Store: return "store";
      case trace::InstClass::CondBranch: return "cond branch";
      case trace::InstClass::Jump: return "jump";
      case trace::InstClass::IndirectJump: return "indirect jump";
      case trace::InstClass::Call: return "call";
      case trace::InstClass::Return: return "return";
      case trace::InstClass::FloatOp: return "float/mul";
      case trace::InstClass::Nop: return "nop";
      default: return "?";
    }
}

constexpr int kNumClasses = (int)trace::InstClass::Nop + 1;

/** Sink tallying the decoded stream for the histogram section. */
class StatSink : public trace::Sink
{
  public:
    void
    onBatch(const trace::BundleBatch &batch) override
    {
        for (const trace::Bundle &b : batch) {
            classInsts[(int)b.cls] += b.count;
            ++classBundles[(int)b.cls];
            totalInsts += b.count;
            if (b.memModel)
                memModelInsts += b.count;
            if (b.native)
                nativeInsts += b.count;
            if (b.system)
                systemInsts += b.count;
            if (b.cat == trace::Category::FetchDecode)
                fetchDecodeInsts += b.count;
            else if (b.cat == trace::Category::Precompile)
                precompileInsts += b.count;
        }
    }

    void onCommand(trace::CommandId) override { ++commands; }
    void onMemModelAccess() override { ++memAccesses; }

    uint64_t classInsts[kNumClasses] = {};
    uint64_t classBundles[kNumClasses] = {};
    uint64_t totalInsts = 0;
    uint64_t memModelInsts = 0;
    uint64_t nativeInsts = 0;
    uint64_t systemInsts = 0;
    uint64_t fetchDecodeInsts = 0;
    uint64_t precompileInsts = 0;
    uint64_t commands = 0;
    uint64_t memAccesses = 0;
};

/** Sink that discards everything: the decode-throughput workload. */
class NullSink : public trace::Sink
{
  public:
    void onBatch(const trace::BundleBatch &) override {}
};

double
mb(uint64_t bytes)
{
    return (double)bytes / (1024.0 * 1024.0);
}

void
printFile(const std::string &path, bool verbose)
{
    TraceReader reader(path);
    const TraceMeta &meta = reader.meta();

    std::printf("%s\n", path.c_str());
    std::printf("  recorded run    %s-%s  (program %.1f KB, %llu "
                "commands%s)\n",
                meta.lang.c_str(), meta.name.c_str(),
                meta.programBytes / 1024.0,
                (unsigned long long)meta.commands,
                meta.finished ? "" : ", hit budget");

    StatSink stats;
    reader.replay({&stats});

    uint64_t stored_payload = 0, raw_payload = 0, rle_chunks = 0,
             event_chunks = 0;
    for (const ChunkInfo &c : reader.chunks()) {
        if (c.type != kChunkEvents)
            continue;
        ++event_chunks;
        stored_payload += c.storedBytes;
        raw_payload += c.rawBytes;
        if (c.codec == kCodecRle)
            ++rle_chunks;
    }

    std::printf("  events          %llu  (%llu bundles, %llu command "
                "retires, %llu mem-model accesses)\n",
                (unsigned long long)meta.totalEvents,
                (unsigned long long)meta.totalBundles,
                (unsigned long long)meta.totalCommandEvents,
                (unsigned long long)meta.totalMemAccesses);
    std::printf("  instructions    %llu  (%.1f per bundle)\n",
                (unsigned long long)meta.totalInsts,
                meta.totalBundles
                    ? (double)meta.totalInsts / (double)meta.totalBundles
                    : 0.0);
    std::printf("  file size       %.2f MB in %llu event chunks "
                "(%llu RLE)  [payload %.2f MB raw -> %.2f MB stored, "
                "%.2fx]\n",
                mb(reader.fileBytes()),
                (unsigned long long)event_chunks,
                (unsigned long long)rle_chunks, mb(raw_payload),
                mb(stored_payload),
                stored_payload ? (double)raw_payload /
                                     (double)stored_payload
                               : 1.0);
    std::printf("  density         %.2f bytes/event, %.1f bytes per "
                "1k instructions\n",
                meta.totalEvents ? (double)reader.fileBytes() /
                                       (double)meta.totalEvents
                                 : 0.0,
                meta.totalInsts ? 1000.0 * (double)reader.fileBytes() /
                                      (double)meta.totalInsts
                                : 0.0);

    if (verbose) {
        std::printf("  %-6s %-6s %-4s %10s %10s %10s %12s\n", "chunk",
                    "type", "enc", "raw(B)", "stored(B)", "events",
                    "insts");
        size_t idx = 0;
        for (const ChunkInfo &c : reader.chunks()) {
            std::printf("  %-6zu %-6s %-4s %10u %10u %10u %12llu\n",
                        idx++, c.type == kChunkEvents ? "events"
                                                      : "names",
                        c.codec == kCodecRle ? "rle" : "raw",
                        c.rawBytes, c.storedBytes, c.eventCount,
                        (unsigned long long)c.instCount);
        }
    }

    std::printf("  %-14s %14s %8s %14s\n", "class", "insts", "%",
                "bundles");
    for (int c = 0; c < kNumClasses; ++c) {
        if (!stats.classBundles[c])
            continue;
        std::printf("  %-14s %14llu %7.1f%% %14llu\n",
                    className((trace::InstClass)c),
                    (unsigned long long)stats.classInsts[c],
                    stats.totalInsts ? 100.0 * (double)stats.classInsts[c] /
                                           (double)stats.totalInsts
                                     : 0.0,
                    (unsigned long long)stats.classBundles[c]);
    }
    std::printf("  attribution     fetch/decode %.1f%%, precompile "
                "%.1f%%, mem-model %.1f%%, native %.1f%%, system "
                "%.1f%%\n",
                stats.totalInsts ? 100.0 * (double)stats.fetchDecodeInsts /
                                       (double)stats.totalInsts
                                 : 0.0,
                stats.totalInsts ? 100.0 * (double)stats.precompileInsts /
                                       (double)stats.totalInsts
                                 : 0.0,
                stats.totalInsts ? 100.0 * (double)stats.memModelInsts /
                                       (double)stats.totalInsts
                                 : 0.0,
                stats.totalInsts ? 100.0 * (double)stats.nativeInsts /
                                       (double)stats.totalInsts
                                 : 0.0,
                stats.totalInsts ? 100.0 * (double)stats.systemInsts /
                                       (double)stats.totalInsts
                                 : 0.0);
    std::printf("  command names   %zu interned\n",
                meta.commandNames.size());

    // Decode throughput: a timed pass into a do-nothing sink, so the
    // number is the decoder's own speed, not a simulator's.
    NullSink null;
    auto start = std::chrono::steady_clock::now();
    reader.replay({&null});
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (elapsed > 0) {
        std::printf("  decode speed    %.1f M events/s, %.1f M "
                    "insts/s, %.1f MB/s (%.3f s)\n",
                    (double)meta.totalEvents / elapsed / 1e6,
                    (double)meta.totalInsts / elapsed / 1e6,
                    mb(reader.fileBytes()) / elapsed, elapsed);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool verbose = false;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-v") == 0)
            verbose = true;
        else
            files.push_back(argv[i]);
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "usage: tracestat [-v] <file.itr> [more.itr ...]\n"
                     "Record trace files with any bench driver's "
                     "--record <dir> option.\n");
        return 2;
    }
    int failures = 0;
    for (const std::string &path : files) {
        try {
            ScopedFatalThrow contain;
            printFile(path, verbose);
        } catch (const std::exception &ex) {
            std::fprintf(stderr, "tracestat: %s\n", ex.what());
            ++failures;
        }
    }
    return failures ? 1 : 0;
}
