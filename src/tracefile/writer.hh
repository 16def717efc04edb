/**
 * @file
 * TraceWriter: a trace::Sink that records the instrumented event
 * stream into a .itr file (see format.hh).
 *
 * Usage mirrors the paper's capture-once workflow: attach a writer to
 * the trace::Execution of one benchmark run (harness::runOrReplay does
 * this for `--record`), let the run emit its events, then store the
 * run's results (command count, finished flag, command names) and call
 * finish(). finish() seals the last chunk, appends the command-name
 * table and patches the header totals; a file without that patch is
 * rejected by TraceReader, so an aborted recording can never
 * masquerade as a complete trace.
 */

#ifndef INTERP_TRACEFILE_WRITER_HH
#define INTERP_TRACEFILE_WRITER_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "tracefile/format.hh"
#include "trace/events.hh"

namespace interp::tracefile {

/** Per-chunk delta/attribution state shared by encoder and decoder. */
struct CodecState
{
    uint32_t nextPc = 0;      ///< expected PC of the next bundle
    uint32_t lastMemAddr = 0; ///< previous load/store data address
    trace::Category cat = trace::Category::Execute;
    trace::CommandId command = trace::kNoCommand;
    bool memModel = false;
    bool native = false;
    bool system = false;
};

/** True for classes whose bundles carry a meaningful target PC. */
constexpr bool
classHasTarget(trace::InstClass cls)
{
    switch (cls) {
      case trace::InstClass::CondBranch:
      case trace::InstClass::Jump:
      case trace::InstClass::IndirectJump:
      case trace::InstClass::Call:
      case trace::InstClass::Return:
        return true;
      default:
        return false;
    }
}

/** True for classes whose bundles carry a data address. */
constexpr bool
classHasMemAddr(trace::InstClass cls)
{
    return cls == trace::InstClass::Load ||
           cls == trace::InstClass::Store;
}

/** Event sink writing the binary trace file. */
class TraceWriter : public trace::Sink
{
  public:
    /**
     * Create @p path and write a provisional header. @p lang and
     * @p bench_name identify the run (harness::langName / spec name);
     * @p chunk_bytes is the raw-payload chunk size (tests shrink it
     * to exercise chunk boundaries).
     */
    TraceWriter(const std::string &path, const std::string &lang,
                const std::string &bench_name,
                size_t chunk_bytes = kDefaultChunkBytes);

    /** Warns if the writer was abandoned without finish(). */
    ~TraceWriter() override;

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    // --- trace::Sink ------------------------------------------------------
    /**
     * Encode a batch straight from the SoA columns (no Bundle
     * materialization). The codec state carries across batches, so
     * the bytes do not depend on where the batches were cut.
     */
    void onBatch(const trace::BundleBatch &batch) override;
    void onCommand(trace::CommandId command) override;
    void onMemModelAccess() override;

    // --- run results (before finish) --------------------------------------
    /** Store the run's Measurement-level results in the header. */
    void setRunResult(uint64_t program_bytes, uint64_t commands,
                      bool finished);
    /** Store the interned command-name table (written as a chunk). */
    void setCommandNames(const std::vector<std::string> &names);

    /** Seal the file: flush, write names, patch header totals. */
    void finish();

    const std::string &path() const { return path_; }

  private:
    void beginEvent();
    void emitStateChange(trace::Category cat, bool mem_model,
                         bool native, bool system,
                         trace::CommandId command);
    void flushEventChunk();
    void writeChunk(uint8_t type, const std::string &raw,
                    uint32_t event_count, uint64_t inst_count);

    std::string path_;
    std::ofstream out_;
    std::string lang_;
    std::string name_;
    size_t chunkBytes_;

    std::string buf_;        ///< raw payload of the open chunk
    uint32_t bufEvents_ = 0; ///< events encoded into buf_
    uint64_t bufInsts_ = 0;  ///< instructions covered by buf_
    CodecState st_;

    uint64_t programBytes_ = 0;
    uint64_t commands_ = 0;
    bool runFinished_ = false;
    std::vector<std::string> names_;

    uint64_t totalEvents_ = 0;
    uint64_t totalBundles_ = 0;
    uint64_t totalInsts_ = 0;
    uint64_t totalCommandEvents_ = 0;
    uint64_t totalMemAccesses_ = 0;
    uint64_t numChunks_ = 0;
    bool finished_ = false;
};

} // namespace interp::tracefile

#endif // INTERP_TRACEFILE_WRITER_HH
