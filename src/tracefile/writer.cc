#include "tracefile/writer.hh"

#include "support/logging.hh"

namespace interp::tracefile {

namespace {

/** Serialize the fixed+variable header for one file. */
std::string
buildHeader(const std::string &lang, const std::string &name,
            uint32_t flags, uint64_t program_bytes, uint64_t commands,
            uint64_t events, uint64_t bundles, uint64_t insts,
            uint64_t command_events, uint64_t mem_accesses,
            uint64_t chunks)
{
    std::string h;
    h.append(kMagic, sizeof(kMagic));
    putU32(h, kVersion);
    putU32(h, flags);
    putU64(h, program_bytes);
    putU64(h, commands);
    putU64(h, events);
    putU64(h, bundles);
    putU64(h, insts);
    putU64(h, command_events);
    putU64(h, mem_accesses);
    putU64(h, chunks);
    // h.size() == kFixedHeaderBytes here by construction.
    putU32(h, (uint32_t)lang.size());
    h += lang;
    putU32(h, (uint32_t)name.size());
    h += name;
    return h;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path, const std::string &lang,
                         const std::string &bench_name,
                         size_t chunk_bytes)
    : path_(path), lang_(lang), name_(bench_name),
      chunkBytes_(chunk_bytes ? chunk_bytes : kDefaultChunkBytes)
{
    if (lang_.size() > kMaxHeaderString ||
        name_.size() > kMaxHeaderString)
        fatal("trace file %s: lang/name too long for header",
              path_.c_str());
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_)
        fatal("cannot create trace file %s", path_.c_str());
    std::string header = buildHeader(lang_, name_, 0, 0, 0, 0, 0, 0, 0,
                                     0, 0);
    out_.write(header.data(), (std::streamsize)header.size());
    if (!out_)
        fatal("trace file %s: header write failed", path_.c_str());
    buf_.reserve(chunkBytes_ + 64);
}

TraceWriter::~TraceWriter()
{
    if (!finished_)
        warn("trace file %s abandoned without finish(); "
             "it will be rejected on replay", path_.c_str());
}

void
TraceWriter::beginEvent()
{
    ++totalEvents_;
    ++bufEvents_;
}

void
TraceWriter::emitStateChange(trace::Category cat, bool mem_model,
                             bool native, bool system,
                             trace::CommandId command)
{
    uint8_t bits = (uint8_t)cat & kStateCatMask;
    if (mem_model)
        bits |= kStateMemModelBit;
    if (native)
        bits |= kStateNativeBit;
    if (system)
        bits |= kStateSystemBit;
    bool cmd_change = command != st_.command;
    if (cmd_change)
        bits |= kStateCommandBit;
    beginEvent();
    buf_.push_back((char)kTagState);
    buf_.push_back((char)bits);
    if (cmd_change)
        putVarint(buf_, command);
    st_.cat = cat;
    st_.memModel = mem_model;
    st_.native = native;
    st_.system = system;
    st_.command = command;
}

void
TraceWriter::onBatch(const trace::BundleBatch &batch)
{
    using trace::BundleBatch;
    for (uint32_t i = 0; i < batch.size(); ++i) {
        uint32_t pc = batch.pcCol()[i];
        uint32_t count = batch.countCol()[i];
        trace::InstClass cls = BundleBatch::cls(batch.clsCatCol()[i]);
        trace::Category cat = BundleBatch::cat(batch.clsCatCol()[i]);
        uint8_t f = batch.flagsCol()[i];
        bool mem_model = (f & BundleBatch::kMemModelBit) != 0;
        bool native = (f & BundleBatch::kNativeBit) != 0;
        bool system = (f & BundleBatch::kSystemBit) != 0;
        trace::CommandId command = batch.commandCol()[i];
        if (cat != st_.cat || mem_model != st_.memModel ||
            native != st_.native || system != st_.system ||
            command != st_.command)
            emitStateChange(cat, mem_model, native, system, command);

        uint8_t tag = kTagBundleBit | ((uint8_t)cls & kBundleClsMask);
        if (f & BundleBatch::kTakenBit)
            tag |= kBundleTakenBit;
        bool seq = pc == st_.nextPc;
        if (seq)
            tag |= kBundleSeqPcBit;
        if (count == 1)
            tag |= kBundleCountOneBit;
        beginEvent();
        buf_.push_back((char)tag);
        if (!seq)
            putSVarint(buf_, (int64_t)pc - (int64_t)st_.nextPc);
        if (count != 1)
            putVarint(buf_, count);
        if (classHasMemAddr(cls)) {
            uint32_t mem_addr = batch.memAddrCol()[i];
            putSVarint(buf_,
                       (int64_t)mem_addr - (int64_t)st_.lastMemAddr);
            st_.lastMemAddr = mem_addr;
        }
        if (classHasTarget(cls))
            putSVarint(buf_, (int64_t)batch.targetCol()[i] - (int64_t)pc);

        st_.nextPc = pc + count * 4;
        ++totalBundles_;
        totalInsts_ += count;
        bufInsts_ += count;

        if (buf_.size() >= chunkBytes_)
            flushEventChunk();
    }
}

void
TraceWriter::onCommand(trace::CommandId command)
{
    beginEvent();
    buf_.push_back((char)kTagCommand);
    putVarint(buf_, command);
    st_.command = command; // mirrors Execution::beginCommand
    ++totalCommandEvents_;
    if (buf_.size() >= chunkBytes_)
        flushEventChunk();
}

void
TraceWriter::onMemModelAccess()
{
    beginEvent();
    buf_.push_back((char)kTagMemAccess);
    ++totalMemAccesses_;
    if (buf_.size() >= chunkBytes_)
        flushEventChunk();
}

void
TraceWriter::flushEventChunk()
{
    if (buf_.empty())
        return;
    writeChunk(kChunkEvents, buf_, bufEvents_, bufInsts_);
    buf_.clear();
    bufEvents_ = 0;
    bufInsts_ = 0;
    st_ = CodecState(); // chunks are independently decodable
}

void
TraceWriter::writeChunk(uint8_t type, const std::string &raw,
                        uint32_t event_count, uint64_t inst_count)
{
    std::string rle = rleCompress(raw);
    const std::string &stored = rle.size() < raw.size() ? rle : raw;
    uint8_t codec = rle.size() < raw.size() ? kCodecRle : kCodecRaw;

    std::string h;
    putU32(h, kChunkMagic);
    h.push_back((char)type);
    h.push_back((char)codec);
    putU16(h, 0);
    putU32(h, (uint32_t)raw.size());
    putU32(h, (uint32_t)stored.size());
    putU32(h, event_count);
    putU32(h, crc32(stored.data(), stored.size()));
    putU64(h, inst_count);
    out_.write(h.data(), (std::streamsize)h.size());
    out_.write(stored.data(), (std::streamsize)stored.size());
    if (!out_)
        fatal("trace file %s: chunk write failed (disk full?)",
              path_.c_str());
    ++numChunks_;
}

void
TraceWriter::setRunResult(uint64_t program_bytes, uint64_t commands,
                          bool finished)
{
    programBytes_ = program_bytes;
    commands_ = commands;
    runFinished_ = finished;
}

void
TraceWriter::setCommandNames(const std::vector<std::string> &names)
{
    names_ = names;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    flushEventChunk();

    std::string names_raw;
    putVarint(names_raw, names_.size());
    for (const std::string &name : names_) {
        putVarint(names_raw, name.size());
        names_raw += name;
    }
    writeChunk(kChunkNames, names_raw, (uint32_t)names_.size(), 0);

    uint32_t flags = kFlagFinalized;
    if (runFinished_)
        flags |= kFlagRunFinished;
    std::string header =
        buildHeader(lang_, name_, flags, programBytes_, commands_,
                    totalEvents_, totalBundles_, totalInsts_,
                    totalCommandEvents_, totalMemAccesses_, numChunks_);
    out_.seekp((std::streamoff)kPatchOffset);
    out_.write(header.data() + kPatchOffset,
               (std::streamsize)(kFixedHeaderBytes - kPatchOffset));
    out_.close();
    if (out_.fail())
        fatal("trace file %s: finalize failed", path_.c_str());
    finished_ = true;
}

} // namespace interp::tracefile
