/**
 * @file
 * Native-instruction event model.
 *
 * The paper instrumented real Alpha binaries with ATOM and fed the
 * resulting instruction/address traces to counters and a machine
 * simulator. Here each interpreter is written against an explicit
 * instrumentation API (trace::Execution) and *emits* the equivalent
 * trace while doing its real work. The unit of emission is a Bundle:
 * a run of sequential instructions sharing a class and attribution.
 * Loads, stores and branches are single-instruction bundles carrying
 * an address or an outcome; straight-line ALU work is batched, which
 * keeps tracing overhead low without changing what the consumers see
 * (consecutive PCs within one routine).
 */

#ifndef INTERP_TRACE_EVENTS_HH
#define INTERP_TRACE_EVENTS_HH

#include <array>
#include <cstdint>

namespace interp::trace {

/** Instruction classes, mirroring the stall taxonomy of Table 3. */
enum class InstClass : uint8_t
{
    IntAlu,       ///< ordinary integer ALU op
    ShortInt,     ///< shift / byte manipulation (2-cycle latency class)
    Load,         ///< memory read
    Store,        ///< memory write
    CondBranch,   ///< conditional branch
    Jump,         ///< unconditional direct jump
    IndirectJump, ///< computed jump (e.g.\ switch dispatch)
    Call,         ///< subroutine call (pushes return stack)
    Return,       ///< subroutine return (pops return stack)
    FloatOp,      ///< floating point / integer multiply ("other" class)
    Nop,          ///< no-op (delay-slot filler)
};

/** Attribution of instructions to phases of interpretation (Table 2). */
enum class Category : uint8_t
{
    FetchDecode, ///< fetching/decoding the next virtual command
    Execute,     ///< performing the command's operation
    Precompile,  ///< startup compilation (Perl-style), reported apart
};

/** Identifier of a virtual command within one interpreter's command set. */
using CommandId = uint16_t;

/** Command id used before any command has been entered. */
constexpr CommandId kNoCommand = 0xffff;

/** A run of @c count sequential instructions starting at @c pc. */
struct Bundle
{
    uint32_t pc = 0;       ///< synthetic PC of the first instruction
    uint32_t count = 1;    ///< number of instructions in the run
    InstClass cls = InstClass::IntAlu;
    Category cat = Category::Execute;
    CommandId command = kNoCommand;
    bool memModel = false; ///< attributed to the VM's memory model
    bool native = false;   ///< attributed to a native runtime library
    bool system = false;   ///< OS work: timed (cycles) but excluded
                           ///< from Table 2 instruction counts
    bool taken = false;    ///< branch outcome (branch classes only)
    uint32_t memAddr = 0;  ///< synthetic data address (Load/Store)
    uint32_t target = 0;   ///< branch/jump/call target PC
};

/**
 * A fixed-capacity run of consecutive Bundles, delivered to sinks in
 * one virtual call.
 *
 * Producers (trace::Execution, tracefile::TraceReader) accumulate
 * bundles here and flush a full batch — or a partial one whenever a
 * non-bundle event (command retirement, memory-model access) must be
 * delivered — so the relative order of all events is preserved
 * exactly. Consumers see the same stream they would have seen
 * bundle-at-a-time; the batch only amortizes the per-event dispatch
 * cost that dominated the trace→simulator hot path.
 *
 * The storage is struct-of-arrays: one parallel column per field,
 * with the class+category packed into one byte and the four bools
 * packed into another. The hot sinks (sim::Machine, trace::Profile,
 * sim::CacheSweep, tracefile::TraceWriter) iterate the columns
 * directly, so per-bundle work touches only the fields its class
 * needs (a Load run never loads targets; an IntAlu run never loads
 * data addresses). Cold sinks loop over Bundle values instead:
 * operator[] and the iterator materialize a Bundle by value from the
 * columns.
 */
class BundleBatch
{
  public:
    /** 256 bundles ≈ 4.5 KB of columns: L1d-resident while drained. */
    static constexpr uint32_t kCapacity = 256;

    // clsCat packing: InstClass in the low nibble (11 values),
    // Category in bits 4-5.
    static constexpr uint8_t kClsMask = 0x0f;
    static constexpr uint8_t kCatShift = 4;
    // flags packing.
    static constexpr uint8_t kMemModelBit = 1 << 0;
    static constexpr uint8_t kNativeBit = 1 << 1;
    static constexpr uint8_t kSystemBit = 1 << 2;
    static constexpr uint8_t kTakenBit = 1 << 3;

    bool full() const { return count_ == kCapacity; }
    bool empty() const { return count_ == 0; }
    uint32_t size() const { return count_; }
    void clear() { count_ = 0; }

    /**
     * Append one bundle. Pushing into a full batch is a contained
     * fatal() (ScopedFatalThrow-compatible), not silent corruption:
     * a producer that misses a flush must fail loudly in every build
     * type. The check is one always-false-predicted compare.
     */
    void
    push(const Bundle &bundle)
    {
        if (count_ == kCapacity) [[unlikely]]
            overflow();
        uint32_t i = count_++;
        pc_[i] = bundle.pc;
        nInsts_[i] = bundle.count;
        memAddr_[i] = bundle.memAddr;
        target_[i] = bundle.target;
        clsCat_[i] = packClsCat(bundle.cls, bundle.cat);
        flags_[i] = packFlags(bundle.memModel, bundle.native,
                              bundle.system, bundle.taken);
        command_[i] = bundle.command;
    }

    /**
     * Append one bundle already in column form (packed class/category
     * and flag bytes). The tape decoder's hot loop uses this to fill
     * the columns without materializing a Bundle struct; the overflow
     * contract matches push().
     */
    void
    pushPacked(uint32_t pc, uint32_t n_insts, uint8_t cls_cat,
               uint8_t flag_bits, CommandId command, uint32_t mem_addr,
               uint32_t target)
    {
        if (count_ == kCapacity) [[unlikely]]
            overflow();
        uint32_t i = count_++;
        pc_[i] = pc;
        nInsts_[i] = n_insts;
        memAddr_[i] = mem_addr;
        target_[i] = target;
        clsCat_[i] = cls_cat;
        flags_[i] = flag_bits;
        command_[i] = command;
    }

    /** Materialize bundle @p i from the columns (cold-sink view). */
    Bundle
    get(uint32_t i) const
    {
        Bundle b;
        b.pc = pc_[i];
        b.count = nInsts_[i];
        b.cls = cls(clsCat_[i]);
        b.cat = cat(clsCat_[i]);
        b.command = command_[i];
        uint8_t f = flags_[i];
        b.memModel = (f & kMemModelBit) != 0;
        b.native = (f & kNativeBit) != 0;
        b.system = (f & kSystemBit) != 0;
        b.taken = (f & kTakenBit) != 0;
        b.memAddr = memAddr_[i];
        b.target = target_[i];
        return b;
    }

    Bundle operator[](uint32_t i) const { return get(i); }

    // --- column views (hot-sink interface) -----------------------------
    const uint32_t *pcCol() const { return pc_.data(); }
    /** Instructions per bundle (Bundle::count). */
    const uint32_t *countCol() const { return nInsts_.data(); }
    const uint32_t *memAddrCol() const { return memAddr_.data(); }
    const uint32_t *targetCol() const { return target_.data(); }
    const uint8_t *clsCatCol() const { return clsCat_.data(); }
    const uint8_t *flagsCol() const { return flags_.data(); }
    const CommandId *commandCol() const { return command_.data(); }

    static uint8_t
    packClsCat(InstClass cls_, Category cat_)
    {
        return (uint8_t)((uint8_t)cls_ | ((uint8_t)cat_ << kCatShift));
    }
    static uint8_t
    packFlags(bool mem_model, bool native_, bool system_, bool taken_)
    {
        return (uint8_t)((mem_model ? kMemModelBit : 0) |
                         (native_ ? kNativeBit : 0) |
                         (system_ ? kSystemBit : 0) |
                         (taken_ ? kTakenBit : 0));
    }
    static InstClass cls(uint8_t cls_cat)
    {
        return (InstClass)(cls_cat & kClsMask);
    }
    static Category cat(uint8_t cls_cat)
    {
        return (Category)(cls_cat >> kCatShift);
    }

    /** Value-yielding iterator so range-for keeps working. */
    class const_iterator
    {
      public:
        const_iterator(const BundleBatch *batch, uint32_t i)
            : batch_(batch), i_(i)
        {
        }
        Bundle operator*() const { return batch_->get(i_); }
        const_iterator &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        const BundleBatch *batch_;
        uint32_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }

  private:
    /** Out-of-line cold path: fatal("BundleBatch overflow ..."). */
    [[noreturn]] static void overflow();

    uint32_t count_ = 0;
    // Each column starts on its own 64-byte cache line.
    alignas(64) std::array<uint32_t, kCapacity> pc_;
    alignas(64) std::array<uint32_t, kCapacity> nInsts_;
    alignas(64) std::array<uint32_t, kCapacity> memAddr_;
    alignas(64) std::array<uint32_t, kCapacity> target_;
    alignas(64) std::array<uint8_t, kCapacity> clsCat_;
    alignas(64) std::array<uint8_t, kCapacity> flags_;
    alignas(64) std::array<CommandId, kCapacity> command_;
};

/**
 * Consumer of the instruction stream. Bundles arrive only in batches:
 * onBatch() is the one method a sink implements. Hot sinks iterate
 * the batch's columns; cold ones loop over its Bundle values.
 */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** Observe a batch of bundles, in stream order. */
    virtual void onBatch(const BundleBatch &batch) = 0;

    /**
     * Deliver @p bundle to onBatch() as a one-bundle batch: the way
     * tests feed a sink a hand-built stream. No producer calls it. It
     * stays virtual only because perfbench's sinks still override it.
     */
    virtual void
    onBundle(const Bundle &bundle)
    {
        BundleBatch one;
        one.push(bundle);
        onBatch(one);
    }

    /** Observe the retirement of one virtual command. */
    virtual void onCommand(CommandId command) { (void)command; }

    /**
     * Observe one logical access made through the virtual machine's
     * memory model (a guest load/store, a variable lookup, ...);
     * used for the per-access cost accounting of §3.3.
     */
    virtual void onMemModelAccess() {}
};

} // namespace interp::trace

#endif // INTERP_TRACE_EVENTS_HH
