/**
 * @file
 * The instrumentation facade the interpreters are written against.
 *
 * An Execution owns the code registry, the data-address mapper, the
 * attribution state (current category / virtual command / memory-model
 * and native-library scopes) and the list of sinks. Interpreter code
 * calls the emission primitives (alu(), load(), branch(), ...) as it
 * performs the corresponding real work; each call turns into Bundle
 * events delivered to every sink.
 *
 * Delivery is batched: bundles accumulate in a fixed BundleBatch and
 * reach the sinks through one Sink::onBatch call when the batch fills
 * or when a non-bundle event (command retirement, memory-model
 * access) must keep its place in the stream — so every sink still
 * observes events in exact emission order. Whoever finishes emitting
 * must call flush() before reading any sink's counters; the harness
 * engine does this once where every run ends (harness::Engine::
 * execute()), so harness users never see a stale sink, and code that
 * drives an interpreter directly calls it after run() returns.
 *
 * The Execution counts the run's virtual commands (commands()) and
 * stops the run itself, in two ways. A deadline (setDeadline()) is
 * checked at its safepoints, on the emission path, and aborts the run
 * by throwing DeadlineExpired. A command budget (setCommandBudget())
 * is checked where each command retires, in beginCommand(), and stops
 * the run before the command past the budget by throwing
 * BudgetExhausted; no interpreter counts or bounds its own commands.
 * Once a run is aborting — the deadline fired, the budget ran out, or
 * a sink threw from a delivery — the Execution disarms the deadline
 * and detaches every sink, so the unwind, whose routine scopes still
 * emit their returns, can neither re-enter a sink nor throw from a
 * destructor. A return that fills the batch while any
 * other exception unwinds aborts the run the same way instead of
 * flushing; outside an unwind its flush may throw, and the throw
 * leaves RoutineScope's destructor for the caller.
 *
 * A Profile can instead be counted at the source (countInto()): the
 * Execution keeps one uint64 counter per attribution (command,
 * category, memory-model/native/system scopes), and every attribution
 * setter points `slot` at the current one. A counting-only run (no
 * batch sink) adds each emission to the instruction count and to
 * *slot; a run with a batch sink adds each run of instructions sharing
 * one attribution to its counter when the attribution changes. flush()
 * folds the counters into the Profile (Profile::accountRun()) and
 * zeroes them, so during a run the Profile hears only of command
 * retirements and memory-model accesses. Bundles are built only while
 * a batch sink is attached; a counting-only run builds none, and its
 * primitives neither map a data address nor step the PC.
 *
 * The counters form a table with a row of kRowSlots for every
 * CommandId, kNoCommand included: 64 Ki rows, 16 MiB of address space
 * reserved with mmap(MAP_NORESERVE), of which a run touches only the
 * rows of the commands it attributes to. The table stays outside
 * operator new on purpose: support/detalloc hands freed cells back to
 * the interpreters LIFO, so a heap allocation during a run would move
 * simulated data addresses. Each thread keeps one zeroed spare table
 * for its next counted Execution; a second counted Execution alive on
 * the same thread reserves its own. An Execution that counts into no
 * Profile adds to one discarded row instead.
 *
 * The counting fast path is inline in the caller: every primitive but
 * the routine calls and returns is one compare of the instruction
 * count against countLimit, then two adds; an attribution change
 * never calls out. Everything else (a due safepoint, any run with a
 * batch sink) is one call to the primitive's out-of-line half in
 * execution.cc, with the emission core forced inline into it.
 * Charge helpers whose loop keeps one attribution throughout may add
 * their closed-form total in one call when countingOnly() holds.
 */

#ifndef INTERP_TRACE_EXECUTION_HH
#define INTERP_TRACE_EXECUTION_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/code_registry.hh"
#include "trace/events.hh"

namespace interp::trace {

class Profile;

/**
 * Thrown at an Execution safepoint once the run's deadline has
 * passed. Deliberately not a std::exception: interpd must tell "the
 * deadline fired" apart from "the program failed" (FatalError and
 * friends), and catching it by its own type keeps the two apart.
 */
struct DeadlineExpired
{
};

/**
 * Thrown by Execution::beginCommand() in place of the retirement past
 * the run's command budget; the harness's engine layer catches it and
 * reports the run unfinished.
 */
struct BudgetExhausted
{
};

/**
 * Maps host pointers into a compact synthetic 32-bit data space.
 *
 * Each distinct 16-byte host granule is assigned the next synthetic
 * granule in first-touch order; the offset inside the granule is
 * preserved. Sixteen bytes is the malloc and stack-frame alignment
 * unit, so both the granule-touch order and the intra-granule offsets
 * are functions of the program's allocation/access sequence alone —
 * never of raw host address values. That makes every simulated data
 * address identical across processes (ASLR) and across threads, which
 * is what lets a parallel suite run reproduce a serial run bit for
 * bit. Sequential walks still map to sequential synthetic addresses,
 * so spatial locality inside arrays and strings remains genuine.
 *
 * A fixed direct-mapped table of recently mapped granules sits in
 * front of the first-touch map and answers most lookups. It is a
 * cache only: the map alone decides the numbering, and it sees the
 * same insertions in the same order as without the table, so its
 * heap allocations (which the deterministic allocator hands back to
 * the interpreters) are unchanged. The table itself allocates nothing.
 *
 * Only runs with a batch sink map addresses: a counting-only run
 * consults neither the mapper nor the PC window, so its map stays
 * empty.
 */
class AddressMapper
{
  public:
    static constexpr uint32_t kGranuleBits = 4; // 16 B: malloc/ABI alignment
    static constexpr uint32_t kHeapBase = 0x40000000u;
    static constexpr uint32_t kRecentEntries = 256;

    AddressMapper() { recentGranule.fill(kNoGranule); }

    /** Synthetic address for a host pointer. */
    uint32_t
    map(const void *ptr)
    {
        auto addr = (uint64_t)ptr;
        uint64_t granule = addr >> kGranuleBits;
        uint32_t slot = (uint32_t)granule % kRecentEntries;
        if (recentGranule[slot] != granule) {
            recentGranule[slot] = granule;
            recentSynth[slot] = firstTouch(granule);
        }
        return kHeapBase + (recentSynth[slot] << kGranuleBits) +
               (uint32_t)(addr & ((1u << kGranuleBits) - 1));
    }

    size_t granulesTouched() const { return granuleMap.size(); }

  private:
    /** No host granule: the top 16 bytes of the address space. */
    static constexpr uint64_t kNoGranule = ~0ull >> kGranuleBits;

    uint32_t
    firstTouch(uint64_t granule)
    {
        auto it = granuleMap.find(granule);
        if (it != granuleMap.end())
            return it->second;
        uint32_t synth = nextGranule++;
        granuleMap.emplace(granule, synth);
        return synth;
    }

    std::array<uint64_t, kRecentEntries> recentGranule;
    std::array<uint32_t, kRecentEntries> recentSynth{};
    std::unordered_map<uint64_t, uint32_t> granuleMap;
    uint32_t nextGranule = 0;
};

/**
 * Interns virtual-command names to dense CommandIds for one
 * interpreter's command set.
 */
class CommandSet
{
  public:
    /** Id for @p name, interning it on first use. */
    CommandId intern(const std::string &name);

    /** Name for an id. */
    const std::string &name(CommandId id) const { return names[id]; }

    size_t size() const { return names.size(); }

  private:
    std::unordered_map<std::string, CommandId> ids;
    std::vector<std::string> names;
};

/** Instrumented execution context; see file comment. */
class Execution
{
  public:
    using Clock = std::chrono::steady_clock;

    Execution();
    ~Execution();

    Execution(const Execution &) = delete;
    Execution &operator=(const Execution &) = delete;

    CodeRegistry &code() { return registry; }
    AddressMapper &mapper() { return addrMapper; }

    /**
     * Attach a sink; not owned. Sinks must be attached before the
     * first instruction or command is emitted — a sink joining
     * mid-run (e.g.\ a tracefile::TraceWriter) would silently record
     * a partial stream that replays to different counters than the
     * live run. fatal() (ScopedFatalThrow-compatible) otherwise.
     */
    void addSink(Sink *sink);
    /**
     * Count the run into @p profile at the source instead of feeding
     * it batches (harness::run's path). The profile ends up with the
     * same counters as an attached Profile sink, once flush() has
     * run. Same attach rule as addSink().
     */
    void countInto(Profile *profile);
    /**
     * True while no batch sink is attached: emissions only count, so
     * their classes, PCs and addresses reach nobody.
     */
    bool countingOnly() const { return sinks.empty(); }

    /**
     * Throw DeadlineExpired at the first safepoint past @p deadline
     * (Clock::time_point::max(), the default, never fires). Every
     * emission but a return compares the instruction count with the
     * next safepoint, which reads the clock every kSafepointInsts
     * instructions from the first emission on. A return is exempt: it
     * runs in RoutineScope's destructor, which may run during an
     * unwind, where a second throw terminates.
     */
    void setDeadline(Clock::time_point deadline);

    /**
     * Stop the run where its (@p budget + 1)-th command would retire:
     * that beginCommand() throws BudgetExhausted instead (see
     * stopRun()). UINT64_MAX, the default, never stops.
     */
    void setCommandBudget(uint64_t budget) { commandBudget = budget; }

    /** Virtual commands retired so far (beginCommand() calls). */
    uint64_t commands() const { return totalCommands; }

    /**
     * Fold the counters into the counted profile and deliver the
     * buffered bundle batch to every sink. Idempotent and cheap when
     * nothing is pending. Must run after the last emission before the
     * profile or sink counters are read; harness::Engine::execute()
     * calls it once the interpreter's run() has returned.
     */
    void flush();

    // --- routine control -------------------------------------------------
    /** Emit a call instruction and enter @p routine. */
    void callRoutine(RoutineId routine);
    /** Emit a return instruction and leave the current routine. */
    void returnRoutine();

    // --- emission primitives ---------------------------------------------
    /** @p n straight-line integer ALU instructions. */
    void
    alu(uint32_t n)
    {
        if (!fastCount(n))
            straightCold(n, InstClass::IntAlu);
    }
    /** @p n shift/byte-class instructions (Table 3 "short int"). */
    void
    shortInt(uint32_t n)
    {
        if (!fastCount(n))
            straightCold(n, InstClass::ShortInt);
    }
    /** @p n floating-point / integer-multiply instructions. */
    void
    floatOp(uint32_t n)
    {
        if (!fastCount(n))
            straightCold(n, InstClass::FloatOp);
    }
    /** @p n no-ops (delay-slot filler). */
    void
    nop(uint32_t n)
    {
        if (!fastCount(n))
            straightCold(n, InstClass::Nop);
    }
    /**
     * A load of the host object at @p ptr. The pointer must not point
     * into a stack frame: its 16-byte granule becomes a simulated data
     * address, so a frame's layout would become a modeled number.
     */
    void
    load(const void *ptr)
    {
        if (!fastCount(1))
            loadCold(ptr);
    }
    /** A store to the host object at @p ptr (same rule as load()). */
    void
    store(const void *ptr)
    {
        if (!fastCount(1))
            storeCold(ptr);
    }
    /** A load at an already-synthetic address (guest memory). */
    void
    loadAt(uint32_t synth_addr)
    {
        if (!fastCount(1))
            loadAtCold(synth_addr);
    }
    /** A store at an already-synthetic address (guest memory). */
    void
    storeAt(uint32_t synth_addr)
    {
        if (!fastCount(1))
            storeAtCold(synth_addr);
    }
    /** A conditional branch with the given outcome. */
    void
    branch(bool taken)
    {
        if (!fastCount(1))
            branchCold(taken);
    }
    /**
     * A computed jump to the entry of @p routine — the dispatch idiom.
     * Control transfers to the routine like callRoutine(), but through
     * an indirect jump (BTC-predicted, no return-stack push).
     */
    void dispatch(RoutineId routine);
    /** Leave a routine entered via dispatch() (jump back, no return). */
    void endDispatch();

    /**
     * Low-level emission at an explicit PC, bypassing the routine
     * machinery. Used by direct-mode execution, where guest PCs are
     * real and no interpreter code runs. Attribution state (category,
     * command, flags) still applies.
     */
    void
    emitAt(uint32_t pc, InstClass cls, uint32_t count = 1,
           uint32_t mem_addr = 0, bool taken = false, uint32_t target = 0)
    {
        if (!fastCount(count))
            emitAtCold(pc, cls, count, mem_addr, taken, target);
    }

    // --- attribution -------------------------------------------------------
    /**
     * Retire one virtual command named by @p id and make it the
     * attribution target for subsequent instructions; or, once the
     * command budget is spent, stop the run (stopRun()).
     */
    void beginCommand(CommandId id);
    /**
     * Re-select @p id as the attribution target without retiring a
     * new command — used by tree-walking interpreters when control
     * returns to a parent op after its children executed.
     */
    void
    resumeCommand(CommandId id)
    {
        attr = (attr & 0xffffu) | (uint32_t)id << 16;
        uint32_t r = ((uint32_t)id + 1) & rowMask;
        if (r > hiRow)
            hiRow = r;
        row = rows + (size_t)r * kRowSlots;
        reslot();
    }
    CommandId currentCommand() const { return (CommandId)(attr >> 16); }
    /** Current attribution category. */
    Category category() const { return (Category)(attr & kCategoryMask); }
    void
    setCategory(Category c)
    {
        attr = (attr & ~kCategoryMask) | (uint32_t)c;
        reslot();
    }
    void setMemModel(bool on) { setFlag(kMemModelFlag, on); }
    bool inMemModel() const { return attr & kMemModelFlag; }
    void setNative(bool on) { setFlag(kNativeFlag, on); }
    bool inNative() const { return attr & kNativeFlag; }
    void setSystem(bool on) { setFlag(kSystemFlag, on); }
    bool inSystem() const { return attr & kSystemFlag; }
    /** Count one logical memory-model access (§3.3 accounting). */
    void noteMemModelAccess();

  private:
    /**
     * A caller's PC window, saved while the routine it called runs.
     *
     * The element stays exactly 16 bytes, and the trace layer's heap
     * allocations during a run keep their sizes and order: the
     * deterministic allocator hands freed cells back to the
     * interpreters LIFO, so a different `frames` growth (a 20-byte
     * Frame) or a different allocation in the mapper gives the
     * interpreters different cells, and the first-touch map then
     * numbers their granules differently.
     */
    struct Frame
    {
        uint32_t pc;
        uint32_t base;
        uint32_t end;
        uint32_t returnPc; ///< caller PC + 4; bit 0: entered by dispatch()
    };
    static_assert(sizeof(Frame) == 16, "see Frame");
    static constexpr uint32_t kViaDispatch = 1;
    /** runKey before the first run opens. */
    static constexpr uint32_t kNoRun = ~0u;
    /** Instructions between two deadline clock reads. */
    static constexpr uint64_t kSafepointInsts = 4096;
    /** nextSafepoint without an armed deadline. */
    static constexpr uint64_t kNoSafepoint = ~0ull;
    /** The category's bits in the attribution word. */
    static constexpr uint32_t kCategoryMask = 0x3;
    /** The scope flags' bits: BundleBatch's flag bits, shifted past
     *  the category's. */
    static constexpr uint32_t kFlagShift = 2;
    static constexpr uint32_t kMemModelFlag = BundleBatch::kMemModelBit
                                              << kFlagShift;
    static constexpr uint32_t kNativeFlag = BundleBatch::kNativeBit
                                            << kFlagShift;
    static constexpr uint32_t kSystemFlag = BundleBatch::kSystemBit
                                            << kFlagShift;
    /**
     * Counters per row of the counter table, one per category and
     * scope flags: the attribution word's low bits index the row.
     */
    static constexpr uint32_t kRowSlots = 32;
    static_assert((kSystemFlag << 1) == kRowSlots, "see kRowSlots");

    void
    setFlag(uint32_t flag, bool on)
    {
        attr = on ? attr | flag : attr & ~flag;
        reslot();
    }
    /** Point slot at the current attribution's counter in its row. */
    void reslot() { slot = row + (attr & (kRowSlots - 1)); }
    /**
     * The counting fast path: add @p n to the count and to the
     * current attribution's counter when the count stays below
     * countLimit. False otherwise, with nothing counted: the caller
     * makes its out-of-line call. A run with a batch sink
     * (countLimit 0) leaves after the one compare.
     */
    bool
    fastCount(uint32_t n)
    {
        if (totalInsts + n < countLimit) [[likely]] {
            totalInsts += n;
            *slot += n;
            return true;
        }
        return false;
    }
    /** Recompute countLimit after a sink or the safepoint changed. */
    void
    relimit()
    {
        countLimit = sinks.empty() ? nextSafepoint : 0;
    }

    // The out-of-line halves of the inline primitives.
    /** Emit an @p n-instruction run of @p cls at the current PC. */
    void straightCold(uint32_t n, InstClass cls);
    void loadCold(const void *ptr);
    void storeCold(const void *ptr);
    void loadAtCold(uint32_t synth_addr);
    void storeAtCold(uint32_t synth_addr);
    void branchCold(bool taken);
    void emitAtCold(uint32_t pc, InstClass cls, uint32_t n,
                    uint32_t mem_addr, bool taken, uint32_t target);

    /** The batch path's count: add @p n to the open attribution run,
     *  first closing the previous run into its counter when the
     *  attribution changed, and pass the deadline safepoint unless
     *  @p Safepoint is false. Returns the attribution. */
    template <bool Safepoint> uint32_t tally(uint32_t n);
    /** The counting-only path's count: add @p n to the count and the
     *  current counter, then pass the safepoint unless @p Safepoint is
     *  false. */
    template <bool Safepoint> void count(uint32_t n);
    /** tally(), then push the bundle: the path with a batch sink. */
    template <bool Safepoint = true>
    void emit(uint32_t at, uint32_t n, InstClass cls, uint32_t mem_addr,
              bool taken, uint32_t target);
    /** Read the clock: arm the next check, or abort the run. */
    void safepoint();
    /**
     * Stop the run here because its command budget ran out: flush(),
     * then detach every sink and the counted profile as an aborting
     * run does, and throw BudgetExhausted. The returns the unwind
     * emits reach neither, so every sink and the profile end on the
     * same instruction.
     */
    [[noreturn]] void stopRun();
    /** The run is aborting: disarm the deadline, drop the pending
     *  batch, detach every sink and the counted profile, whose
     *  unfolded counts are dropped with the batch. */
    void abortRun();
    /** Hand one event to every sink; abortRun() if one throws. */
    template <class Event> void deliver(Event &&event);
    /** Deliver the pending batch, if any, to every sink. */
    void sendBatch();
    /** Close the batch path's open run into its counter, then move
     *  every counter into the counted profile, zeroing it. */
    void fold();
    /** The current PC, then advance it one instruction, wrapping. */
    uint32_t step();
    /** fatal() unless nothing has been emitted yet. */
    void requireFreshStream(const char *what) const;
    /** Emit the transfer into @p routine and make its window current,
     *  saving the caller's. */
    void enter(RoutineId routine, InstClass cls, uint32_t dispatch_bit);
    /** Restore the caller's window and emit the transfer back to it. */
    void leave(InstClass cls, uint32_t dispatch_bit);
    // The batch paths of enter() and leave(), kept out of the calls'
    // own frames so the counting paths set up no more than they use.
    void enterBatched(RoutineId routine, InstClass cls,
                      uint32_t dispatch_bit);
    void leaveBatched(Frame f, InstClass cls);

    CodeRegistry registry;
    AddressMapper addrMapper;
    std::vector<Sink *> sinks;
    Profile *counted = nullptr;
    BundleBatch batch;
    std::vector<Frame> frames;

    // The current routine's window: next PC and body [curBase, curEnd).
    uint32_t curPc = 0;
    uint32_t curBase = 0;
    uint32_t curEnd = 0;

    /**
     * The current attribution as one word: the category in bits 0-1,
     * the BundleBatch flag bits of the memory-model, native and system
     * scopes in bits 2-4, the command in the top half. Never equal to
     * kNoRun.
     */
    uint32_t attr = (uint32_t)Category::Execute | (uint32_t)kNoCommand << 16;

    // The counters (see the file comment). An Execution that counts
    // into no profile has only the discarded row, rowMask 0, so every
    // command selects it.
    uint64_t discard[kRowSlots] = {};
    uint64_t *rows = discard;
    uint32_t rowMask = 0;
    /** The highest row selected so far: fold() and the destructor
     *  scan rows [0, hiRow]. */
    uint32_t hiRow = 0;
    /** The current command's row: row (command + 1) & rowMask. */
    uint64_t *row = discard;
    /** The current attribution's counter. */
    uint64_t *slot = discard + (attr & (kRowSlots - 1));
    /** totalInsts when fold() last ran. */
    uint64_t foldedInsts = 0;

    // The batch path's open attribution run: its key, its counter and
    // totalInsts at its start.
    uint32_t runKey = kNoRun;
    uint64_t *runSlot = discard;
    uint64_t runStart = 0;

    uint64_t totalInsts = 0;
    uint64_t totalCommands = 0;
    uint64_t commandBudget = UINT64_MAX;
    /**
     * The fast path counts while totalInsts stays below this:
     * nextSafepoint without a batch sink, 0 (never) with one.
     */
    uint64_t countLimit = kNoSafepoint;

    Clock::time_point deadline = Clock::time_point::max();
    /** totalInsts at or past which the next emission reads the clock. */
    uint64_t nextSafepoint = kNoSafepoint;
};

// --- RAII helpers ----------------------------------------------------------

/**
 * Enters a routine on construction, returns on destruction. The
 * return may fill the batch, and a sink that throws from that flush
 * throws out of the destructor to the caller.
 */
class RoutineScope
{
  public:
    RoutineScope(Execution &exec, RoutineId routine) : exec_(exec)
    {
        exec_.callRoutine(routine);
    }
    ~RoutineScope() noexcept(false) { exec_.returnRoutine(); }

    RoutineScope(const RoutineScope &) = delete;
    RoutineScope &operator=(const RoutineScope &) = delete;

  private:
    Execution &exec_;
};

/** Sets the attribution category for the current scope. */
class CategoryScope
{
  public:
    CategoryScope(Execution &exec, Category c)
        : exec_(exec), saved(exec.category())
    {
        exec_.setCategory(c);
    }
    ~CategoryScope() { exec_.setCategory(saved); }

    CategoryScope(const CategoryScope &) = delete;
    CategoryScope &operator=(const CategoryScope &) = delete;

  private:
    Execution &exec_;
    Category saved;
};

/** Marks instructions as memory-model overhead for the current scope. */
class MemModelScope
{
  public:
    explicit MemModelScope(Execution &exec)
        : exec_(exec), saved(exec.inMemModel())
    {
        exec_.setMemModel(true);
    }
    ~MemModelScope() { exec_.setMemModel(saved); }

    MemModelScope(const MemModelScope &) = delete;
    MemModelScope &operator=(const MemModelScope &) = delete;

  private:
    Execution &exec_;
    bool saved;
};

/** Marks instructions as operating-system work for the current scope. */
class SystemScope
{
  public:
    explicit SystemScope(Execution &exec)
        : exec_(exec), saved(exec.inSystem())
    {
        exec_.setSystem(true);
    }
    ~SystemScope() { exec_.setSystem(saved); }

    SystemScope(const SystemScope &) = delete;
    SystemScope &operator=(const SystemScope &) = delete;

  private:
    Execution &exec_;
    bool saved;
};

/** Marks instructions as native-library work for the current scope. */
class NativeScope
{
  public:
    explicit NativeScope(Execution &exec)
        : exec_(exec), saved(exec.inNative())
    {
        exec_.setNative(true);
    }
    ~NativeScope() { exec_.setNative(saved); }

    NativeScope(const NativeScope &) = delete;
    NativeScope &operator=(const NativeScope &) = delete;

  private:
    Execution &exec_;
    bool saved;
};

} // namespace interp::trace

#endif // INTERP_TRACE_EXECUTION_HH
