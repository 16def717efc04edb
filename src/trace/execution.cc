#include "trace/execution.hh"

#include <algorithm>
#include <exception>
#include <new>
#include <utility>

#include <sys/mman.h>

#include "support/logging.hh"
#include "trace/profile.hh"

namespace interp::trace {

CommandId
CommandSet::intern(const std::string &name)
{
    auto it = ids.find(name);
    if (it != ids.end())
        return it->second;
    auto id = (CommandId)names.size();
    // Untrusted source can name this many commands: fail the run, not
    // the process.
    if (id == kNoCommand)
        fatal("more than %u distinct command names", (unsigned)kNoCommand);
    names.push_back(name);
    ids.emplace(name, id);
    return id;
}

// --- the counter table -------------------------------------------------------

namespace {

/** One row per CommandId, kNoCommand's included. */
constexpr size_t kTableRows = size_t(1) << 16;
/** Rows of Execution::kRowSlots counters each. */
constexpr size_t kTableBytes = kTableRows * 32 * sizeof(uint64_t);
/** A table whose run selected more rows is unmapped, not kept as the
 *  spare: the pages it touched stay backed. */
constexpr size_t kSpareRowsKept = 4096;

/** The calling thread's spare counter table, all zero, or null. */
struct SpareTable
{
    uint64_t *table = nullptr;
    ~SpareTable()
    {
        if (table)
            munmap(table, kTableBytes);
    }
};

thread_local SpareTable t_spare;

} // namespace

Execution::Execution()
{
    // Registered first, so every routine the interpreters register is
    // laid out after it.
    const Routine &top = registry.routine(
        registry.registerRoutine("__top__", 256, Segment::InterpCore));
    curBase = curPc = top.base;
    curEnd = top.base + top.sizeInsts * 4;
}

Execution::~Execution()
{
    static_assert(kTableBytes == kTableRows * kRowSlots * sizeof(uint64_t));
    if (rows == discard)
        return;
    if (t_spare.table || hiRow >= kSpareRowsKept) {
        munmap(rows, kTableBytes);
        return;
    }
    // Zero what the run counted since its last fold (an aborted run's
    // counts, the returns of a stopped run's unwind), writing only
    // nonzero counters so untouched pages stay unbacked.
    if (totalInsts != foldedInsts) {
        uint64_t *end = rows + ((size_t)hiRow + 1) * kRowSlots;
        for (uint64_t *c = rows; c != end; ++c)
            if (*c)
                *c = 0;
    }
    t_spare.table = rows;
}

void
Execution::requireFreshStream(const char *what) const
{
    if (totalInsts != 0 || totalCommands != 0)
        fatal("%s attached after %llu instructions / %llu commands were "
              "already emitted; sinks must be registered before "
              "execution starts",
              what, (unsigned long long)totalInsts,
              (unsigned long long)totalCommands);
}

void
Execution::addSink(Sink *sink)
{
    requireFreshStream("trace sink");
    sinks.push_back(sink);
    relimit();
}

void
Execution::countInto(Profile *profile)
{
    requireFreshStream("counted profile");
    counted = profile;
    if (rows != discard)
        return;
    if (t_spare.table) {
        rows = std::exchange(t_spare.table, nullptr);
    } else {
        void *table = mmap(nullptr, kTableBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        if (table == MAP_FAILED)
            throw std::bad_alloc();
        rows = (uint64_t *)table;
    }
    rowMask = kTableRows - 1;
    resumeCommand(currentCommand()); // re-point row and slot
}

void
Execution::setDeadline(Clock::time_point at)
{
    deadline = at;
    nextSafepoint = at == Clock::time_point::max() ? kNoSafepoint : 0;
    relimit();
}

void
Execution::abortRun()
{
    nextSafepoint = kNoSafepoint;
    sinks.clear(); // keeps its capacity: no allocation, no free
    relimit();
    counted = nullptr;
    batch.clear();
}

template <class Event>
void
Execution::deliver(Event &&event)
{
    try {
        for (Sink *sink : sinks)
            event(*sink);
    } catch (...) {
        abortRun();
        throw;
    }
}

void
Execution::sendBatch()
{
    if (batch.empty())
        return;
    deliver([this](Sink &sink) { sink.onBatch(batch); });
    batch.clear();
}

void
Execution::fold()
{
    if (!sinks.empty()) {
        *runSlot += totalInsts - runStart;
        runStart = totalInsts;
    }
    for (uint32_t r = 0; r <= hiRow; ++r) {
        uint64_t *cells = rows + (size_t)r * kRowSlots;
        for (uint32_t i = 0; i < kRowSlots; ++i) {
            if (cells[i] == 0)
                continue;
            counted->accountRun((Category)(i & kCategoryMask),
                                (uint8_t)(i >> kFlagShift),
                                (CommandId)(r - 1), cells[i]);
            cells[i] = 0;
        }
    }
    foldedInsts = totalInsts;
}

void
Execution::flush()
{
    if (counted)
        fold();
    sendBatch();
}

void
Execution::stopRun()
{
    flush();
    abortRun();
    throw BudgetExhausted{};
}

// --- emission core -----------------------------------------------------------
//
// The counting fast path is inline in execution.hh; it calls one of the
// out-of-line halves below when a safepoint is due or a batch sink is
// attached. Every helper in this section but safepoint and the
// transfers' batch halves is forced inline into them, so each half
// calls out only to read the clock at a safepoint and to deliver a full
// batch. Without a batch sink a half
// only counts (count()): it neither maps a data address nor steps the
// PC, which only batch sinks read, and calls and returns keep just the
// routine stack's pairing.

#define EMISSION_CORE [[gnu::always_inline]] inline

template <bool Safepoint>
EMISSION_CORE uint32_t
Execution::tally(uint32_t n)
{
    if (attr != runKey) [[unlikely]] {
        *runSlot += totalInsts - runStart;
        runKey = attr;
        runSlot = slot;
        runStart = totalInsts;
    }
    totalInsts += n;
    if (Safepoint && totalInsts >= nextSafepoint) [[unlikely]]
        safepoint();
    return attr;
}

template <bool Safepoint>
EMISSION_CORE void
Execution::count(uint32_t n)
{
    totalInsts += n;
    *slot += n;
    if (Safepoint && totalInsts >= nextSafepoint) [[unlikely]]
        safepoint();
}

template <bool Safepoint>
EMISSION_CORE void
Execution::emit(uint32_t at, uint32_t n, InstClass cls, uint32_t mem_addr,
                bool taken, uint32_t target)
{
    uint32_t key = tally<Safepoint>(n);
    batch.pushPacked(
        at, n, BundleBatch::packClsCat(cls, (Category)(key & kCategoryMask)),
        (uint8_t)(key >> kFlagShift) | (taken ? BundleBatch::kTakenBit : 0),
        (CommandId)(key >> 16), mem_addr, target);
    if (batch.full()) [[unlikely]] {
        // A return runs in RoutineScope's destructor. While an
        // exception unwinds, a sink's throw from there would
        // terminate, so the failing run drops its batch instead.
        if (!Safepoint && std::uncaught_exceptions() != 0)
            abortRun();
        else
            sendBatch();
    }
}

[[gnu::noinline]] void
Execution::safepoint()
{
    if (Clock::now() < deadline) {
        nextSafepoint = totalInsts + kSafepointInsts;
        relimit();
        return;
    }
    abortRun();
    throw DeadlineExpired{};
}

EMISSION_CORE uint32_t
Execution::step()
{
    uint32_t at = curPc;
    curPc += 4;
    if (curPc >= curEnd)
        curPc = curBase;
    return at;
}

EMISSION_CORE void
Execution::enter(RoutineId routine, InstClass cls, uint32_t dispatch_bit)
{
    if (sinks.empty()) {
        count<true>(1);
        frames.push_back({0, 0, 0, dispatch_bit});
        return;
    }
    enterBatched(routine, cls, dispatch_bit);
}

[[gnu::noinline]] void
Execution::enterBatched(RoutineId routine, InstClass cls,
                        uint32_t dispatch_bit)
{
    const Routine &r = registry.routine(routine);
    uint32_t callee_base = r.base;
    uint32_t callee_end = r.base + r.sizeInsts * 4;
    uint32_t at = step();
    emit(at, 1, cls, 0, true, callee_base);
    frames.push_back({curPc, curBase, curEnd, (at + 4) | dispatch_bit});
    curPc = curBase = callee_base;
    curEnd = callee_end;
}

EMISSION_CORE void
Execution::leave(InstClass cls, uint32_t dispatch_bit)
{
    const char *how = dispatch_bit ? "endDispatch" : "returnRoutine";
    if (frames.empty())
        panic("%s with empty routine stack", how);
    Frame f = frames.back();
    if ((f.returnPc & kViaDispatch) != dispatch_bit)
        panic("%s from %s frame; use %s", how,
              dispatch_bit ? "call" : "dispatch",
              dispatch_bit ? "returnRoutine" : "endDispatch");
    frames.pop_back();
    // Not a safepoint: RoutineScope's destructor lands here.
    if (sinks.empty()) {
        count<false>(1);
        return;
    }
    leaveBatched(f, cls);
}

[[gnu::noinline]] void
Execution::leaveBatched(Frame f, InstClass cls)
{
    uint32_t at = curPc;
    curPc = f.pc;
    curBase = f.base;
    curEnd = f.end;
    emit<false>(at, 1, cls, 0, true, f.returnPc & ~kViaDispatch);
}

// --- out-of-line halves ------------------------------------------------------

void
Execution::straightCold(uint32_t n, InstClass cls)
{
    if (sinks.empty()) {
        // Nothing for a zero count, as the loop below.
        if (n > 0)
            count<true>(n);
        return;
    }
    // Split runs at the routine's end so PCs stay inside its body, and
    // carve each wrap's taken loop-back branch out of the count.
    while (n > 0) {
        uint32_t at = curPc;
        uint32_t run = std::min(n, (curEnd - at) / 4);
        curPc += run * 4;
        if (curPc >= curEnd)
            curPc = curBase;
        emit(at, run, cls, 0, false, 0);
        n -= run;
        if (n > 0) {
            uint32_t branch_pc = step();
            emit(branch_pc, 1, InstClass::CondBranch, 0, true, branch_pc);
            --n;
        }
    }
}

void
Execution::loadCold(const void *ptr)
{
    if (sinks.empty()) {
        count<true>(1);
        return;
    }
    uint32_t addr = addrMapper.map(ptr);
    emit(step(), 1, InstClass::Load, addr, false, 0);
}

void
Execution::storeCold(const void *ptr)
{
    if (sinks.empty()) {
        count<true>(1);
        return;
    }
    uint32_t addr = addrMapper.map(ptr);
    emit(step(), 1, InstClass::Store, addr, false, 0);
}

void
Execution::loadAtCold(uint32_t synth_addr)
{
    if (sinks.empty()) {
        count<true>(1);
        return;
    }
    emit(step(), 1, InstClass::Load, synth_addr, false, 0);
}

void
Execution::storeAtCold(uint32_t synth_addr)
{
    if (sinks.empty()) {
        count<true>(1);
        return;
    }
    emit(step(), 1, InstClass::Store, synth_addr, false, 0);
}

void
Execution::branchCold(bool taken)
{
    if (sinks.empty()) {
        count<true>(1);
        return;
    }
    // Taken branches jump a short distance forward within the routine;
    // the exact target only matters to the predictor's history table.
    uint32_t at = step();
    emit(at, 1, InstClass::CondBranch, 0, taken, at + 16);
}

void
Execution::emitAtCold(uint32_t pc, InstClass cls, uint32_t n,
                      uint32_t mem_addr, bool taken, uint32_t target)
{
    if (sinks.empty()) {
        count<true>(n);
        return;
    }
    emit(pc, n, cls, mem_addr, taken, target);
}

void
Execution::callRoutine(RoutineId routine)
{
    enter(routine, InstClass::Call, 0);
}

void
Execution::returnRoutine()
{
    leave(InstClass::Return, 0);
}

void
Execution::dispatch(RoutineId routine)
{
    enter(routine, InstClass::IndirectJump, kViaDispatch);
}

void
Execution::endDispatch()
{
    leave(InstClass::Jump, kViaDispatch);
}

void
Execution::noteMemModelAccess()
{
    // Keep the access event in stream order behind buffered bundles;
    // a counting-only run has none.
    sendBatch();
    if (counted)
        counted->onMemModelAccess();
    deliver([](Sink &sink) { sink.onMemModelAccess(); });
}

void
Execution::beginCommand(CommandId id)
{
    // The one budget test: every command of every mode retires here,
    // so a budget of B stops every run where command B + 1 would
    // retire.
    if (totalCommands >= commandBudget)
        stopRun();
    // Keep the retirement event in stream order behind buffered
    // bundles (a recorded trace must replay in emission order); a
    // counting-only run has none.
    sendBatch();
    resumeCommand(id);
    ++totalCommands;
    if (counted)
        counted->onCommand(id);
    deliver([id](Sink &sink) { sink.onCommand(id); });
}

} // namespace interp::trace
