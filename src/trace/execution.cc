#include "trace/execution.hh"

#include <algorithm>

#include "support/logging.hh"

namespace interp::trace {

CommandId
CommandSet::intern(const std::string &name)
{
    auto it = ids.find(name);
    if (it != ids.end())
        return it->second;
    auto id = (CommandId)names.size();
    if (id == kNoCommand)
        panic("command set overflow");
    names.push_back(name);
    ids.emplace(name, id);
    return id;
}

Execution::Execution()
{
    topRoutine = registry.registerRoutine("__top__", 256,
                                          Segment::InterpCore);
    topPc = registry.routine(topRoutine).base;
}

void
Execution::addSink(Sink *sink)
{
    if (totalInsts != 0 || totalCommands != 0)
        fatal("trace sink attached after %llu instructions / %llu "
              "commands were already emitted; sinks must be "
              "registered before execution starts",
              (unsigned long long)totalInsts,
              (unsigned long long)totalCommands);
    sinks.push_back(sink);
}

void
Execution::removeSink(Sink *sink)
{
    // Deliver anything the departing sink is still owed.
    flush();
    sinks.erase(std::remove(sinks.begin(), sinks.end(), sink),
                sinks.end());
}

void
Execution::flush()
{
    if (batch.empty())
        return;
    try {
        for (Sink *sink : sinks)
            sink->onBatch(batch);
    } catch (...) {
        // A sink aborted the run (a deadline). The unwind runs
        // RoutineScope destructors that emit into the batch, so it
        // must not be left full.
        batch.clear();
        throw;
    }
    batch.clear();
}

uint32_t
Execution::currentPc() const
{
    return frames.empty() ? topPc : frames.back().pc;
}

void
Execution::deliver(Bundle &bundle)
{
    bundle.cat = cat;
    bundle.command = command;
    bundle.memModel = memModel;
    bundle.native = native;
    bundle.system = system;
    totalInsts += bundle.count;
    batch.push(bundle);
    if (batch.full())
        flush();
}

uint32_t
Execution::advance(uint32_t count)
{
    uint32_t pc;
    if (frames.empty()) {
        const Routine &r = registry.routine(topRoutine);
        pc = topPc;
        topPc += count * 4;
        if (topPc >= r.base + r.sizeInsts * 4)
            topPc = r.base;
        return pc;
    }
    Frame &f = frames.back();
    const Routine &r = registry.routine(f.routine);
    pc = f.pc;
    f.pc += count * 4;
    if (f.pc >= r.base + r.sizeInsts * 4) {
        // Wrap: model an inner loop with a taken backward branch.
        f.pc = r.base;
    }
    return pc;
}

void
Execution::emitStraight(uint32_t count, InstClass cls)
{
    if (count == 0)
        return;
    // Split bundles at routine-wrap boundaries so PCs stay inside the
    // routine body and each wrap is visible as a taken branch.
    while (count > 0) {
        uint32_t pc = currentPc();
        uint32_t limit;
        if (frames.empty()) {
            const Routine &r = registry.routine(topRoutine);
            limit = (r.base + r.sizeInsts * 4 - pc) / 4;
        } else {
            const Routine &r = registry.routine(frames.back().routine);
            limit = (r.base + r.sizeInsts * 4 - pc) / 4;
        }
        uint32_t run = std::min(count, std::max(limit, 1u));
        Bundle b;
        b.pc = advance(run);
        b.count = run;
        b.cls = cls;
        deliver(b);
        count -= run;
        if (count > 0) {
            // Emit the loop-back branch of the wrap.
            Bundle br;
            br.pc = currentPc();
            br.cls = InstClass::CondBranch;
            br.taken = true;
            br.target = currentPc();
            advance(1);
            deliver(br);
            --count;
            if (count == 0)
                break;
        }
    }
}

void
Execution::emitOne(InstClass cls, uint32_t mem_addr, bool taken,
                   uint32_t target)
{
    Bundle b;
    b.pc = advance(1);
    b.cls = cls;
    b.memAddr = mem_addr;
    b.taken = taken;
    b.target = target;
    deliver(b);
}

void
Execution::alu(uint32_t n)
{
    emitStraight(n, InstClass::IntAlu);
}

void
Execution::shortInt(uint32_t n)
{
    emitStraight(n, InstClass::ShortInt);
}

void
Execution::floatOp(uint32_t n)
{
    emitStraight(n, InstClass::FloatOp);
}

void
Execution::nop(uint32_t n)
{
    emitStraight(n, InstClass::Nop);
}

void
Execution::load(const void *ptr)
{
    emitOne(InstClass::Load, addrMapper.map(ptr), false, 0);
}

void
Execution::store(const void *ptr)
{
    emitOne(InstClass::Store, addrMapper.map(ptr), false, 0);
}

void
Execution::loadAt(uint32_t synth_addr)
{
    emitOne(InstClass::Load, synth_addr, false, 0);
}

void
Execution::storeAt(uint32_t synth_addr)
{
    emitOne(InstClass::Store, synth_addr, false, 0);
}

void
Execution::branch(bool taken)
{
    // Taken branches jump a short distance forward within the routine;
    // the exact target only matters to the predictor's history table.
    uint32_t pc = currentPc();
    emitOne(InstClass::CondBranch, 0, taken, pc + 16);
}

void
Execution::callRoutine(RoutineId routine)
{
    const Routine &r = registry.routine(routine);
    uint32_t caller_pc = currentPc();
    emitOne(InstClass::Call, 0, true, r.base);
    Frame f;
    f.routine = routine;
    f.pc = r.base;
    f.viaDispatch = false;
    f.returnPc = caller_pc + 4;
    frames.push_back(f);
}

void
Execution::returnRoutine()
{
    if (frames.empty())
        panic("returnRoutine with empty routine stack");
    Frame f = frames.back();
    if (f.viaDispatch)
        panic("returnRoutine from dispatch frame; use endDispatch");
    uint32_t ret_pc = f.pc;
    frames.pop_back();
    Bundle b;
    b.pc = ret_pc;
    b.cls = InstClass::Return;
    b.taken = true;
    b.target = f.returnPc;
    deliver(b);
}

void
Execution::dispatch(RoutineId routine)
{
    const Routine &r = registry.routine(routine);
    uint32_t caller_pc = currentPc();
    emitOne(InstClass::IndirectJump, 0, true, r.base);
    Frame f;
    f.routine = routine;
    f.pc = r.base;
    f.viaDispatch = true;
    f.returnPc = caller_pc + 4;
    frames.push_back(f);
}

void
Execution::endDispatch()
{
    if (frames.empty())
        panic("endDispatch with empty routine stack");
    Frame f = frames.back();
    if (!f.viaDispatch)
        panic("endDispatch from call frame; use returnRoutine");
    uint32_t pc = f.pc;
    frames.pop_back();
    Bundle b;
    b.pc = pc;
    b.cls = InstClass::Jump;
    b.taken = true;
    b.target = f.returnPc;
    deliver(b);
}

void
Execution::emitAt(uint32_t pc, InstClass cls, uint32_t count,
                  uint32_t mem_addr, bool taken, uint32_t target)
{
    Bundle b;
    b.pc = pc;
    b.cls = cls;
    b.count = count;
    b.memAddr = mem_addr;
    b.taken = taken;
    b.target = target;
    deliver(b);
}

void
Execution::noteMemModelAccess()
{
    // Keep the access event in stream order behind buffered bundles.
    flush();
    for (Sink *sink : sinks)
        sink->onMemModelAccess();
}

void
Execution::beginCommand(CommandId id)
{
    // Keep the retirement event in stream order behind buffered
    // bundles (a recorded trace must replay in emission order).
    flush();
    command = id;
    ++totalCommands;
    for (Sink *sink : sinks)
        sink->onCommand(id);
}

} // namespace interp::trace
