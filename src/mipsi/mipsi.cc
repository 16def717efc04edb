#include "mipsi/mipsi.hh"

#include "support/logging.hh"

namespace interp::mipsi {

using trace::Category;
using trace::CategoryScope;
using trace::MemModelScope;
using trace::RoutineScope;

Mipsi::Mipsi(trace::Execution &exec_, vfs::FileSystem &fs_)
    : exec(exec_), fs(fs_)
{
    auto &code = exec.code();
    rLoop = code.registerRoutine("mipsi.loop", 64);
    rTranslate = code.registerRoutine("mipsi.translate", 96);
    rDecode = code.registerRoutine("mipsi.decode", 96);
    rAlu = code.registerRoutine("mipsi.exec_alu", 48);
    rShift = code.registerRoutine("mipsi.exec_shift", 40);
    rMem = code.registerRoutine("mipsi.exec_mem", 64);
    rBranch = code.registerRoutine("mipsi.exec_branch", 48);
    rJump = code.registerRoutine("mipsi.exec_jump", 40);
    rMulDiv = code.registerRoutine("mipsi.exec_muldiv", 48);
    rSyscall = code.registerRoutine("mipsi.exec_syscall", 32);

    for (size_t i = 0; i < (size_t)mips::Op::NumOps; ++i)
        opCommand[i] = commands.intern(mips::opName((mips::Op)i));
}

void
Mipsi::load(const mips::Image &image)
{
    mem.loadImage(image);
    state.reset(image.entry, mips::kStackTop - 64);
    syscallStorage = std::make_unique<SyscallHandler>(
        exec, fs, mem, image.initialBreak());
    syscalls = syscallStorage.get();
}

void
Mipsi::emitTranslate(uint32_t guest_addr)
{
    // The in-core two-level page-table walk of §3.3. Every emitted
    // instruction corresponds to work a software MMU performs: callee
    // save/restore, level-1 and level-2 table loads with validity
    // checks, statistics, permission and range checks, and address
    // composition.
    RoutineScope r(exec, rTranslate);
    if (exec.countingOnly()) {
        // Nobody reads the classes or addresses, only the attribution,
        // which the walk keeps throughout: its 28 instructions at once.
        exec.alu(28);
        return;
    }
    exec.alu(2);                           // prologue: sp adjust
    exec.store(&state.regs[16]);           // callee saves
    exec.store(&state.regs[17]);
    exec.store(&state.regs[18]);
    exec.shortInt(2);                      // level-1 index shift/mask
    exec.load(mem.l1EntryAddr(guest_addr));
    exec.branch(true);                     // level-1 valid?
    exec.shortInt(2);                      // level-2 index
    exec.load(mem.l2EntryAddr(guest_addr));
    exec.branch(true);                     // page present?
    exec.alu(2);                           // permissions mask
    exec.branch(true);                     // protection check
    exec.shortInt(2);                      // alignment check
    exec.branch(true);
    exec.load(&decodeTable[60]);           // access-statistics counter
    exec.alu(1);
    exec.store(&decodeTable[60]);
    exec.alu(2);                           // compose host address
    exec.load(&state.regs[16]);            // restores
    exec.load(&state.regs[17]);
    exec.load(&state.regs[18]);
    exec.alu(1);                           // epilogue
}

void
Mipsi::emitDirectTranslate(uint32_t guest_addr)
{
    // The stencil region embeds the level-1 resolution at compile
    // time, so a data access costs one guarded level-2 probe: index,
    // entry load, presence guard, address composition.
    RoutineScope r(exec, rDirectTranslate);
    exec.shortInt(1);                      // level-2 index
    exec.load(mem.l2EntryAddr(guest_addr));
    exec.branch(true);                     // page present?
    exec.alu(1);                           // compose host address
}

Mipsi::HClass
Mipsi::handlerClass(mips::Op op)
{
    switch (op) {
      case mips::Op::Lb: case mips::Op::Lbu: case mips::Op::Lh:
      case mips::Op::Lhu: case mips::Op::Lw: case mips::Op::Sb:
      case mips::Op::Sh: case mips::Op::Sw:
        return HClass::Mem;
      case mips::Op::Sll: case mips::Op::Srl: case mips::Op::Sra:
      case mips::Op::Sllv: case mips::Op::Srlv: case mips::Op::Srav:
        return HClass::Shift;
      case mips::Op::Beq: case mips::Op::Bne: case mips::Op::Blez:
      case mips::Op::Bgtz: case mips::Op::Bltz: case mips::Op::Bgez:
        return HClass::Branch;
      case mips::Op::J: case mips::Op::Jal: case mips::Op::Jr:
      case mips::Op::Jalr:
        return HClass::Jump;
      case mips::Op::Mult: case mips::Op::Multu: case mips::Op::Div:
      case mips::Op::Divu: case mips::Op::Mfhi: case mips::Op::Mflo:
      case mips::Op::Mthi: case mips::Op::Mtlo:
        return HClass::MulDiv;
      case mips::Op::Syscall:
        return HClass::Syscall;
      default:
        return HClass::Alu;
    }
}

trace::RoutineId
Mipsi::handlerRoutine(HClass cls) const
{
    switch (cls) {
      case HClass::Mem: return rMem;
      case HClass::Shift: return rShift;
      case HClass::Branch: return rBranch;
      case HClass::Jump: return rJump;
      case HClass::MulDiv: return rMulDiv;
      case HClass::Syscall: return rSyscall;
      case HClass::Alu: return rAlu;
    }
    panic("mipsi: bad handler class");
}

bool
Mipsi::executeInst(const mips::Inst &inst, uint32_t word, uint32_t pc,
                   trace::RoutineId handler, int &exit_code,
                   StepInfo &info)
{
    // The retired virtual command is the guest mnemonic.
    exec.beginCommand(opCommand[(size_t)inst.op]);

    exec.dispatch(handler);

    // Pre-access page-table translation for loads/stores must be
    // charged before the guest access; compute the address the
    // same way the handler would.
    if (handler == rMem) {
        uint32_t addr = state.regs[inst.rs] + (uint32_t)(int32_t)inst.imm;
        MemModelScope mm(exec);
        exec.noteMemModelAccess();
        if (jitDirectMem)
            emitDirectTranslate(addr);
        else
            emitTranslate(addr);
    }

    info = stepCpu(state, mem, inst);

    // Register-file traffic (interpreter state is ordinary data).
    exec.load(&state.regs[inst.rs]);
    exec.load(&state.regs[inst.rt]);

    if (info.badInst)
        fatal("mipsi: invalid instruction 0x%08x at pc 0x%08x",
              word, pc);

    switch (info.mem) {
      case StepInfo::Mem::Load:
        exec.loadAt(kGuestDataBit | info.memAddr);
        if (info.memSize < 4)
            exec.shortInt(2); // extract/extend sub-word
        exec.store(&state.regs[inst.rt]);
        break;
      case StepInfo::Mem::Store:
        if (info.memSize < 4)
            exec.shortInt(2); // merge sub-word
        exec.storeAt(kGuestDataBit | info.memAddr);
        break;
      case StepInfo::Mem::None:
        if (info.isCondBranch) {
            exec.alu(2);               // compare operands
            exec.branch(info.taken);   // interpreter mirrors outcome
            exec.alu(1);               // update simulated npc
        } else if (info.isJump) {
            exec.alu(3);               // compute target, link reg
            exec.store(&state.regs[31]);
        } else if (info.isMultDiv) {
            exec.floatOp(1);           // long-latency integer op
            exec.alu(2);
            exec.store(&state.hi);
        } else if (info.isSyscall) {
            exec.alu(4);               // marshal args
        } else {
            exec.alu(2);               // the ALU operation itself
            exec.store(&state.regs[inst.rd ? inst.rd : inst.rt]);
        }
        break;
    }

    exec.endDispatch();

    if (info.isSyscall) {
        auto sys = syscalls->handle(state);
        if (sys.exited) {
            exit_code = sys.exitCode;
            return true;
        }
    }
    return false;
}

int
Mipsi::run()
{
    if (!syscalls)
        panic("Mipsi::run before load()");

    for (;;) {
        uint32_t pc = state.pc;

        // ---- fetch & decode --------------------------------------------
        uint32_t word;
        mips::Inst inst;
        {
            CategoryScope fd(exec, Category::FetchDecode);
            RoutineScope loop(exec, rLoop);
            exec.alu(3);            // loop bookkeeping
            exec.branch(false);     // "halted?" test

            emitTranslate(pc);      // PC translation via page tables
            word = mem.read32(pc);
            exec.loadAt(kGuestDataBit | pc); // guest text read as data

            inst = mips::decode(word);
            {
                RoutineScope dec(exec, rDecode);
                exec.shortInt(4);   // field extraction
                exec.alu(3);
                exec.load(&decodeTable[(word >> 26) & 0x3f]);
                exec.alu(2);        // handler selection
            }
        }

        if (inst.op == mips::Op::Invalid)
            fatal("mipsi: invalid instruction 0x%08x at pc 0x%08x",
                  word, pc);

        // ---- execute -----------------------------------------------------
        StepInfo info;
        int exit_code = 0;
        if (executeInst(inst, word, pc,
                        handlerRoutine(handlerClass(inst.op)), exit_code,
                        info))
            return exit_code;
    }
}

} // namespace interp::mipsi
