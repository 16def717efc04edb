#include "mipsi/direct.hh"

#include "support/logging.hh"

namespace interp::mipsi {

using trace::InstClass;

DirectCpu::DirectCpu(trace::Execution &exec_, vfs::FileSystem &fs_)
    : exec(exec_), fs(fs_)
{
    for (size_t i = 0; i < (size_t)mips::Op::NumOps; ++i)
        opCommand[i] = commands.intern(mips::opName((mips::Op)i));
}

void
DirectCpu::load(const mips::Image &image)
{
    mem.loadImage(image);
    textBase = image.textBase;
    decoded.clear();
    decoded.reserve(image.text.size());
    for (uint32_t word : image.text)
        decoded.push_back(mips::decode(word));
    state.reset(image.entry, mips::kStackTop - 64);
    syscalls = std::make_unique<SyscallHandler>(exec, fs, mem,
                                                image.initialBreak());
}

uint32_t
DirectCpu::directPc(uint32_t guest_pc) const
{
    return trace::CodeRegistry::segmentBase(trace::Segment::GuestText) +
           (guest_pc - textBase);
}

int
DirectCpu::run()
{
    if (!syscalls)
        panic("DirectCpu::run before load()");

    for (;;) {
        uint32_t pc = state.pc;
        uint32_t index = (pc - textBase) / 4;
        if (index >= decoded.size())
            fatal("direct: pc 0x%08x outside text", pc);
        const mips::Inst &inst = decoded[index];

        exec.beginCommand(opCommand[(size_t)inst.op]);

        StepInfo info = stepCpu(state, mem, inst);
        if (info.badInst)
            fatal("direct: invalid instruction at pc 0x%08x", pc);

        uint32_t dpc = directPc(pc);
        switch (info.mem) {
          case StepInfo::Mem::Load:
            exec.emitAt(dpc, InstClass::Load, 1,
                        kGuestDataBit | info.memAddr);
            if (info.memSize < 4)
                exec.emitAt(dpc, InstClass::ShortInt, 1);
            break;
          case StepInfo::Mem::Store:
            exec.emitAt(dpc, InstClass::Store, 1,
                        kGuestDataBit | info.memAddr);
            if (info.memSize < 4)
                exec.emitAt(dpc, InstClass::ShortInt, 1);
            break;
          case StepInfo::Mem::None:
            if (info.isCondBranch) {
                exec.emitAt(dpc, InstClass::CondBranch, 1, 0, info.taken,
                            directPc(info.targetPc));
            } else if (info.isJump) {
                InstClass cls = info.isCall    ? InstClass::Call
                                : info.isReturn ? InstClass::Return
                                : info.isIndirect ? InstClass::IndirectJump
                                                  : InstClass::Jump;
                exec.emitAt(dpc, cls, 1, 0, true, directPc(info.targetPc));
            } else if (info.isMultDiv) {
                exec.emitAt(dpc, InstClass::FloatOp, 1);
            } else if (info.isSyscall) {
                exec.emitAt(dpc, InstClass::IntAlu, 1);
            } else {
                switch (inst.op) {
                  case mips::Op::Sll: case mips::Op::Srl:
                  case mips::Op::Sra: case mips::Op::Sllv:
                  case mips::Op::Srlv: case mips::Op::Srav:
                    exec.emitAt(dpc, inst.isNop() ? InstClass::Nop
                                                  : InstClass::ShortInt, 1);
                    break;
                  default:
                    exec.emitAt(dpc, InstClass::IntAlu, 1);
                    break;
                }
            }
            break;
        }

        if (info.isSyscall) {
            auto sys = syscalls->handle(state);
            if (sys.exited)
                return sys.exitCode;
        }
    }
}

} // namespace interp::mipsi
