/**
 * @file
 * Direct-mode execution: the compiled-C baseline.
 *
 * Runs the same guest images as the MIPSI emulator through the same
 * stepCpu() semantics, but each guest instruction is emitted as
 * exactly one native instruction at its real PC — no interpretation
 * loop, no page-table translation, no fetch/decode charge. This is
 * Table 2's C row (1.0 native instruction per "command") and the
 * source of the native SPECint-like profiles in Figure 3.
 *
 * Sub-word memory operations additionally emit one short-int extract/
 * insert instruction, mirroring the Alpha 21064's lack of byte loads
 * and stores (the paper's "short int" stall class).
 */

#ifndef INTERP_MIPSI_DIRECT_HH
#define INTERP_MIPSI_DIRECT_HH

#include <cstdint>
#include <vector>

#include "mips/image.hh"
#include "mipsi/cpu_core.hh"
#include "mipsi/guest_memory.hh"
#include "mipsi/syscalls.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace interp::mipsi {

/** Executes a guest image natively (one emitted instruction each). */
class DirectCpu
{
  public:
    DirectCpu(trace::Execution &exec, vfs::FileSystem &fs);

    void load(const mips::Image &image);

    /** Execute until the guest exits; @return its exit code. Each
     *  instruction retires one command on the Execution, whose budget
     *  may stop it first. */
    int run();

    /** Command set naming each native opcode (Table 2 C row). */
    trace::CommandSet &commandSet() { return commands; }

    GuestMemory &memory() { return mem; }
    CpuState &cpu() { return state; }

  private:
    uint32_t directPc(uint32_t guest_pc) const;

    trace::Execution &exec;
    vfs::FileSystem &fs;
    GuestMemory mem;
    CpuState state;
    trace::CommandSet commands;
    std::array<trace::CommandId, (size_t)mips::Op::NumOps> opCommand{};
    std::vector<mips::Inst> decoded; ///< predecoded text
    uint32_t textBase = mips::kTextBase;
    std::unique_ptr<SyscallHandler> syscalls;
};

} // namespace interp::mipsi

#endif // INTERP_MIPSI_DIRECT_HH
