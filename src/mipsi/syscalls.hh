/**
 * @file
 * Emulated Ultrix-style system calls (SPIM numbering), shared by the
 * MIPSI emulator and the direct-mode executor.
 *
 * Each call acts on the in-memory virtual file system and emits its
 * cost as *system* work: counted in simulated cycles (the paper's
 * timings include all system activity) but excluded from the
 * software-level instruction counts (ATOM excluded the kernel).
 */

#ifndef INTERP_MIPSI_SYSCALLS_HH
#define INTERP_MIPSI_SYSCALLS_HH

#include <cstdint>

#include "mipsi/cpu_core.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace interp::mipsi {

/** Executes guest system calls against the VFS. */
class SyscallHandler
{
  public:
    SyscallHandler(trace::Execution &exec, vfs::FileSystem &fs,
                   GuestMemory &mem, uint32_t initial_break);

    /** Outcome of one syscall. */
    struct Result
    {
        bool exited = false;
        int exitCode = 0;
    };

    /**
     * Handle the syscall encoded in @p state ($v0 = number, $a0..$a2 =
     * arguments); writes results back into the register file.
     */
    Result handle(CpuState &state);

  private:
    /** Emit trap entry/exit overhead plus per-byte copy work. */
    void emitKernelWork(uint32_t copy_bytes);

    trace::Execution &exec;
    vfs::FileSystem &fs;
    GuestMemory &mem;
    uint32_t brk;
    trace::RoutineId rSysEntry;
    trace::RoutineId rSysCopy;
};

} // namespace interp::mipsi

#endif // INTERP_MIPSI_SYSCALLS_HH
