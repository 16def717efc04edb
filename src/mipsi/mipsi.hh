/**
 * @file
 * MIPSI: the instruction-level MIPS R3000 emulator of the study.
 *
 * Structure follows the paper's description: "the internal structure
 * of the interpreter follows closely that of the initial stages of a
 * CPU pipeline, with the fetch, decode and execute stages performed
 * explicitly in software". Each guest instruction is one *virtual
 * command*:
 *
 *  - fetch: translate the guest PC through in-core simulated page
 *    tables, then read the instruction word (guest text is *data* to
 *    the interpreter);
 *  - decode: extract fields and dispatch indirectly to a handler;
 *  - execute: perform the operation; loads/stores translate the data
 *    address through the same page tables (the §3.3 memory model,
 *    ~tens of native instructions per access).
 *
 * The fetch/decode cost is nearly fixed per command (~50 native
 * instructions, Table 2), which is what gives MIPSI its uniform
 * profile and excellent instruction-cache locality (§4.1).
 */

#ifndef INTERP_MIPSI_MIPSI_HH
#define INTERP_MIPSI_MIPSI_HH

#include <array>
#include <cstdint>

#include "mips/image.hh"
#include "mipsi/cpu_core.hh"
#include "mipsi/guest_memory.hh"
#include "mipsi/syscalls.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace interp::mipsi {

/** The emulator. Load an image, then run(). */
class Mipsi
{
  public:
    Mipsi(trace::Execution &exec, vfs::FileSystem &fs);

    /** Load a linked program and reset the CPU. */
    void load(const mips::Image &image);

    /**
     * Interpret until the guest exits; @return its exit code. Each
     * guest instruction retires one command on the Execution, whose
     * command budget may stop the run first (trace::BudgetExhausted).
     *
     * load()/run() are deliberately non-virtual: both cores are always
     * used as concrete types (the harness picks one per Lang), and a
     * vtable pointer would shift every data member's 16-byte-granule
     * alignment and perturb the baseline's simulated cache behaviour.
     * ThreadedMipsi shadows these two methods instead of overriding.
     */
    int run();

    /** The interpreter's virtual-command set (one entry per mnemonic). */
    trace::CommandSet &commandSet() { return commands; }

    GuestMemory &memory() { return mem; }
    CpuState &cpu() { return state; }

  protected:
    /**
     * Handler classes: which stretch of interpreter code executes an
     * opcode. The switch core resolves the class per trip; the
     * threaded core predecodes it (see threaded.hh).
     */
    enum class HClass : uint8_t
    {
        Alu, Shift, Mem, Branch, Jump, MulDiv, Syscall,
    };

    static HClass handlerClass(mips::Op op);
    trace::RoutineId handlerRoutine(HClass cls) const;

    /**
     * The shared execute stage: retire the virtual command, dispatch
     * to @p handler, charge the §3.3 memory model, step the CPU, and
     * emit the per-instruction work. Identical for the switch and
     * threaded cores, so the two modes cannot diverge in execute
     * attribution. @p info receives what the instruction did.
     * @return true when the run should stop (guest exited), with the
     * guest's exit code in @p exit_code.
     */
    bool executeInst(const mips::Inst &inst, uint32_t word, uint32_t pc,
                     trace::RoutineId handler, int &exit_code,
                     StepInfo &info);

    /** Emit the in-core page-table walk for one translation. */
    void emitTranslate(uint32_t guest_addr);

    /**
     * Jit-mode data translation: the stencil region caches the page
     * mapping, so a guest access costs one guarded direct-map probe
     * instead of the full two-level walk. Charged inside the same
     * MemModelScope, so (execute − memModel) is untouched. Enabled
     * only by the jit core (jitDirectMem below).
     */
    void emitDirectTranslate(uint32_t guest_addr);

    trace::Execution &exec;
    vfs::FileSystem &fs;
    GuestMemory mem;
    CpuState state;
    SyscallHandler *syscalls = nullptr;
    trace::CommandSet commands;

  private:

    // Pre-interned command ids, one per semantic opcode.
    std::array<trace::CommandId, (size_t)mips::Op::NumOps> opCommand{};

    // Interpreter code regions.
    trace::RoutineId rLoop;
    trace::RoutineId rTranslate;
    trace::RoutineId rDecode;
    trace::RoutineId rAlu;
    trace::RoutineId rShift;
    trace::RoutineId rMem;
    trace::RoutineId rBranch;
    trace::RoutineId rJump;
    trace::RoutineId rMulDiv;
    trace::RoutineId rSyscall;

    // Host-side structures whose accesses we surface to the d-cache.
    uint32_t decodeTable[64] = {};

    std::unique_ptr<SyscallHandler> syscallStorage;

  protected:
    // Jit-mode state, appended after every baseline member so the
    // existing offsets (and with them the simulated data addresses)
    // are untouched — the same layout discipline as the tclish modes.
    bool jitDirectMem = false;   ///< route rMem through the direct probe
    trace::RoutineId rDirectTranslate = 0; ///< registered by the jit core
};

} // namespace interp::mipsi

#endif // INTERP_MIPSI_MIPSI_HH
