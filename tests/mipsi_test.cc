/**
 * @file
 * Tests for the MIPSI emulator and direct executor: instruction
 * semantics (including delay slots), syscalls, guest memory, and the
 * interpretation cost profile the paper reports for MIPSI.
 */

#include <gtest/gtest.h>

#include "minic/compile.hh"
#include "mips/asm_builder.hh"
#include "mipsi/direct.hh"
#include "mipsi/guest_memory.hh"
#include "mipsi/mipsi.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"

namespace {

using namespace interp;
using namespace interp::mips;

/** Run an assembled image under MIPSI; returns the final CPU state. */
mipsi::CpuState
runAsm(AsmBuilder &b, std::string *out = nullptr)
{
    Image img = b.link();
    trace::Execution exec;
    vfs::FileSystem fs;
    mipsi::Mipsi vm(exec, fs);
    vm.load(img);
    exec.setCommandBudget(1'000'000);
    vm.run();
    if (out)
        *out = fs.stdoutCapture();
    return vm.cpu();
}

/** Append exit(0) to a builder program. */
void
emitExit(AsmBuilder &b)
{
    b.li(V0, SYS_EXIT);
    b.syscall();
}

TEST(GuestMemory, ByteHalfWordRoundTrip)
{
    mipsi::GuestMemory mem;
    mem.write32(0x10000000, 0x11223344);
    EXPECT_EQ(mem.read32(0x10000000), 0x11223344u);
    EXPECT_EQ(mem.read8(0x10000000), 0x44) << "little-endian";
    EXPECT_EQ(mem.read8(0x10000003), 0x11);
    EXPECT_EQ(mem.read16(0x10000002), 0x1122);
    mem.write8(0x10000001, 0xaa);
    EXPECT_EQ(mem.read32(0x10000000), 0x1122aa44u);
}

TEST(GuestMemory, CrossPageAccess)
{
    mipsi::GuestMemory mem;
    uint32_t addr = 0x10000ffe; // spans a 4 KB page boundary
    mem.write32(addr, 0xcafebabe);
    EXPECT_EQ(mem.read32(addr), 0xcafebabeu);
}

TEST(GuestMemory, DemandPaging)
{
    mipsi::GuestMemory mem;
    EXPECT_EQ(mem.pagesAllocated(), 0u);
    mem.read8(0x10000000);
    mem.read8(0x50000000);
    EXPECT_EQ(mem.pagesAllocated(), 2u);
    EXPECT_EQ(mem.read32(0x10000000), 0u) << "fresh pages are zero";
}

TEST(Mipsi, BranchDelaySlotExecutes)
{
    AsmBuilder b;
    // beq taken; its delay slot must still execute (sets $t0 = 7).
    auto target = b.newLabel();
    b.branch(Op::Beq, ZERO, ZERO, target); // emits delay nop
    // Overwrite the auto-nop? We cannot; so craft manually instead:
    // use raw emit: branch with fixup is easier to test via the value
    // of the link register semantics below. Here: check the nop path.
    b.li(T1, 99); // skipped if branch taken
    b.bind(target);
    b.li(T2, 55);
    emitExit(b);
    auto state = runAsm(b);
    EXPECT_EQ(state.regs[T1], 0u) << "branch skipped li $t1";
    EXPECT_EQ(state.regs[T2], 55u);
}

TEST(Mipsi, DelaySlotInstructionRuns)
{
    AsmBuilder b;
    auto target = b.newLabel();
    // Hand-craft: beq $0,$0,target ; li $t0, 7 (delay slot, runs!)
    Inst beq;
    beq.op = Op::Beq;
    beq.rs = ZERO;
    beq.rt = ZERO;
    beq.imm = 2; // target = branch_pc + 4 + 2*4: skips one instruction
    b.emit(beq);
    b.itype(Op::Addiu, T0, ZERO, 7); // delay slot
    b.itype(Op::Addiu, T1, ZERO, 9); // skipped
    b.bind(target);
    (void)target;
    emitExit(b);
    auto state = runAsm(b);
    EXPECT_EQ(state.regs[T0], 7u) << "delay slot executed";
    EXPECT_EQ(state.regs[T1], 0u) << "branch target skipped successor";
}

TEST(Mipsi, JalLinksPastDelaySlot)
{
    AsmBuilder b;
    auto fn = b.newLabel();
    b.jal(fn);       // + delay nop
    b.li(T3, 1);     // return lands here (pc+8)
    emitExit(b);
    b.bind(fn);
    b.li(T4, 2);
    b.jr(RA);
    auto state = runAsm(b);
    EXPECT_EQ(state.regs[T3], 1u);
    EXPECT_EQ(state.regs[T4], 2u);
}

TEST(Mipsi, ArithmeticSemantics)
{
    AsmBuilder b;
    b.li(T0, 7);
    b.li(T1, -3);
    b.rtype(Op::Addu, T2, T0, T1);  // 4
    b.rtype(Op::Subu, T3, T0, T1);  // 10
    b.rtype(Op::Slt, T4, T1, T0);   // 1 (signed)
    b.rtype(Op::Sltu, T5, T1, T0);  // 0 (unsigned: big vs 7)
    b.multDiv(Op::Mult, T0, T1);    // -21
    b.mflo(T6);
    b.multDiv(Op::Div, T3, T0);     // 10 / 7 = 1 rem 3
    b.mflo(T7);
    b.mfhi(T8);
    emitExit(b);
    auto state = runAsm(b);
    EXPECT_EQ(state.regs[T2], 4u);
    EXPECT_EQ(state.regs[T3], 10u);
    EXPECT_EQ(state.regs[T4], 1u);
    EXPECT_EQ(state.regs[T5], 0u);
    EXPECT_EQ((int32_t)state.regs[T6], -21);
    EXPECT_EQ(state.regs[T7], 1u);
    EXPECT_EQ(state.regs[T8], 3u);
}

TEST(Mipsi, ShiftSemantics)
{
    AsmBuilder b;
    b.li(T0, -16);
    b.shift(Op::Srl, T1, T0, 2);  // logical
    b.shift(Op::Sra, T2, T0, 2);  // arithmetic
    b.shift(Op::Sll, T3, T0, 1);
    b.li(T4, 3);
    b.shiftVar(Op::Sllv, T5, T0, T4);
    emitExit(b);
    auto state = runAsm(b);
    EXPECT_EQ(state.regs[T1], 0xfffffff0u >> 2);
    EXPECT_EQ((int32_t)state.regs[T2], -4);
    EXPECT_EQ((int32_t)state.regs[T3], -32);
    EXPECT_EQ((int32_t)state.regs[T5], -128);
}

TEST(Mipsi, LoadStoreSignedness)
{
    AsmBuilder b;
    uint32_t addr = b.dataWord(0);
    b.la(T0, addr);
    b.li(T1, 0x80);
    b.loadStore(Op::Sb, T1, 0, T0);
    b.loadStore(Op::Lb, T2, 0, T0);   // sign-extends
    b.loadStore(Op::Lbu, T3, 0, T0);  // zero-extends
    b.li(T1, 0x8000);
    b.loadStore(Op::Sh, T1, 0, T0);
    b.loadStore(Op::Lh, T4, 0, T0);
    b.loadStore(Op::Lhu, T5, 0, T0);
    emitExit(b);
    auto state = runAsm(b);
    EXPECT_EQ((int32_t)state.regs[T2], -128);
    EXPECT_EQ(state.regs[T3], 0x80u);
    EXPECT_EQ((int32_t)state.regs[T4], -32768);
    EXPECT_EQ(state.regs[T5], 0x8000u);
}

TEST(Mipsi, RegisterZeroIsImmutable)
{
    AsmBuilder b;
    b.itype(Op::Addiu, ZERO, ZERO, 55);
    b.rtype(Op::Addu, T0, ZERO, ZERO);
    emitExit(b);
    auto state = runAsm(b);
    EXPECT_EQ(state.regs[T0], 0u);
}

TEST(Mipsi, PrintSyscalls)
{
    AsmBuilder b;
    uint32_t msg = b.dataAsciiz("x=");
    b.la(A0, msg);
    b.li(V0, SYS_PRINT_STRING);
    b.syscall();
    b.li(A0, -7);
    b.li(V0, SYS_PRINT_INT);
    b.syscall();
    b.li(A0, '!');
    b.li(V0, SYS_PRINT_CHAR);
    b.syscall();
    emitExit(b);
    std::string out;
    runAsm(b, &out);
    EXPECT_EQ(out, "x=-7!");
}

TEST(Mipsi, CommandsEqualGuestInstructions)
{
    // Commands retired by MIPSI must equal instructions executed by
    // direct mode on the same program (same semantics, same path).
    const char *src = R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 50; i += 1)
                s += i;
            print_int(s);
            return 0;
        }
    )";
    auto img = minic::compileMips(src);

    trace::Execution e1;
    vfs::FileSystem f1;
    mipsi::Mipsi vm(e1, f1);
    vm.load(img);
    vm.run();

    trace::Execution e2;
    vfs::FileSystem f2;
    mipsi::DirectCpu cpu(e2, f2);
    cpu.load(img);
    cpu.run();

    EXPECT_EQ(e1.commands(), e2.commands());
    EXPECT_EQ(f1.stdoutCapture(), f2.stdoutCapture());
}

TEST(Mipsi, FetchDecodeCostNearlyFixed)
{
    // The paper's Table 2: MIPSI fetch/decode is ~47-51 native
    // instructions per virtual command, nearly constant across
    // programs. Check two very different programs land close.
    auto profile_of = [](const char *src) {
        trace::Execution exec;
        trace::Profile profile;
        exec.addSink(&profile);
        vfs::FileSystem fs;
        mipsi::Mipsi vm(exec, fs);
        vm.load(minic::compileMips(src));
        exec.setCommandBudget(10'000'000);
        vm.run();
        exec.flush();
        return profile.fetchDecodePerCommand();
    };
    double loops = profile_of(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 2000; i += 1) s += i;
            return s & 1;
        })");
    double memory = profile_of(R"(
        int buf[256];
        int main() {
            for (int r = 0; r < 20; r += 1)
                for (int i = 0; i < 256; i += 1)
                    buf[i] = buf[(i + 7) & 255] + 1;
            return 0;
        })");
    EXPECT_GT(loops, 35.0);
    EXPECT_LT(loops, 65.0);
    EXPECT_NEAR(loops, memory, 6.0) << "fetch/decode cost is uniform";
}

TEST(Mipsi, MemoryModelShareInPaperRange)
{
    // §3.3: MIPSI memory-model work is 13-18% of total instructions.
    trace::Execution exec;
    trace::Profile profile;
    exec.addSink(&profile);
    vfs::FileSystem fs;
    mipsi::Mipsi vm(exec, fs);
    vm.load(minic::compileMips(R"(
        int buf[512];
        int main() {
            int s = 0;
            for (int r = 0; r < 30; r += 1)
                for (int i = 0; i < 512; i += 1) {
                    buf[i] = s;
                    s += buf[(i * 17) & 511];
                }
            print_int(s);
            return 0;
        })"));
    exec.setCommandBudget(30'000'000);
    vm.run();
    exec.flush();
    double frac = profile.memModelFraction();
    EXPECT_GT(frac, 0.08);
    EXPECT_LT(frac, 0.30);
    EXPECT_GT(profile.memModelCostPerAccess(), 20.0);
    EXPECT_LT(profile.memModelCostPerAccess(), 70.0);
}

TEST(Direct, OneNativeInstructionPerGuestInstruction)
{
    trace::Execution exec;
    trace::Profile profile;
    exec.addSink(&profile);
    vfs::FileSystem fs;
    mipsi::DirectCpu cpu(exec, fs);
    cpu.load(minic::compileMips(
        "int main() { int s = 0;"
        " for (int i = 0; i < 100; i += 1) s += i * i; return 0; }"));
    cpu.run();
    exec.flush();
    // Each guest instruction emits >= 1 native instruction; sub-word
    // memory ops add an extract, and syscalls add system work, so the
    // user-level ratio stays close to 1.
    double ratio =
        (double)profile.userInstructions() / (double)exec.commands();
    EXPECT_GE(ratio, 1.0);
    EXPECT_LT(ratio, 1.2);
}

TEST(Direct, SllNopsVisibleInCommandMix)
{
    // Footnote 1: delay-slot no-ops are encoded as sll and inflate the
    // sll command count. Branch-heavy code must show many sll commands.
    trace::Execution exec;
    trace::Profile profile;
    exec.addSink(&profile);
    vfs::FileSystem fs;
    mipsi::DirectCpu cpu(exec, fs);
    cpu.load(minic::compileMips(R"(
        int main() {
            int n = 0;
            for (int i = 0; i < 500; i += 1)
                if (i & 1)
                    n += 1;
            return n & 1;
        })"));
    cpu.run();
    exec.flush();
    auto &set = cpu.commandSet();
    uint64_t sll = 0;
    auto per = profile.perCommand();
    for (size_t i = 0; i < per.size() && i < set.size(); ++i)
        if (set.name((trace::CommandId)i) == "sll")
            sll = per[i].retired;
    EXPECT_GT(sll, exec.commands() / 20) << "delay-slot nops are sll";
}

TEST(Mipsi, GuestExitCode)
{
    AsmBuilder b;
    b.li(A0, 42);
    b.li(V0, SYS_EXIT2);
    b.syscall();
    Image img = b.link();
    trace::Execution exec;
    vfs::FileSystem fs;
    mipsi::Mipsi vm(exec, fs);
    vm.load(img);
    EXPECT_EQ(vm.run(), 42);
}

} // namespace
