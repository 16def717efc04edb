/**
 * @file
 * Dispatch-technique ablation (host time).
 *
 * §5 of the paper points at software remedies for fetch/decode
 * overhead: "instruction fetch/decode overhead could be reduced by
 * using threaded interpretation ... or binary translation". This
 * bench measures, on the host, three classic dispatch techniques over
 * the same tiny register bytecode:
 *
 *   - switch:   one switch in a loop (MIPSI/JVM style)
 *   - table:    function-pointer table call per op (Tcl command style)
 *   - threaded: computed-goto direct threading (the §5 suggestion)
 *
 * Each loop runs the program kRunsPerTiming times per timing; the
 * best of kTimings timings is reported per program run. The absolute
 * numbers are host-dependent; the *ratios* show what threading buys a
 * low-level VM where fetch/decode dominates. Exits 1 unless all three
 * loops compute the same result.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

enum Op : uint8_t
{
    OP_ADD, OP_SUB, OP_XOR, OP_SHL, OP_LOADI, OP_JNZ_BACK, OP_HALT,
    NUM_OPS,
};

/** One fixed-width instruction: op, dst, src, imm. */
struct Insn
{
    uint8_t op, dst, src;
    int32_t imm;
};

/** A small loop kernel: six ops per iteration, `imm` iterations. */
std::vector<Insn>
makeProgram(int iterations)
{
    std::vector<Insn> prog;
    prog.push_back({OP_LOADI, 0, 0, iterations}); // r0 = n
    prog.push_back({OP_LOADI, 1, 0, 0});          // r1 = acc
    size_t loop_top = prog.size();
    prog.push_back({OP_ADD, 1, 0, 0});   // acc += r0
    prog.push_back({OP_XOR, 1, 2, 0});   // acc ^= r2 (last shift)
    prog.push_back({OP_SHL, 2, 1, 3});   // r2 = acc << 3
    prog.push_back({OP_ADD, 1, 2, 0});   // acc += r2
    prog.push_back({OP_SUB, 0, 3, 1});   // r0 -= 1  (r3 holds 1)
    prog.push_back(
        {OP_JNZ_BACK, 0, 0, (int32_t)(prog.size() - loop_top + 1)});
    prog.push_back({OP_HALT, 0, 0, 0});
    return prog;
}

uint64_t
runSwitch(const std::vector<Insn> &prog)
{
    uint64_t r[4] = {0, 0, 0, 1};
    size_t pc = 0;
    while (true) {
        const Insn &insn = prog[pc++];
        switch (insn.op) {
          case OP_ADD: r[insn.dst] += r[insn.src]; break;
          case OP_SUB: r[insn.dst] -= r[insn.src]; break;
          case OP_XOR: r[insn.dst] ^= r[insn.src]; break;
          case OP_SHL: r[insn.dst] = r[insn.src] << insn.imm; break;
          case OP_LOADI: r[insn.dst] = insn.imm; break;
          case OP_JNZ_BACK:
            if (r[insn.dst] != 0)
                pc -= insn.imm;
            break;
          case OP_HALT: return r[1];
        }
    }
}

struct TableVm;
using Handler = void (*)(TableVm &, const Insn &);

struct TableVm
{
    uint64_t r[4] = {0, 0, 0, 1};
    size_t pc = 0;
    bool halted = false;
};

void hAdd(TableVm &vm, const Insn &i) { vm.r[i.dst] += vm.r[i.src]; }
void hSub(TableVm &vm, const Insn &i) { vm.r[i.dst] -= vm.r[i.src]; }
void hXor(TableVm &vm, const Insn &i) { vm.r[i.dst] ^= vm.r[i.src]; }
void hShl(TableVm &vm, const Insn &i)
{
    vm.r[i.dst] = vm.r[i.src] << i.imm;
}
void hLoadI(TableVm &vm, const Insn &i) { vm.r[i.dst] = i.imm; }
void hJnz(TableVm &vm, const Insn &i)
{
    if (vm.r[i.dst] != 0)
        vm.pc -= i.imm;
}
void hHalt(TableVm &vm, const Insn &) { vm.halted = true; }

uint64_t
runTable(const std::vector<Insn> &prog)
{
    static const Handler table[NUM_OPS] = {hAdd, hSub, hXor, hShl,
                                           hLoadI, hJnz, hHalt};
    TableVm vm;
    while (!vm.halted) {
        const Insn &insn = prog[vm.pc++];
        table[insn.op](vm, insn);
    }
    return vm.r[1];
}

uint64_t
runThreaded(const std::vector<Insn> &prog)
{
    // Direct threading with computed goto: each handler dispatches the
    // next instruction itself — no central loop branch.
    static void *labels[NUM_OPS] = {&&l_add, &&l_sub, &&l_xor, &&l_shl,
                                    &&l_loadi, &&l_jnz, &&l_halt};
    uint64_t r[4] = {0, 0, 0, 1};
    size_t pc = 0;
    const Insn *insn;

#define DISPATCH()                                                     \
    do {                                                               \
        insn = &prog[pc++];                                            \
        goto *labels[insn->op];                                        \
    } while (0)

    DISPATCH();
  l_add:
    r[insn->dst] += r[insn->src];
    DISPATCH();
  l_sub:
    r[insn->dst] -= r[insn->src];
    DISPATCH();
  l_xor:
    r[insn->dst] ^= r[insn->src];
    DISPATCH();
  l_shl:
    r[insn->dst] = r[insn->src] << insn->imm;
    DISPATCH();
  l_loadi:
    r[insn->dst] = insn->imm;
    DISPATCH();
  l_jnz:
    if (r[insn->dst] != 0)
        pc -= insn->imm;
    DISPATCH();
  l_halt:
    return r[1];
#undef DISPATCH
}

constexpr int kIterations = 4096;
constexpr int kOpsPerIteration = 6;
constexpr int kRunsPerTiming = 10;
constexpr int kTimings = 200;

/**
 * Make @p value observable and every memory read afresh, so the
 * compiler can neither drop a run nor merge it with the last one.
 */
inline void
keep(uint64_t value)
{
    asm volatile("" : : "r"(value) : "memory");
}

struct Timing
{
    double usPerRun;
    uint64_t result;
};

Timing
timeLoop(uint64_t (*loop)(const std::vector<Insn> &),
         const std::vector<Insn> &prog)
{
    using Clock = std::chrono::steady_clock;
    Timing t{1e300, 0};
    for (int i = 0; i < kTimings; ++i) {
        auto start = Clock::now();
        for (int run = 0; run < kRunsPerTiming; ++run) {
            t.result = loop(prog);
            keep(t.result);
        }
        std::chrono::duration<double, std::micro> took =
            Clock::now() - start;
        t.usPerRun = std::min(t.usPerRun, took.count() / kRunsPerTiming);
    }
    return t;
}

} // namespace

int
main()
{
    const std::vector<Insn> prog = makeProgram(kIterations);
    const struct
    {
        const char *name;
        uint64_t (*loop)(const std::vector<Insn> &);
    } loops[] = {
        {"switch", runSwitch},
        {"table", runTable},
        {"threaded", runThreaded},
    };

    std::printf("%-10s %10s %8s %10s\n", "dispatch", "us/run", "ns/op",
                "vs switch");
    double switch_us = 0;
    uint64_t expected = 0;
    bool agree = true;
    for (const auto &l : loops) {
        Timing t = timeLoop(l.loop, prog);
        if (l.loop == runSwitch) {
            switch_us = t.usPerRun;
            expected = t.result;
        }
        agree = agree && t.result == expected;
        std::printf("%-10s %10.1f %8.3f %9.2fx   result %llu\n", l.name,
                    t.usPerRun,
                    1e3 * t.usPerRun / (kIterations * kOpsPerIteration),
                    switch_us / t.usPerRun, (unsigned long long)t.result);
    }
    if (!agree) {
        std::fprintf(stderr, "bench_dispatch: the loops disagree\n");
        return 1;
    }
    return 0;
}
