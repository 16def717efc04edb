#include "harness/runner.hh"

#include <optional>

#include "harness/engine.hh"
#include "harness/workloads.hh"
#include "mips/asm_builder.hh"
#include "support/logging.hh"
#include "support/strutil.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"
#include "workloads/registry.hh"

namespace interp::harness {

Measurement
run(const BenchSpec &spec, const std::vector<trace::Sink *> &extra_sinks,
    const sim::MachineConfig *machine_cfg, bool with_machine)
{
    Measurement m;
    m.lang = spec.lang;
    m.name = spec.name;

    trace::Execution exec;
    // The profile is counted at the source; bundles are built only for
    // the machine and the extra sinks, so a counting-only run builds
    // none, deadline or not.
    exec.countInto(&m.profile);
    exec.setDeadline(spec.deadline);
    std::optional<sim::Machine> machine;
    if (with_machine) {
        machine.emplace(machine_cfg ? *machine_cfg : sim::MachineConfig());
        exec.addSink(&*machine);
    }
    for (trace::Sink *sink : extra_sinks)
        exec.addSink(sink);

    vfs::FileSystem fs;
    if (spec.needsInputs)
        installAllInputs(fs);

    auto collect_names = [&m](trace::CommandSet &set) {
        m.commandNames.reserve(set.size());
        for (size_t i = 0; i < set.size(); ++i)
            m.commandNames.push_back(set.name((trace::CommandId)i));
    };

    // Every mode — baseline, remedy, tier-2, jit — goes through the
    // same Engine interface; run() only owns the measurement plumbing.
    auto engine = makeEngine(spec.lang, exec, fs);
    EngineResult r = engine->execute(spec);
    m.finished = r.finished;
    m.commands = r.commands;
    m.programBytes = r.programBytes;
    collect_names(engine->commandSet());

    if (machine) {
        m.cycles = machine->cycles();
        m.breakdown = machine->breakdown();
        m.imissPer100 = machine->imissPer100Insts();
    }
    m.stdoutText = fs.stdoutCapture();
    return m;
}

// --- macro suite --------------------------------------------------------

std::vector<BenchSpec>
macroSuite()
{
    // The suite is the workload registry's canonical row order; this
    // wrapper survives so existing callers keep one include.
    return workloads::macroRows();
}

std::vector<BenchSpec>
ladderSuite(const std::vector<BenchSpec> &suite)
{
    std::vector<BenchSpec> out;
    for (const BenchSpec &row : suite) {
        size_t first = out.size();
        for (int level = 0; level <= 3; ++level) {
            Lang mode = level ? rungOf(row.lang, level) : row.lang;
            bool seen = false;
            for (size_t i = first; i < out.size(); ++i)
                seen = seen || out[i].lang == mode;
            if (!seen) {
                out.push_back(row);
                out.back().lang = mode;
            }
        }
    }
    return out;
}

// --- micro suite --------------------------------------------------------

std::vector<std::string>
microOps()
{
    return {"a=b+c", "if", "null-proc", "string-concat", "string-split",
            "read"};
}

int
microIterations(Lang lang)
{
    // Scaled so no microbenchmark takes more than a couple of seconds
    // of host time; slowdowns are per-iteration ratios, so the counts
    // need not match across languages. Remedy modes use their
    // baseline's counts so the pairs stay directly comparable.
    switch (modeInfo(lang).baseline) {
      case Lang::C: return 20000;
      case Lang::Mipsi: return 3000;
      case Lang::Java: return 5000;
      case Lang::Perl: return 2000;
      case Lang::Tcl: return 400;
      default: return 1000;
    }
}

namespace {

std::string
minicMicro(const std::string &op, int n)
{
    std::string N = std::to_string(n);
    if (op == "a=b+c")
        return "int a; int b = 37; int c = 21;\n"
               "int main() {\n"
               "    int i;\n"
               "    for (i = 0; i < " + N + "; i += 1) { a = b + c; }\n"
               "    return a & 1;\n"
               "}\n";
    if (op == "if")
        return "int a; int b = 37; int c = 21;\n"
               "int main() {\n"
               "    int i;\n"
               "    for (i = 0; i < " + N + "; i += 1) {\n"
               "        if (b < c) a = b; else a = c;\n"
               "    }\n"
               "    return a & 1;\n"
               "}\n";
    if (op == "null-proc")
        return "void f() {}\n"
               "int main() {\n"
               "    int i;\n"
               "    for (i = 0; i < " + N + "; i += 1) { f(); }\n"
               "    return 0;\n"
               "}\n";
    if (op == "string-concat")
        return "char sa[32] = \"interpreter \";\n"
               "char sb[32] = \"performance\";\n"
               "char buf[64];\n"
               "int main() {\n"
               "    int i;\n"
               "    for (i = 0; i < " + N + "; i += 1) {\n"
               "        int j = 0;\n"
               "        int k = 0;\n"
               "        while (sa[j] != 0) { buf[j] = sa[j]; j += 1; }\n"
               "        while (sb[k] != 0) { buf[j + k] = sb[k]; k += 1; }\n"
               "        buf[j + k] = 0;\n"
               "    }\n"
               "    return buf[0] & 1;\n"
               "}\n";
    if (op == "string-split")
        return "char str[40] = \"structure and performance of\";\n"
               "char out[80];\n"
               "int words;\n"
               "int main() {\n"
               "    int i;\n"
               "    for (i = 0; i < " + N + "; i += 1) {\n"
               "        int w = 0;\n"
               "        int p = 0;\n"
               "        int q = 0;\n"
               "        while (str[p] != 0) {\n"
               "            if (str[p] == ' ') {\n"
               "                out[w * 16 + q] = 0;\n"
               "                w += 1;\n"
               "                q = 0;\n"
               "            } else {\n"
               "                out[w * 16 + q] = str[p];\n"
               "                q += 1;\n"
               "            }\n"
               "            p += 1;\n"
               "        }\n"
               "        out[w * 16 + q] = 0;\n"
               "        words = w + 1;\n"
               "    }\n"
               "    return words;\n"
               "}\n";
    if (op == "read")
        return "char buf[4096];\n"
               "int main() {\n"
               "    int i;\n"
               "    int n = 0;\n"
               "    for (i = 0; i < " + N + "; i += 1) {\n"
               "        int fd = open(\"read4k.in\", 0);\n"
               "        n = read(fd, buf, 4096);\n"
               "        close(fd);\n"
               "    }\n"
               "    return n & 1;\n"
               "}\n";
    fatal("unknown micro op %s", op.c_str());
}

std::string
perlMicro(const std::string &op, int n)
{
    std::string N = std::to_string(n);
    if (op == "a=b+c")
        return "$b = 37; $c = 21;\n"
               "for ($i = 0; $i < " + N + "; $i += 1) { $a = $b + $c; }\n"
               "print \"\";\n";
    if (op == "if")
        return "$b = 37; $c = 21;\n"
               "for ($i = 0; $i < " + N + "; $i += 1) {\n"
               "    if ($b < $c) { $a = $b; } else { $a = $c; }\n"
               "}\nprint \"\";\n";
    if (op == "null-proc")
        return "sub f { return; }\n"
               "for ($i = 0; $i < " + N + "; $i += 1) { &f(); }\n"
               "print \"\";\n";
    if (op == "string-concat")
        return "$sa = \"interpreter \"; $sb = \"performance\";\n"
               "for ($i = 0; $i < " + N + "; $i += 1) { $s = $sa . $sb; }\n"
               "print \"\";\n";
    if (op == "string-split")
        return "$str = \"structure and performance of\";\n"
               "for ($i = 0; $i < " + N + "; $i += 1) {\n"
               "    @parts = split(/ /, $str);\n"
               "}\nprint \"\";\n";
    if (op == "read")
        return "for ($i = 0; $i < " + N + "; $i += 1) {\n"
               "    open(F, \"read4k.in\");\n"
               "    $n = sysread(F, $buf, 4096);\n"
               "    close(F);\n"
               "}\nprint \"\";\n";
    fatal("unknown micro op %s", op.c_str());
}

std::string
tclMicro(const std::string &op, int n)
{
    std::string N = std::to_string(n);
    if (op == "a=b+c")
        return "set b 37\nset c 21\n"
               "for {set i 0} {$i < " + N + "} {incr i} {\n"
               "    set a [expr {$b + $c}]\n"
               "}\n";
    if (op == "if")
        return "set b 37\nset c 21\n"
               "for {set i 0} {$i < " + N + "} {incr i} {\n"
               "    if {$b < $c} { set a $b } else { set a $c }\n"
               "}\n";
    if (op == "null-proc")
        return "proc f {} {}\n"
               "for {set i 0} {$i < " + N + "} {incr i} { f }\n";
    if (op == "string-concat")
        return "set sa \"interpreter \"\nset sb \"performance\"\n"
               "for {set i 0} {$i < " + N + "} {incr i} {\n"
               "    set s \"$sa$sb\"\n"
               "}\n";
    if (op == "string-split")
        return "set str \"structure and performance of\"\n"
               "for {set i 0} {$i < " + N + "} {incr i} {\n"
               "    set parts [split $str \" \"]\n"
               "}\n";
    if (op == "read")
        return "for {set i 0} {$i < " + N + "} {incr i} {\n"
               "    set f [open read4k.in r]\n"
               "    set data [read $f 4096]\n"
               "    close $f\n"
               "}\n";
    fatal("unknown micro op %s", op.c_str());
}

} // namespace

namespace {

/**
 * Hand-scheduled MIPS kernels for the C/MIPSI microbenchmarks,
 * equivalent to what an optimizing C compiler emits: base addresses
 * hoisted out of the loop, values kept in registers, tight loop
 * control. These are the Table 1 baselines.
 */
std::shared_ptr<mips::Image>
microAsmKernel(const std::string &op, int n)
{
    using namespace mips;
    AsmBuilder b;

    auto emit_exit = [&b]() {
        b.li(V0, SYS_EXIT);
        b.syscall();
    };

    if (op == "a=b+c") {
        uint32_t a = b.dataWord(0);
        uint32_t bv = b.dataWord(37);
        uint32_t cv = b.dataWord(21);
        b.la(S0, a);
        b.la(S1, bv);
        b.la(S2, cv);
        b.li(T0, 0);
        b.li(T7, n);
        auto loop = b.newLabel();
        b.bind(loop);
        b.loadStore(Op::Lw, T1, 0, S1);
        b.loadStore(Op::Lw, T2, 0, S2);
        b.rtype(Op::Addu, T3, T1, T2);
        b.loadStore(Op::Sw, T3, 0, S0);
        b.itype(Op::Addiu, T0, T0, 1);
        b.branch(Op::Bne, T0, T7, loop);
        emit_exit();
    } else if (op == "if") {
        uint32_t a = b.dataWord(0);
        uint32_t bv = b.dataWord(37);
        uint32_t cv = b.dataWord(21);
        b.la(S0, a);
        b.la(S1, bv);
        b.la(S2, cv);
        b.li(T0, 0);
        b.li(T7, n);
        auto loop = b.newLabel();
        auto take_c = b.newLabel();
        auto done = b.newLabel();
        b.bind(loop);
        b.loadStore(Op::Lw, T1, 0, S1);
        b.loadStore(Op::Lw, T2, 0, S2);
        b.rtype(Op::Slt, T3, T1, T2);
        b.branch(Op::Beq, T3, ZERO, take_c);
        b.loadStore(Op::Sw, T1, 0, S0);
        b.j(done);
        b.bind(take_c);
        b.loadStore(Op::Sw, T2, 0, S0);
        b.bind(done);
        b.itype(Op::Addiu, T0, T0, 1);
        b.branch(Op::Bne, T0, T7, loop);
        emit_exit();
    } else if (op == "null-proc") {
        b.li(T0, 0);
        b.li(T7, n);
        auto f = b.newLabel();
        auto loop = b.newLabel();
        b.bind(loop);
        b.jal(f);
        b.itype(Op::Addiu, T0, T0, 1);
        b.branch(Op::Bne, T0, T7, loop);
        emit_exit();
        b.bind(f);
        b.jr(RA);
    } else if (op == "string-concat") {
        uint32_t sa = b.dataAsciiz("interpreter ");
        uint32_t sb = b.dataAsciiz("performance");
        uint32_t buf = b.dataSpace(64);
        b.li(T0, 0);
        b.li(T7, n);
        auto loop = b.newLabel();
        b.bind(loop);
        b.la(T1, sa);
        b.la(T3, buf);
        auto copy1 = b.newLabel();
        auto next1 = b.newLabel();
        b.bind(copy1);
        b.loadStore(Op::Lbu, T2, 0, T1);
        b.branch(Op::Beq, T2, ZERO, next1);
        b.loadStore(Op::Sb, T2, 0, T3);
        b.itype(Op::Addiu, T1, T1, 1);
        b.itype(Op::Addiu, T3, T3, 1);
        b.j(copy1);
        b.bind(next1);
        b.la(T1, sb);
        auto copy2 = b.newLabel();
        auto next2 = b.newLabel();
        b.bind(copy2);
        b.loadStore(Op::Lbu, T2, 0, T1);
        b.branch(Op::Beq, T2, ZERO, next2);
        b.loadStore(Op::Sb, T2, 0, T3);
        b.itype(Op::Addiu, T1, T1, 1);
        b.itype(Op::Addiu, T3, T3, 1);
        b.j(copy2);
        b.bind(next2);
        b.loadStore(Op::Sb, ZERO, 0, T3);
        b.itype(Op::Addiu, T0, T0, 1);
        b.branch(Op::Bne, T0, T7, loop);
        emit_exit();
    } else if (op == "string-split") {
        uint32_t str = b.dataAsciiz("structure and performance of");
        uint32_t out = b.dataSpace(80);
        b.li(T0, 0);
        b.li(T7, n);
        b.li(T6, ' ');
        auto loop = b.newLabel();
        b.bind(loop);
        b.la(T1, str);   // source cursor
        b.la(T3, out);   // destination cursor
        auto scan = b.newLabel();
        auto sep = b.newLabel();
        auto step = b.newLabel();
        auto done = b.newLabel();
        b.bind(scan);
        b.loadStore(Op::Lbu, T2, 0, T1);
        b.branch(Op::Beq, T2, ZERO, done);
        b.branch(Op::Beq, T2, T6, sep);
        b.loadStore(Op::Sb, T2, 0, T3);
        b.itype(Op::Addiu, T3, T3, 1);
        b.j(step);
        b.bind(sep);
        b.loadStore(Op::Sb, ZERO, 0, T3); // terminate the word
        b.itype(Op::Addiu, T3, T3, 1);
        b.bind(step);
        b.itype(Op::Addiu, T1, T1, 1);
        b.j(scan);
        b.bind(done);
        b.loadStore(Op::Sb, ZERO, 0, T3);
        b.itype(Op::Addiu, T0, T0, 1);
        b.branch(Op::Bne, T0, T7, loop);
        emit_exit();
    } else if (op == "read") {
        uint32_t path = b.dataAsciiz("read4k.in");
        uint32_t buf = b.dataSpace(4096);
        b.li(T0, 0);
        b.li(T7, n);
        auto loop = b.newLabel();
        b.bind(loop);
        b.la(A0, path);
        b.li(A1, 0);
        b.li(V0, SYS_OPEN);
        b.syscall();
        b.move(S3, V0);
        b.move(A0, S3);
        b.la(A1, buf);
        b.li(A2, 4096);
        b.li(V0, SYS_READ);
        b.syscall();
        b.move(A0, S3);
        b.li(V0, SYS_CLOSE);
        b.syscall();
        b.itype(Op::Addiu, T0, T0, 1);
        b.branch(Op::Bne, T0, T7, loop);
        emit_exit();
    } else {
        fatal("unknown micro op %s", op.c_str());
    }
    return std::make_shared<mips::Image>(b.link());
}

} // namespace

BenchSpec
microBench(Lang lang, const std::string &op, int iterations)
{
    BenchSpec spec;
    spec.lang = lang;
    spec.name = op;
    spec.needsInputs = op == "read";
    switch (modeInfo(lang).baseline) {
      case Lang::C:
      case Lang::Mipsi:
        spec.image = microAsmKernel(op, iterations);
        break;
      case Lang::Java:
        spec.source = minicMicro(op, iterations);
        break;
      case Lang::Perl:
        spec.source = perlMicro(op, iterations);
        break;
      case Lang::Tcl:
        spec.source = tclMicro(op, iterations);
        break;
      default:
        break;
    }
    return spec;
}

} // namespace interp::harness
