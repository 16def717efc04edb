/**
 * @file
 * Tests for the Java-like VM: bytecode semantics via the MiniC
 * backend, cross-checks against direct-mode execution, heap/GC
 * behaviour, native graphics, and the cost profile the paper reports
 * for the Java interpreter.
 */

#include <gtest/gtest.h>

#include <string>

#include "jvm/vm.hh"
#include "minic/compile.hh"
#include "mipsi/direct.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"

namespace {

using namespace interp;

std::string
runJvm(const std::string &src, int *exit_code = nullptr,
       vfs::FileSystem *fs_in = nullptr, trace::Profile *profile = nullptr,
       jvm::Vm **vm_out = nullptr)
{
    static trace::Execution *exec;
    static jvm::Vm *vm;
    static vfs::FileSystem *fs;
    delete vm;
    delete exec;
    delete fs;
    exec = new trace::Execution;
    fs = fs_in ? nullptr : new vfs::FileSystem;
    vfs::FileSystem &the_fs = fs_in ? *fs_in : *fs;
    if (profile)
        exec->addSink(profile);
    vm = new jvm::Vm(*exec, the_fs);
    auto module = minic::compileBytecode(src);
    vm->load(module);
    exec->setCommandBudget(200'000'000);
    int code = vm->run();
    exec->flush();
    if (exit_code)
        *exit_code = code;
    if (vm_out)
        *vm_out = vm;
    return the_fs.stdoutCapture();
}

/** Same source run in direct (compiled-C) mode for cross-checking. */
std::string
runDirectRef(const std::string &src)
{
    trace::Execution exec;
    vfs::FileSystem fs;
    mipsi::DirectCpu cpu(exec, fs);
    cpu.load(minic::compileMips(src));
    exec.setCommandBudget(200'000'000);
    cpu.run();
    return fs.stdoutCapture();
}

TEST(Jvm, HelloWorld)
{
    EXPECT_EQ(runJvm(R"(int main() { print_str("hi jvm\n"); return 0; })"),
              "hi jvm\n");
}

TEST(Jvm, ArithmeticMatchesDirectMode)
{
    const char *src = R"(
        int main() {
            print_int(2 + 3 * 4 - 5 / 2); print_char(' ');
            print_int(100 % 7); print_char(' ');
            print_int((1 << 12) >> 3); print_char(' ');
            print_int(-7 / 2); print_char(' ');
            print_int(0xff ^ 0x3c); print_char(' ');
            print_int(~5 & 0xff); print_char(' ');
            print_int(3 < 4); print_int(4 <= 3); print_int(5 == 5);
            return 0;
        }
    )";
    EXPECT_EQ(runJvm(src), runDirectRef(src));
}

TEST(Jvm, ControlFlowMatchesDirectMode)
{
    const char *src = R"(
        int main() {
            int total = 0;
            for (int i = 0; i < 20; i += 1) {
                if (i % 3 == 0)
                    continue;
                if (i == 17)
                    break;
                total += i;
            }
            int k = 1;
            while (k < 100)
                k = k * 2 + 1;
            print_int(total); print_char(' '); print_int(k);
            return 0;
        }
    )";
    EXPECT_EQ(runJvm(src), runDirectRef(src));
}

TEST(Jvm, RecursionAndCalls)
{
    const char *src = R"(
        int ack(int m, int n) {
            if (m == 0) return n + 1;
            if (n == 0) return ack(m - 1, 1);
            return ack(m - 1, ack(m, n - 1));
        }
        int main() { print_int(ack(2, 3)); return 0; }
    )";
    EXPECT_EQ(runJvm(src), "9");
}

TEST(Jvm, GlobalsBecomeStatics)
{
    const char *src = R"(
        int counter = 10;
        int table[5] = {5, 4, 3, 2, 1};
        char text[8] = "abc";
        int main() {
            counter += 32;
            int s = 0;
            for (int i = 0; i < 5; i += 1)
                s += table[i] * i;
            print_int(counter); print_char(' ');
            print_int(s); print_char(' ');
            print_str(text);
            return 0;
        }
    )";
    EXPECT_EQ(runJvm(src), "42 20 abc");
}

TEST(Jvm, LocalArraysAllocateOnHeap)
{
    const char *src = R"(
        int main() {
            int buf[32];
            char bytes[16];
            for (int i = 0; i < 32; i += 1)
                buf[i] = i * 3;
            bytes[0] = 'x';
            print_int(buf[31]);
            print_char(bytes[0]);
            return 0;
        }
    )";
    EXPECT_EQ(runJvm(src), "93x");
}

TEST(Jvm, DerefActsAsIndexZero)
{
    const char *src = R"(
        int g[4] = {9, 8, 7, 6};
        int first(int *p) { return *p; }
        int main() { print_int(first(g)); return 0; }
    )";
    EXPECT_EQ(runJvm(src), "9");
}

TEST(Jvm, AssignAsValueAndCompound)
{
    const char *src = R"(
        int a[3];
        int main() {
            int x;
            int y;
            x = (y = 5) + 1;
            a[1] = 10;
            a[1] += x;
            print_int(x); print_char(' ');
            print_int(y); print_char(' ');
            print_int(a[1] = a[1] + 1);
            return 0;
        }
    )";
    EXPECT_EQ(runJvm(src), "6 5 17");
}

TEST(Jvm, PointerArithmeticRejected)
{
    EXPECT_EXIT((void)minic::compileBytecode(R"(
            int g[4];
            int main() { int *p = g; return *(p + 1); }
        )"),
                testing::ExitedWithCode(1), "pointer arithmetic");
    EXPECT_EXIT((void)minic::compileBytecode(
                    "int main() { int x = 1; int *p = &x; return *p; }"),
                testing::ExitedWithCode(1), "not supported");
}

TEST(Jvm, DivisionByZeroIsFatal)
{
    EXPECT_EXIT((void)runJvm("int main() { int z = 0; return 5 / z; }"),
                testing::ExitedWithCode(1), "division by zero");
}

TEST(Jvm, ArrayBoundsChecked)
{
    EXPECT_EXIT((void)runJvm(
                    "int g[4]; int main() { int i = 9; return g[i]; }"),
                testing::ExitedWithCode(1), "out of bounds");
}

TEST(Jvm, FileIoNatives)
{
    vfs::FileSystem fs;
    fs.writeFile("in.txt", "payload!");
    const char *src = R"(
        char buf[32];
        int main() {
            int fd = open("in.txt", 0);
            int n = read(fd, buf, 31);
            close(fd);
            buf[n] = 0;
            print_str(buf);
            print_int(n);
            return 0;
        }
    )";
    EXPECT_EQ(runJvm(src, nullptr, &fs), "payload!8");
}

TEST(Jvm, GcCollectsGarbageArrays)
{
    const char *src = R"(
        int work(int n) {
            int tmp[64];
            tmp[0] = n;
            return tmp[0] + 1;
        }
        int main() {
            int s = 0;
            for (int i = 0; i < 20000; i += 1)
                s = work(s) & 0xffff;
            print_int(s);
            return 0;
        }
    )";
    jvm::Vm *vm = nullptr;
    std::string out = runJvm(src, nullptr, nullptr, nullptr, &vm);
    EXPECT_FALSE(out.empty());
    ASSERT_NE(vm, nullptr);
    EXPECT_GT(vm->heap().collections(), 0u) << "GC must have run";
    EXPECT_GE(vm->heap().totalAllocations(), 20000u);
    EXPECT_LT(vm->heap().liveObjects(), 10000u)
        << "dead frames' arrays were collected";
}

TEST(Jvm, LiveObjectSurvivesHeapGrowthAndGc)
{
    // Regression guard for the reference-invalidated-by-growth bug
    // class: a long-lived array's contents must survive thousands of
    // later allocations (which grow the heap's object table and
    // trigger collections).
    const char *src = R"(
        int main() {
            int keep[16];
            for (int i = 0; i < 16; i += 1)
                keep[i] = i * 3 + 1;
            int s = 0;
            for (int i = 0; i < 30000; i += 1) {
                int tmp[32];
                tmp[0] = i;
                s = (s + tmp[0]) & 0xffff;
            }
            for (int i = 0; i < 16; i += 1)
                s = s + keep[i];
            print_int(s);
            return 0;
        }
    )";
    EXPECT_EQ(runJvm(src), runDirectRef(src));
}

TEST(Jvm, GfxNativesDrawDeterministically)
{
    const char *src = R"(
        int main() {
            gfx_init(64, 64);
            gfx_clear(0);
            gfx_fillrect(8, 8, 16, 16, 3);
            gfx_line(0, 0, 63, 63, 1);
            gfx_circle(40, 20, 10, 2);
            gfx_text(2, 50, "OK", 4);
            gfx_flush();
            print_str("drawn");
            return 0;
        }
    )";
    jvm::Vm *vm = nullptr;
    EXPECT_EQ(runJvm(src, nullptr, nullptr, nullptr, &vm), "drawn");
    ASSERT_NE(vm->natives().framebuffer(), nullptr);
    auto *fb = vm->natives().framebuffer();
    EXPECT_GT(fb->countPixels(3), 200);
    EXPECT_GT(fb->countPixels(1), 30);
}

TEST(Jvm, FetchDecodeSmallAndUniform)
{
    // Table 2: Java fetch/decode is ~16 native instructions per
    // command, independent of program.
    auto fd_of = [](const char *src) {
        trace::Profile profile;
        runJvm(src, nullptr, nullptr, &profile);
        return profile.fetchDecodePerCommand();
    };
    double a = fd_of(
        "int main() { int s = 0;"
        " for (int i = 0; i < 3000; i += 1) s += i; return 0; }");
    double b = fd_of(R"(
        int g[128];
        int main() {
            for (int r = 0; r < 40; r += 1)
                for (int i = 0; i < 128; i += 1)
                    g[i] += g[(i + 9) & 127];
            return 0;
        })");
    EXPECT_GT(a, 8.0);
    EXPECT_LT(a, 24.0);
    EXPECT_NEAR(a, b, 3.0) << "uniform bytecode representation";
}

TEST(Jvm, StackAccessCheaperThanStaticAccess)
{
    // §3.3: stack ~2 instructions, field ~11. Compare execute cost of
    // a locals-only loop vs a statics-heavy loop.
    auto exec_per_cmd = [](const char *src) {
        trace::Profile profile;
        runJvm(src, nullptr, nullptr, &profile);
        return profile.executePerCommand();
    };
    double local_cost = exec_per_cmd(
        "int main() { int s = 0;"
        " for (int i = 0; i < 5000; i += 1) s += i; return 0; }");
    double static_cost = exec_per_cmd(
        "int s; int i;"
        "int main() {"
        " for (i = 0; i < 5000; i += 1) s += i; return 0; }");
    EXPECT_LT(local_cost, static_cost);
}

TEST(Jvm, NativeGraphicsDominatesGfxPrograms)
{
    // Figure 2: graphics programs spend most execute instructions in
    // native runtime libraries.
    trace::Profile profile;
    runJvm(R"(
        int main() {
            gfx_init(256, 256);
            for (int f = 0; f < 12; f += 1) {
                gfx_clear(0);
                gfx_fillrect(f * 4, f * 3, 120, 90, 2);
                gfx_fillcircle(128, 128, 40 + f, 3);
                gfx_flush();
            }
            return 0;
        })", nullptr, nullptr, &profile);
    double native_share =
        (double)profile.nativeLibInsts() / (double)profile.executeInsts();
    EXPECT_GT(native_share, 0.4);
}

TEST(Jvm, StaticValueInspection)
{
    const char *src = "int answer; int main() { answer = 42; return 0; }";
    jvm::Vm *vm = nullptr;
    runJvm(src, nullptr, nullptr, nullptr, &vm);
    EXPECT_EQ(vm->staticValue("answer"), 42);
}

} // namespace
