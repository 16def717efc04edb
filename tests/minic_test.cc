/**
 * @file
 * End-to-end MiniC tests: compile source, run it on the direct-mode
 * executor and on the MIPSI emulator, and check program output and
 * exit codes. Exercises the whole lexer/parser/sema/codegen chain.
 */

#include <gtest/gtest.h>

#include <string>

#include "minic/compile.hh"
#include "mipsi/direct.hh"
#include "mipsi/mipsi.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace {

using namespace interp;

/** Compile and run in direct mode; returns captured stdout. */
std::string
runDirect(const std::string &src, int *exit_code = nullptr,
          vfs::FileSystem *fs_in = nullptr)
{
    trace::Execution exec;
    vfs::FileSystem local_fs;
    vfs::FileSystem &fs = fs_in ? *fs_in : local_fs;
    mipsi::DirectCpu cpu(exec, fs);
    cpu.load(minic::compileMips(src));
    exec.setCommandBudget(200'000'000);
    int code = cpu.run();
    if (exit_code)
        *exit_code = code;
    return fs.stdoutCapture();
}

/** Compile and run under the MIPSI interpreter; returns stdout. */
std::string
runMipsi(const std::string &src, int *exit_code = nullptr,
         vfs::FileSystem *fs_in = nullptr)
{
    trace::Execution exec;
    vfs::FileSystem local_fs;
    vfs::FileSystem &fs = fs_in ? *fs_in : local_fs;
    mipsi::Mipsi vm(exec, fs);
    vm.load(minic::compileMips(src));
    exec.setCommandBudget(200'000'000);
    int code = vm.run();
    if (exit_code)
        *exit_code = code;
    return fs.stdoutCapture();
}

TEST(MiniC, HelloWorld)
{
    const char *src = R"(
        int main() {
            print_str("hello, world\n");
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "hello, world\n");
    EXPECT_EQ(runMipsi(src), "hello, world\n");
}

TEST(MiniC, ArithmeticAndPrecedence)
{
    const char *src = R"(
        int main() {
            print_int(2 + 3 * 4);        print_char('\n');
            print_int((2 + 3) * 4);      print_char('\n');
            print_int(100 / 7);          print_char('\n');
            print_int(100 % 7);          print_char('\n');
            print_int(-5 / 2);           print_char('\n');
            print_int(1 << 10);          print_char('\n');
            print_int(-16 >> 2);         print_char('\n');
            print_int(0xff & 0x0f);      print_char('\n');
            print_int(0xf0 | 0x0f);      print_char('\n');
            print_int(0xff ^ 0x0f);      print_char('\n');
            print_int(~0);               print_char('\n');
            return 0;
        }
    )";
    const char *want = "14\n20\n14\n2\n-2\n1024\n-4\n15\n255\n240\n-1\n";
    EXPECT_EQ(runDirect(src), want);
    EXPECT_EQ(runMipsi(src), want);
}

TEST(MiniC, ComparisonsAndLogical)
{
    const char *src = R"(
        int main() {
            print_int(3 < 4); print_int(4 < 3); print_int(3 <= 3);
            print_int(4 > 3); print_int(3 >= 4); print_int(3 == 3);
            print_int(3 != 3);
            print_int(1 && 2); print_int(1 && 0);
            print_int(0 || 3); print_int(0 || 0);
            print_int(!5); print_int(!0);
            print_int(-1 < 1);
            return 0;
        }
    )";
    const char *want = "10110101010011";
    EXPECT_EQ(runDirect(src), want);
    EXPECT_EQ(runMipsi(src), want);
}

TEST(MiniC, ShortCircuitSideEffects)
{
    const char *src = R"(
        int hits;
        int bump() { hits = hits + 1; return 1; }
        int main() {
            hits = 0;
            int a = 0 && bump();
            int b = 1 || bump();
            print_int(hits);
            int c = 1 && bump();
            int d = 0 || bump();
            print_int(hits);
            print_int(a); print_int(b); print_int(c); print_int(d);
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "020111");
    EXPECT_EQ(runMipsi(src), "020111");
}

TEST(MiniC, ControlFlow)
{
    const char *src = R"(
        int main() {
            int total = 0;
            for (int i = 0; i < 10; i = i + 1) {
                if (i == 3)
                    continue;
                if (i == 8)
                    break;
                total += i;
            }
            int j = 0;
            while (j < 5)
                j += 2;
            print_int(total);
            print_char(' ');
            print_int(j);
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "25 6");
    EXPECT_EQ(runMipsi(src), "25 6");
}

TEST(MiniC, RecursionFibonacci)
{
    const char *src = R"(
        int fib(int n) {
            if (n < 2)
                return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            print_int(fib(15));
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "610");
    EXPECT_EQ(runMipsi(src), "610");
}

TEST(MiniC, GlobalsAndArrays)
{
    const char *src = R"(
        int table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        int scale = 3;
        char msg[16] = "ok";
        int main() {
            int sum = 0;
            for (int i = 0; i < 8; i += 1)
                sum += table[i] * scale;
            print_int(sum);
            print_char(' ');
            print_str(msg);
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "108 ok");
    EXPECT_EQ(runMipsi(src), "108 ok");
}

TEST(MiniC, LocalArraysAndPointers)
{
    const char *src = R"(
        void fill(int *a, int n) {
            for (int i = 0; i < n; i += 1)
                a[i] = i * i;
        }
        int main() {
            int buf[10];
            fill(buf, 10);
            int *p = buf;
            int sum = 0;
            for (int i = 0; i < 10; i += 1)
                sum += *(p + i);
            print_int(sum);
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "285");
    EXPECT_EQ(runMipsi(src), "285");
}

TEST(MiniC, CharPointersAndStrings)
{
    const char *src = R"(
        int strlen_(char *s) {
            int n = 0;
            while (s[n] != 0)
                n += 1;
            return n;
        }
        void reverse(char *s, int n) {
            int i = 0;
            int j = n - 1;
            while (i < j) {
                char t;
                t = s[i];
                s[i] = s[j];
                s[j] = t;
                i += 1;
                j -= 1;
            }
        }
        char word[16] = "streams";
        int main() {
            reverse(word, strlen_(word));
            print_str(word);
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "smaerts");
    EXPECT_EQ(runMipsi(src), "smaerts");
}

TEST(MiniC, AddressOfScalar)
{
    const char *src = R"(
        void put(int *p, int v) { *p = v; }
        int main() {
            int x = 1;
            put(&x, 42);
            print_int(x);
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "42");
    EXPECT_EQ(runMipsi(src), "42");
}

TEST(MiniC, ExitCodePropagates)
{
    const char *src = "int main() { return 7; }";
    int code = -1;
    runDirect(src, &code);
    EXPECT_EQ(code, 7);
    code = -1;
    runMipsi(src, &code);
    EXPECT_EQ(code, 7);
}

TEST(MiniC, ExplicitExitBuiltin)
{
    const char *src = R"(
        int main() {
            print_str("before");
            exit(3);
            print_str("after");
            return 0;
        }
    )";
    int code = -1;
    EXPECT_EQ(runDirect(src, &code), "before");
    EXPECT_EQ(code, 3);
}

TEST(MiniC, FileIoThroughVfs)
{
    const char *src = R"(
        char buf[64];
        int main() {
            int fd = open("data.txt", 0);
            if (fd < 0) {
                print_str("no file");
                return 1;
            }
            int n = read(fd, buf, 63);
            buf[n] = 0;
            close(fd);
            print_str(buf);
            return 0;
        }
    )";
    vfs::FileSystem fs;
    fs.writeFile("data.txt", "file contents here");
    EXPECT_EQ(runDirect(src, nullptr, &fs), "file contents here");

    vfs::FileSystem fs2;
    fs2.writeFile("data.txt", "file contents here");
    EXPECT_EQ(runMipsi(src, nullptr, &fs2), "file contents here");
}

TEST(MiniC, SbrkHeapAllocation)
{
    const char *src = R"(
        int main() {
            int *a = sbrk(40);
            int *b = sbrk(40);
            for (int i = 0; i < 10; i += 1) {
                a[i] = i;
                b[i] = i * 10;
            }
            print_int(a[9] + b[9]);
            return 0;
        }
    )";
    EXPECT_EQ(runDirect(src), "99");
    EXPECT_EQ(runMipsi(src), "99");
}

TEST(MiniC, SemanticErrorsAreFatal)
{
    EXPECT_EXIT((void)minic::compileMips("int main() { return x; }"),
                testing::ExitedWithCode(1), "undefined variable");
    EXPECT_EXIT((void)minic::compileMips("int f() { return 0; }"),
                testing::ExitedWithCode(1), "no 'main'");
    EXPECT_EXIT((void)minic::compileMips("int main() { 3 = 4; return 0; }"),
                testing::ExitedWithCode(1), "lvalue");
    EXPECT_EXIT((void)minic::compileMips(
                    "int main() { break; return 0; }"),
                testing::ExitedWithCode(1), "outside a loop");
}

TEST(MiniC, ParserErrorsAreFatal)
{
    EXPECT_EXIT((void)minic::compileMips("int main( { return 0; }"),
                testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT((void)minic::compileMips("int main() { int x = ; }"),
                testing::ExitedWithCode(1), "expected an expression");
}

/**
 * Property-style sweep: random-ish arithmetic expressions evaluated by
 * the compiler + emulator must match host evaluation.
 */
class ArithSweep : public testing::TestWithParam<int>
{};

TEST_P(ArithSweep, MatchesHost)
{
    int seed = GetParam();
    // Small deterministic "expression": ((seed*13+7)^(seed<<3))%1000 etc.
    int32_t a = seed * 13 + 7;
    int32_t b = (seed << 3) | 1;
    int32_t expect = ((a ^ b) + (a % b) * 3 - (b / (seed + 1))) |
                     (a & 0x5555);
    std::string src =
        "int main() {\n"
        "    int a = " + std::to_string(seed) + " * 13 + 7;\n"
        "    int b = (" + std::to_string(seed) + " << 3) | 1;\n"
        "    print_int(((a ^ b) + (a % b) * 3 - (b / (" +
        std::to_string(seed) + " + 1))) | (a & 0x5555));\n"
        "    return 0;\n"
        "}\n";
    EXPECT_EQ(runDirect(src), std::to_string(expect));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArithSweep,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                         89, 144, 233));

} // namespace
