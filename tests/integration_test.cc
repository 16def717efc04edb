/**
 * @file
 * Cross-interpreter integration tests.
 *
 * The paper's common reference point is `des`, implemented in every
 * language. Here the five execution modes (compiled-direct, MIPSI,
 * JVM, perlish, tclish) must produce bit-identical output for the
 * same block count, and the software-level profiles must land in the
 * per-interpreter regimes of Table 2.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "jvm/vm.hh"
#include "minic/compile.hh"
#include "mipsi/direct.hh"
#include "mipsi/mipsi.hh"
#include "perlish/interp.hh"
#include "tclish/interp.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"

namespace {

using namespace interp;

std::string
readProgram(const std::string &relative)
{
    std::string path = std::string(INTERP_PROGRAMS_DIR) + "/" + relative;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing program: " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
replaceOnce(std::string text, const std::string &from,
            const std::string &to)
{
    size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << "pattern not found: " << from;
    text.replace(at, from.size(), to);
    return text;
}

struct RunOutcome
{
    std::string stdoutText;
    uint64_t commands = 0;
    trace::Profile profile;
};

RunOutcome
runDirectDes(const std::string &src)
{
    RunOutcome out;
    trace::Execution exec;
    exec.addSink(&out.profile);
    vfs::FileSystem fs;
    mipsi::DirectCpu cpu(exec, fs);
    cpu.load(minic::compileMips(src));
    exec.setCommandBudget(500'000'000);
    cpu.run();
    exec.flush();
    out.commands = exec.commands();
    out.stdoutText = fs.stdoutCapture();
    return out;
}

RunOutcome
runMipsiDes(const std::string &src)
{
    RunOutcome out;
    trace::Execution exec;
    exec.addSink(&out.profile);
    vfs::FileSystem fs;
    mipsi::Mipsi vm(exec, fs);
    vm.load(minic::compileMips(src));
    exec.setCommandBudget(500'000'000);
    vm.run();
    exec.flush();
    out.commands = exec.commands();
    out.stdoutText = fs.stdoutCapture();
    return out;
}

RunOutcome
runJvmDes(const std::string &src)
{
    RunOutcome out;
    trace::Execution exec;
    exec.addSink(&out.profile);
    vfs::FileSystem fs;
    jvm::Vm vm(exec, fs);
    vm.load(minic::compileBytecode(src));
    exec.setCommandBudget(500'000'000);
    vm.run();
    exec.flush();
    out.commands = exec.commands();
    out.stdoutText = fs.stdoutCapture();
    return out;
}

RunOutcome
runPerlDes(const std::string &src)
{
    RunOutcome out;
    trace::Execution exec;
    exec.addSink(&out.profile);
    vfs::FileSystem fs;
    perlish::Interp vm(exec, fs);
    vm.load(src);
    exec.setCommandBudget(500'000'000);
    vm.run();
    exec.flush();
    out.commands = exec.commands();
    out.stdoutText = fs.stdoutCapture();
    return out;
}

RunOutcome
runTclDes(const std::string &src)
{
    RunOutcome out;
    trace::Execution exec;
    exec.addSink(&out.profile);
    vfs::FileSystem fs;
    tclish::TclInterp vm(exec, fs);
    exec.setCommandBudget(500'000'000);
    vm.run(src);
    exec.flush();
    out.commands = exec.commands();
    out.stdoutText = fs.stdoutCapture();
    return out;
}

/** All five des variants normalized to the same block count. */
class DesSuite : public testing::Test
{
  protected:
    static constexpr const char *kBlocks = "4";

    std::string
    minicSrc()
    {
        return replaceOnce(readProgram("minic/des.mc"),
                           "int nblocks = 24;",
                           std::string("int nblocks = ") + kBlocks + ";");
    }

    std::string
    perlSrc()
    {
        return replaceOnce(readProgram("perlish/des.pl"),
                           "$nblocks = 10;",
                           std::string("$nblocks = ") + kBlocks + ";");
    }

    std::string
    tclSrc()
    {
        return replaceOnce(readProgram("tclish/des.tcl"),
                           "set nblocks 6",
                           std::string("set nblocks ") + kBlocks);
    }
};

TEST_F(DesSuite, AllFiveImplementationsAgree)
{
    auto direct = runDirectDes(minicSrc());
    EXPECT_NE(direct.stdoutText.find("roundtrip=1"), std::string::npos)
        << direct.stdoutText;

    auto mipsi = runMipsiDes(minicSrc());
    auto java = runJvmDes(minicSrc());
    auto perl = runPerlDes(perlSrc());
    auto tcl = runTclDes(tclSrc());

    EXPECT_EQ(mipsi.stdoutText, direct.stdoutText);
    EXPECT_EQ(java.stdoutText, direct.stdoutText);
    EXPECT_EQ(perl.stdoutText, direct.stdoutText);
    EXPECT_EQ(tcl.stdoutText, direct.stdoutText);
}

TEST_F(DesSuite, CommandCountsOrderAsInTable2)
{
    // Table 2, des row: the higher the VM level, the fewer commands:
    // C/MIPSI execute the most commands, then Java, then Perl, then
    // Tcl (170k/190k > 320k? — Java executes more bytecodes than
    // MIPSI instructions in the paper's des due to program structure;
    // the robust ordering is Perl < MIPSI and Tcl < Perl).
    auto mipsi = runMipsiDes(minicSrc());
    auto perl = runPerlDes(perlSrc());
    auto tcl = runTclDes(tclSrc());
    EXPECT_LT(perl.commands, mipsi.commands);
    EXPECT_LT(tcl.commands, perl.commands);
}

TEST_F(DesSuite, FetchDecodeLaddersAcrossInterpreters)
{
    // Table 2: f/d per command ~16 (Java) < ~50 (MIPSI) < ~130-200
    // (Perl) < thousands (Tcl).
    auto mipsi = runMipsiDes(minicSrc());
    auto java = runJvmDes(minicSrc());
    auto perl = runPerlDes(perlSrc());
    auto tcl = runTclDes(tclSrc());

    double fd_java = java.profile.fetchDecodePerCommand();
    double fd_mipsi = mipsi.profile.fetchDecodePerCommand();
    double fd_perl = perl.profile.fetchDecodePerCommand();
    double fd_tcl = tcl.profile.fetchDecodePerCommand();

    EXPECT_LT(fd_java, fd_mipsi);
    EXPECT_LT(fd_mipsi, fd_perl);
    EXPECT_LT(fd_perl, fd_tcl);
    EXPECT_GT(fd_tcl / fd_perl, 5.0)
        << "Tcl f/d is an order of magnitude above Perl";
}

TEST_F(DesSuite, NativeInstructionBlowupOrdering)
{
    // Interpreting des costs orders of magnitude more instructions
    // than direct execution, worst for Tcl (Table 2).
    auto direct = runDirectDes(minicSrc());
    auto mipsi = runMipsiDes(minicSrc());
    auto tcl = runTclDes(tclSrc());
    EXPECT_GT(mipsi.profile.userInstructions(),
              30 * direct.profile.userInstructions());
    // Tcl runs fewer blocks-equalized commands but each costs
    // thousands of instructions; compare per-block cost.
    EXPECT_GT(tcl.profile.userInstructions(),
              mipsi.profile.userInstructions());
}

} // namespace
