/**
 * @file
 * Tests for the tclish interpreter: symbol table, parsing and
 * substitution rules, command semantics, procs and scopes, expr,
 * tk drawing, and the Tcl-specific cost profile (huge fetch/decode,
 * symbol-table memory model).
 */

#include <gtest/gtest.h>

#include <string>

#include "tclish/interp.hh"
#include "tclish/symtab.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"

namespace {

using namespace interp;
using namespace interp::tclish;

// --- SymTab ----------------------------------------------------------

TEST(TclSymTab, LookupCreatesAndFinds)
{
    SymTab table;
    int steps;
    table.lookup("x", steps) = "1";
    EXPECT_EQ(*table.find("x", steps), "1");
    EXPECT_EQ(table.find("y", steps), nullptr);
    EXPECT_EQ(table.size(), 1u);
}

TEST(TclSymTab, ChainsGrowWithEntries)
{
    SymTab table;
    int steps;
    for (int i = 0; i < 512; ++i)
        table.lookup("var" + std::to_string(i), steps) = "v";
    // With 32 fixed buckets and 512 entries, average chains are ~16.
    int total = 0;
    for (int i = 0; i < 512; ++i) {
        table.find("var" + std::to_string(i), steps);
        total += steps;
    }
    EXPECT_GT(total / 512, 4) << "fixed buckets mean growing chains";
}

TEST(TclSymTab, ValuesStableAcrossGrowth)
{
    // Regression guard for the reference-invalidated-by-growth bug
    // class: values written early must remain intact and findable
    // after the table has grown by an order of magnitude (fixed
    // bucket array, chained nodes — growth must never rehash or move
    // live entries).
    SymTab table;
    int steps;
    std::string *early = &table.lookup("early", steps);
    *early = "payload";
    for (int i = 0; i < 2000; ++i)
        table.lookup("fill" + std::to_string(i), steps) =
            std::to_string(i);
    EXPECT_EQ(table.find("early", steps), early)
        << "node moved during growth";
    EXPECT_EQ(*early, "payload");
    for (int i = 0; i < 2000; i += 97)
        EXPECT_EQ(*table.find("fill" + std::to_string(i), steps),
                  std::to_string(i));
}

TEST(TclSymTab, Erase)
{
    SymTab table;
    int steps;
    table.lookup("a", steps) = "1";
    EXPECT_TRUE(table.erase("a"));
    EXPECT_FALSE(table.erase("a"));
    EXPECT_EQ(table.find("a", steps), nullptr);
}

// --- interpreter harness -----------------------------------------------

std::string
runTcl(const std::string &script, vfs::FileSystem *fs_in = nullptr,
       trace::Profile *profile = nullptr, TclInterp **interp_out = nullptr,
       int *exit_code = nullptr)
{
    static trace::Execution *exec;
    static TclInterp *interp;
    static vfs::FileSystem *fs;
    delete interp;
    delete exec;
    delete fs;
    exec = new trace::Execution;
    fs = fs_in ? nullptr : new vfs::FileSystem;
    vfs::FileSystem &the_fs = fs_in ? *fs_in : *fs;
    if (profile)
        exec->addSink(profile);
    interp = new TclInterp(*exec, the_fs);
    exec->setCommandBudget(50'000'000);
    int code = interp->run(script);
    exec->flush();
    if (interp_out)
        *interp_out = interp;
    if (exit_code)
        *exit_code = code;
    return the_fs.stdoutCapture();
}

// --- language semantics -------------------------------------------------

TEST(Tclish, PutsAndSet)
{
    EXPECT_EQ(runTcl("puts \"hello tcl\""), "hello tcl\n");
    EXPECT_EQ(runTcl("set x 42\nputs $x"), "42\n");
    EXPECT_EQ(runTcl("set x 1; set y 2; puts \"$x$y\""), "12\n");
}

TEST(Tclish, SetReturnsValueAndBracketsSubstitute)
{
    EXPECT_EQ(runTcl("puts [set x 7]"), "7\n");
    EXPECT_EQ(runTcl("set x [set y 5]\nputs $x$y"), "55\n");
}

TEST(Tclish, BracesPreventSubstitution)
{
    EXPECT_EQ(runTcl("puts {$x [foo]}"), "$x [foo]\n");
    EXPECT_EQ(runTcl("set v 9\nputs \"$v {x}\""), "9 {x}\n");
}

TEST(Tclish, BackslashEscapes)
{
    EXPECT_EQ(runTcl(R"(puts "a\tb\nc")"), "a\tb\nc\n");
    EXPECT_EQ(runTcl(R"(puts "\$notavar")"), "$notavar\n");
}

TEST(Tclish, ExprArithmetic)
{
    EXPECT_EQ(runTcl("puts [expr 2 + 3 * 4]"), "14\n");
    EXPECT_EQ(runTcl("puts [expr (2 + 3) * 4]"), "20\n");
    EXPECT_EQ(runTcl("puts [expr 17 % 5]"), "2\n");
    EXPECT_EQ(runTcl("puts [expr -17 / 5]"), "-4\n")
        << "Tcl divides toward negative infinity";
    EXPECT_EQ(runTcl("puts [expr 1 << 10]"), "1024\n");
    EXPECT_EQ(runTcl("puts [expr 0xff & 0x0f]"), "15\n");
    EXPECT_EQ(runTcl("puts [expr 3 < 4 && 4 < 3 || 1]"), "1\n");
    EXPECT_EQ(runTcl("puts [expr !0]"), "1\n");
    EXPECT_EQ(runTcl("puts [expr ~5 & 0xff]"), "250\n");
}

TEST(Tclish, ExprReadsVariablesItself)
{
    // Braced expr arguments are not substituted by the parser; expr
    // does its own $ lookups at evaluation time.
    EXPECT_EQ(runTcl("set a 6\nset b 7\nputs [expr {$a * $b}]"),
              "42\n");
}

TEST(Tclish, IfElseifElse)
{
    const char *script = R"(
        proc sign {v} {
            if {$v > 0} {
                return pos
            } elseif {$v < 0} {
                return neg
            } else {
                return zero
            }
        }
        puts [sign 5][sign -5][sign 0]
    )";
    EXPECT_EQ(runTcl(script), "posnegzero\n");
}

TEST(Tclish, WhileForBreakContinue)
{
    const char *script = R"(
        set total 0
        for {set i 0} {$i < 10} {incr i} {
            if {$i == 3} { continue }
            if {$i == 8} { break }
            set total [expr {$total + $i}]
        }
        set j 0
        while {$j < 5} { incr j 2 }
        puts "$total $j"
    )";
    EXPECT_EQ(runTcl(script), "25 6\n");
}

TEST(Tclish, ForeachOverList)
{
    EXPECT_EQ(runTcl(R"(
        set out ""
        foreach w {alpha {b c} gamma} {
            append out <$w>
        }
        puts $out
    )"),
              "<alpha><b c><gamma>\n");
}

TEST(Tclish, ProcsAndScopes)
{
    const char *script = R"(
        set g 100
        proc bump {x} {
            global g
            set local 5
            incr g
            return [expr {$x + $local}]
        }
        puts [bump 10]
        puts $g
        puts [info_exists_placeholder]
    )";
    // 'local' must not leak into the global scope; reading it should
    // be a fatal error, which we test separately. Here: happy path.
    const char *ok_script = R"(
        set g 100
        proc bump {x} {
            global g
            set local 5
            incr g
            return [expr {$x + $local}]
        }
        puts [bump 10]
        puts $g
    )";
    (void)script;
    EXPECT_EQ(runTcl(ok_script), "15\n101\n");
}

TEST(Tclish, ProcLocalDoesNotLeak)
{
    EXPECT_EXIT((void)runTcl(R"(
            proc f {} { set hidden 1 }
            f
            puts $hidden
        )"),
                testing::ExitedWithCode(1), "no such variable");
}

TEST(Tclish, RecursionFactorial)
{
    EXPECT_EQ(runTcl(R"(
        proc fact {n} {
            if {$n <= 1} { return 1 }
            return [expr {$n * [fact [expr {$n - 1}]]}]
        }
        puts [fact 10]
    )"),
              "3628800\n");
}

TEST(Tclish, ArraysViaParenNames)
{
    EXPECT_EQ(runTcl(R"tcl(
        set a(one) 1
        set a(two) 2
        set k two
        puts "$a(one) $a($k)"
    )tcl"),
              "1 2\n");
}

TEST(Tclish, StringCommands)
{
    EXPECT_EQ(runTcl(R"(
        set s "interpreter"
        puts [string length $s]
        puts [string index $s 5]
        puts [string range $s 0 4]
        puts [string compare abc abd]
        puts [string first pre $s]
        puts [string toupper $s]
    )"),
              "11\np\ninter\n-1\n5\nINTERPRETER\n");
}

TEST(Tclish, ListCommands)
{
    EXPECT_EQ(runTcl(R"(
        set l [list a b {c d} e]
        puts [llength $l]
        puts [lindex $l 2]
        lappend l f
        puts [llength $l]
        puts [join {1 2 3} +]
        puts [lrange {a b c d e} 1 3]
    )"),
              "4\nc d\n5\n1+2+3\nb c d\n");
}

TEST(Tclish, SplitAndJoin)
{
    EXPECT_EQ(runTcl(R"(
        puts [split "a:b::c" :]
        puts [split "  x  y  "]
    )"),
              "a b {} c\nx y\n");
}

TEST(Tclish, FormatSubset)
{
    EXPECT_EQ(runTcl(R"(puts [format "%05d|%-4s|%x" 42 ab 255])"),
              "00042|ab  |ff\n");
}

TEST(Tclish, AppendAndIncr)
{
    EXPECT_EQ(runTcl(R"(
        set s x
        append s y z
        set n 5
        incr n
        incr n 10
        puts "$s $n"
    )"),
              "xyz 16\n");
}

TEST(Tclish, FileIo)
{
    vfs::FileSystem fs;
    fs.writeFile("data.txt", "10\n20\n12\n");
    EXPECT_EQ(runTcl(R"(
        set f [open data.txt r]
        set total 0
        while {[gets $f line] >= 0} {
            set total [expr {$total + $line}]
        }
        close $f
        set out [open result.txt w]
        puts $out "total=$total"
        close $out
        puts "done $total"
    )",
                     &fs),
              "done 42\n");
    EXPECT_EQ(fs.readFile("result.txt"), "total=42\n");
}

TEST(Tclish, ExitCode)
{
    int code = -1;
    runTcl("puts a\nexit 5\nputs b", nullptr, nullptr, nullptr, &code);
    EXPECT_EQ(code, 5);
}

TEST(Tclish, CommentsIgnored)
{
    // After ';' the parser is at command start again, so '#' begins a
    // comment there (real Tcl semantics).
    EXPECT_EQ(runTcl("# a comment\nputs ok ;# trailing comment\n"),
              "ok\n");
    EXPECT_EQ(runTcl("# comment\nputs ok"), "ok\n");
}

TEST(Tclish, UnknownCommandFatal)
{
    EXPECT_EXIT((void)runTcl("definitely_not_a_command"),
                testing::ExitedWithCode(1), "invalid command name");
}

TEST(Tclish, UndefinedVariableFatal)
{
    EXPECT_EXIT((void)runTcl("puts $missing"),
                testing::ExitedWithCode(1), "no such variable");
}

TEST(Tclish, TkDrawing)
{
    TclInterp *interp = nullptr;
    EXPECT_EQ(runTcl(R"(
        tk_init 64 64
        tk_clear 0
        tk_fillrect 8 8 16 16 3
        tk_line 0 0 63 63 1
        tk_circle 40 20 10 2
        tk_update
        puts drawn
    )",
                     nullptr, nullptr, &interp),
              "drawn\n");
    ASSERT_NE(interp->framebuffer(), nullptr);
    // 16x16 rect minus the 16 diagonal pixels the line overdraws.
    EXPECT_EQ(interp->framebuffer()->countPixels(3), 240);
    EXPECT_GT(interp->framebuffer()->countPixels(1), 30);
}

// --- paper-shape checks --------------------------------------------------

TEST(Tclish, FetchDecodeCostIsHuge)
{
    // Table 2: Tcl fetch/decode is ~2,000-5,200 native instructions
    // per command — an order of magnitude above Perl, two above Java.
    trace::Profile profile;
    runTcl(R"(
        set s 0
        for {set i 0} {$i < 200} {incr i} {
            set s [expr {$s + $i}]
        }
        puts $s
    )",
           nullptr, &profile);
    double fd = profile.fetchDecodePerCommand();
    EXPECT_GT(fd, 400.0);
    EXPECT_LT(fd, 8000.0);
}

TEST(Tclish, SymbolTableCostGrowsWithEntries)
{
    // §3.3: per-access memory-model cost 206 (small table) to 514
    // (xf's big table), varying with the number of entries.
    auto cost_with_vars = [](int nvars) {
        trace::Profile profile;
        std::string script;
        for (int i = 0; i < nvars; ++i)
            script += "set filler" + std::to_string(i) + " 1\n";
        script += R"(
            set s 0
            for {set i 0} {$i < 100} {incr i} {
                set s [expr {$s + $i}]
            }
            puts $s
        )";
        runTcl(script, nullptr, &profile);
        return profile.memModelCostPerAccess();
    };
    double small = cost_with_vars(2);
    double large = cost_with_vars(400);
    EXPECT_GT(small, 100.0);
    EXPECT_LT(small, 450.0);
    EXPECT_GT(large, small * 1.3)
        << "lookup cost must grow with symbol-table size";
}

TEST(Tclish, LoopBodiesAreReparsedEveryIteration)
{
    // Direct interpretation: running the same body N times costs ~N
    // times the parse work — there is no cached compiled form.
    auto fd_total = [](int iters) {
        trace::Profile profile;
        runTcl("for {set i 0} {$i < " + std::to_string(iters) +
                   "} {incr i} { set x [expr {$i + $i}] }\nputs $x",
               nullptr, &profile);
        return (double)profile.fetchDecodeInsts();
    };
    double fd10 = fd_total(10);
    double fd100 = fd_total(100);
    EXPECT_GT(fd100, 6.0 * fd10);
}

} // namespace
