/**
 * @file
 * Tests for the perlish interpreter: regex engine, hash table, value
 * semantics, language execution, and the Perl-specific cost profile
 * (startup precompilation, hash memory model, regex concentration).
 */

#include <gtest/gtest.h>

#include <string>

#include "perlish/hash_table.hh"
#include "perlish/interp.hh"
#include "perlish/regex.hh"
#include "perlish/value.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"

namespace {

using namespace interp;
using namespace interp::perlish;

// --- Scalar -----------------------------------------------------------

TEST(Scalar, NumToStr)
{
    EXPECT_EQ(Scalar::fromNum(42).str(), "42");
    EXPECT_EQ(Scalar::fromNum(-3).str(), "-3");
    EXPECT_EQ(Scalar::fromNum(2.5).str(), "2.5");
}

TEST(Scalar, StrToNum)
{
    EXPECT_DOUBLE_EQ(Scalar::fromStr("17").num(), 17.0);
    EXPECT_DOUBLE_EQ(Scalar::fromStr("3.5x").num(), 3.5);
    EXPECT_DOUBLE_EQ(Scalar::fromStr("abc").num(), 0.0);
    EXPECT_DOUBLE_EQ(Scalar::fromStr("-12 things").num(), -12.0);
}

TEST(Scalar, Truthiness)
{
    EXPECT_FALSE(Scalar::fromNum(0).truthy());
    EXPECT_TRUE(Scalar::fromNum(0.5).truthy());
    EXPECT_FALSE(Scalar::fromStr("").truthy());
    EXPECT_FALSE(Scalar::fromStr("0").truthy());
    EXPECT_TRUE(Scalar::fromStr("00").truthy());
    EXPECT_TRUE(Scalar::fromStr("0.0").truthy()) << "Perl quirk";
    Scalar undef;
    undef.defined_ = false;
    EXPECT_FALSE(undef.truthy());
}

// --- HashTable --------------------------------------------------------

TEST(PerlHash, InsertFindErase)
{
    HashTable table;
    int steps;
    table.lookup("alpha", steps).setNum(1);
    table.lookup("beta", steps).setNum(2);
    EXPECT_EQ(table.size(), 2u);
    ASSERT_NE(table.find("alpha", steps), nullptr);
    EXPECT_DOUBLE_EQ(table.find("alpha", steps)->num(), 1.0);
    EXPECT_EQ(table.find("gamma", steps), nullptr);
    EXPECT_TRUE(table.erase("alpha"));
    EXPECT_FALSE(table.erase("alpha"));
    EXPECT_EQ(table.find("alpha", steps), nullptr);
    EXPECT_EQ(table.size(), 1u);
}

TEST(PerlHash, GrowsAndKeepsEntries)
{
    HashTable table;
    int steps;
    for (int i = 0; i < 500; ++i)
        table.lookup("key" + std::to_string(i), steps).setNum(i);
    EXPECT_GT(table.bucketCount(), 8u);
    for (int i = 0; i < 500; ++i) {
        Scalar *v = table.find("key" + std::to_string(i), steps);
        ASSERT_NE(v, nullptr) << i;
        EXPECT_DOUBLE_EQ(v->num(), (double)i);
    }
}

TEST(PerlHash, LastBucketAddrSurvivesGrow)
{
    // Regression: lookup() caches &buckets[index] for the memory-model
    // charge before insertion may trigger grow(); grow() reallocates
    // the bucket array, so the cached address must be recomputed or it
    // dangles into freed memory. Insert far past the growth threshold
    // (count > 3 * buckets.size(), initial 8 buckets) and check the
    // published address points into the live array every time.
    HashTable table;
    int steps;
    for (int i = 0; i < 100; ++i) {
        table.lookup("grow" + std::to_string(i), steps).setNum(i);
        ASSERT_NE(table.lastBucketAddr, nullptr);
        EXPECT_TRUE(table.ownsBucketAddr(table.lastBucketAddr))
            << "stale bucket address after insert " << i
            << " (buckets=" << table.bucketCount() << ")";
    }
    EXPECT_GT(table.bucketCount(), 8u) << "test never forced a grow";
}

TEST(PerlHash, KeysEnumeratesAll)
{
    HashTable table;
    int steps;
    table.lookup("a", steps);
    table.lookup("b", steps);
    table.lookup("c", steps);
    auto keys = table.keys();
    EXPECT_EQ(keys.size(), 3u);
}

// --- Regex ------------------------------------------------------------

TEST(Rx, Literals)
{
    Regex re("abc");
    EXPECT_TRUE(re.test("xxabcxx"));
    EXPECT_FALSE(re.test("abX"));
    auto m = re.search("xxabcxx");
    EXPECT_EQ(m.begin, 2u);
    EXPECT_EQ(m.end, 5u);
}

TEST(Rx, AnchorsAndDot)
{
    EXPECT_TRUE(Regex("^ab.d$").test("abcd"));
    EXPECT_FALSE(Regex("^b").test("ab"));
    EXPECT_TRUE(Regex("d$").test("abcd"));
    EXPECT_FALSE(Regex("^a$").test("ab"));
    EXPECT_FALSE(Regex(".").test("\n")) << "dot does not match newline";
}

TEST(Rx, Quantifiers)
{
    EXPECT_TRUE(Regex("ab*c").test("ac"));
    EXPECT_TRUE(Regex("ab*c").test("abbbbc"));
    EXPECT_FALSE(Regex("ab+c").test("ac"));
    EXPECT_TRUE(Regex("ab+c").test("abc"));
    EXPECT_TRUE(Regex("ab?c").test("ac"));
    EXPECT_TRUE(Regex("ab?c").test("abc"));
    EXPECT_FALSE(Regex("ab?c").test("abbc"));
}

TEST(Rx, GreedyWithBacktracking)
{
    auto m = Regex("a.*b").search("aXbYb");
    EXPECT_TRUE(m.matched);
    EXPECT_EQ(m.end, 5u) << "greedy star takes the last b";
    EXPECT_TRUE(Regex("a.*bc").test("abbc"));
}

TEST(Rx, Classes)
{
    EXPECT_TRUE(Regex("[a-z]+").test("hello"));
    EXPECT_FALSE(Regex("^[a-z]+$").test("heLLo"));
    EXPECT_TRUE(Regex("[^0-9]").test("a1"));
    EXPECT_FALSE(Regex("^[^0-9]+$").test("a1"));
    EXPECT_TRUE(Regex("[abc-]").test("-"));
    EXPECT_TRUE(Regex("[]x]").test("]")) << "']' first in class is literal";
}

TEST(Rx, Escapes)
{
    EXPECT_TRUE(Regex("\\d+").test("abc123"));
    EXPECT_FALSE(Regex("\\d").test("abc"));
    EXPECT_TRUE(Regex("\\w+").test("a_1"));
    EXPECT_TRUE(Regex("\\s").test("a b"));
    EXPECT_TRUE(Regex("\\S+").test(" x "));
    EXPECT_TRUE(Regex("a\\.b").test("a.b"));
    EXPECT_FALSE(Regex("a\\.b").test("aXb"));
    EXPECT_TRUE(Regex("\\tx").test("\tx"));
}

TEST(Rx, Alternation)
{
    Regex re("cat|dog|bird");
    EXPECT_TRUE(re.test("hotdog"));
    EXPECT_TRUE(re.test("a bird"));
    EXPECT_FALSE(re.test("fish"));
}

TEST(Rx, CapturesBasic)
{
    Regex re("(\\d+)-(\\d+)");
    auto m = re.search("range 10-25 end");
    ASSERT_TRUE(m.matched);
    ASSERT_EQ(m.groups.size(), 2u);
    EXPECT_EQ(m.groups[0].first, 6u);
    EXPECT_EQ(m.groups[0].second, 8u);
    EXPECT_EQ(m.groups[1].first, 9u);
    EXPECT_EQ(m.groups[1].second, 11u);
}

TEST(Rx, CapturesInAlternation)
{
    Regex re("(a+)|(b+)");
    auto m = re.search("bbb");
    ASSERT_TRUE(m.matched);
    EXPECT_EQ(m.groups[0].first, std::string::npos) << "unset group";
    EXPECT_EQ(m.groups[1].second - m.groups[1].first, 3u);
}

TEST(Rx, NestedGroups)
{
    Regex re("((a|b)+)c");
    auto m = re.search("xabbac!");
    ASSERT_TRUE(m.matched);
    EXPECT_EQ(m.groups[0].first, 1u);
    EXPECT_EQ(m.groups[0].second, 5u);
}

TEST(Rx, Substitute)
{
    uint64_t steps;
    Regex re("o");
    auto [once, n1] = re.substitute("foo boo", "0", false, steps);
    EXPECT_EQ(once, "f0o boo");
    EXPECT_EQ(n1, 1);
    auto [all, n2] = re.substitute("foo boo", "0", true, steps);
    EXPECT_EQ(all, "f00 b00");
    EXPECT_EQ(n2, 4);
}

TEST(Rx, SubstituteWithGroups)
{
    uint64_t steps;
    Regex re("(\\w+)@(\\w+)");
    auto [out, n] =
        re.substitute("mail me@here now", "$2:$1", true, steps);
    EXPECT_EQ(out, "mail here:me now");
    EXPECT_EQ(n, 1);
    Regex amp("b+");
    auto [out2, n2] = amp.substitute("abbbc", "[$&]", true, steps);
    EXPECT_EQ(out2, "a[bbb]c");
    EXPECT_EQ(n2, 1);
}

TEST(Rx, Split)
{
    uint64_t steps;
    Regex comma(",");
    auto parts = comma.split("a,b,,c", steps);
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    Regex spaces("\\s+");
    auto words = spaces.split("one  two\tthree ", steps);
    ASSERT_EQ(words.size(), 3u);
    EXPECT_EQ(words[2], "three");
}

TEST(Rx, SplitDropsTrailingEmpties)
{
    uint64_t steps;
    Regex comma(",");
    auto parts = comma.split("a,b,,,", steps);
    ASSERT_EQ(parts.size(), 2u);
}

TEST(Rx, SyntaxErrorsAreFatal)
{
    EXPECT_EXIT((void)Regex("a(b"), testing::ExitedWithCode(1),
                "missing");
    EXPECT_EXIT((void)Regex("[abc"), testing::ExitedWithCode(1),
                "unterminated");
    EXPECT_EXIT((void)Regex("*a"), testing::ExitedWithCode(1),
                "quantifier");
}

/** Property sweep: regex vs handwritten checks on structured inputs. */
class RxNumbers : public testing::TestWithParam<int>
{};

TEST_P(RxNumbers, DigitRunsFound)
{
    int n = GetParam();
    std::string text = "id" + std::to_string(n) + "suffix";
    Regex re("\\d+");
    auto m = re.search(text);
    ASSERT_TRUE(m.matched);
    EXPECT_EQ(text.substr(m.begin, m.end - m.begin), std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(Values, RxNumbers,
                         testing::Values(0, 7, 42, 100, 999, 12345,
                                         1000000));

// --- Interpreter -------------------------------------------------------

std::string
runPerl(const std::string &src, vfs::FileSystem *fs_in = nullptr,
        trace::Profile *profile = nullptr, int *exit_code = nullptr)
{
    trace::Execution exec;
    if (profile)
        exec.addSink(profile);
    vfs::FileSystem local;
    vfs::FileSystem &fs = fs_in ? *fs_in : local;
    Interp interp(exec, fs);
    interp.load(src);
    exec.setCommandBudget(100'000'000);
    int code = interp.run();
    exec.flush();
    if (exit_code)
        *exit_code = code;
    return fs.stdoutCapture();
}

TEST(Perlish, HelloWorld)
{
    EXPECT_EQ(runPerl("print \"hello\\n\";"), "hello\n");
}

TEST(Perlish, ScalarsAndInterpolation)
{
    EXPECT_EQ(runPerl(R"(
        $x = 6;
        $y = 7;
        $z = $x * $y;
        print "answer=$z!\n";
    )"),
              "answer=42!\n");
}

TEST(Perlish, ArithmeticSemantics)
{
    EXPECT_EQ(runPerl(R"(
        print 7 % 3, " ", -7 % 3, " ";     # Perl: -7 % 3 == 2
        print 10 / 4, " ";
        print int(3.9), " ", int(-3.9);
    )"),
              "1 2 2.5 3 -3");
}

TEST(Perlish, BitwiseOps)
{
    EXPECT_EQ(runPerl(R"(
        print 0xff & 0x0f, " ", 0xf0 | 0x0f, " ", 0xff ^ 0x0f, " ";
        print 1 << 10, " ", 1024 >> 3, "\n";
        print(($x & 1) == 0 ? "even" : "odd") if ($x = 6);
    )"),
              "15 255 240 1024 128\neven");
}

TEST(Perlish, StringOps)
{
    EXPECT_EQ(runPerl(R"(
        $a = "foo" . "bar";
        $b = "ab" x 3;
        print $a, " ", $b, " ", length($a), "\n";
        print substr($a, 1, 3), " ", index($a, "bar"), "\n";
        print "x" lt "y", " ", "abc" eq "abc", "\n";
    )"),
              "foobar ababab 6\noob 3\n1 1\n");
}

TEST(Perlish, NumericVsStringComparison)
{
    EXPECT_EQ(runPerl(R"(
        print "10" == "10.0" ? "neq" : "nne";
        print " ";
        print "10" eq "10.0" ? "seq" : "sne";
    )"),
              "neq sne");
}

TEST(Perlish, ArraysPushPopShift)
{
    EXPECT_EQ(runPerl(R"(
        @list = (3, 1, 4, 1, 5);
        push(@list, 9);
        $n = pop(@list);
        $first = shift(@list);
        unshift(@list, 0);
        print "n=$n first=$first size=", scalar(@list), " last=", $#list, "\n";
        print join(",", @list), "\n";
    )"),
              "n=9 first=3 size=5 last=4\n0,1,4,1,5\n");
}

TEST(Perlish, HashesAndKeys)
{
    EXPECT_EQ(runPerl(R"(
        $age{bob} = 30;
        $age{"al"} = 25;
        $total = 0;
        foreach $k (keys(%age)) {
            $total += $age{$k};
        }
        print "total=$total n=", scalar(keys(%age)), "\n";
        print defined($age{bob}) ? "yes" : "no";
        delete($age{bob});
        print defined($age{bob}) ? "yes" : "no";
    )"),
              "total=55 n=2\nyesno");
}

TEST(Perlish, ControlFlow)
{
    EXPECT_EQ(runPerl(R"(
        $sum = 0;
        for ($i = 0; $i < 10; $i += 1) {
            next if $i == 3;
            last if $i == 8;
            $sum += $i;
        }
        $j = 0;
        while ($j < 5) { $j += 2; }
        until ($j > 10) { $j += 3; }
        print "$sum $j\n";
        unless ($sum > 100) { print "small\n"; }
    )"),
              "25 12\nsmall\n");
}

TEST(Perlish, ForeachRangesAndArrays)
{
    EXPECT_EQ(runPerl(R"(
        $s = 0;
        foreach $i (1..5) { $s += $i; }
        @w = ("a", "b", "c");
        $t = "";
        foreach $w (@w) { $t .= $w; }
        print "$s $t\n";
    )"),
              "15 abc\n");
}

TEST(Perlish, SubroutinesAndLocals)
{
    EXPECT_EQ(runPerl(R"(
        sub add {
            local($a, $b) = 0;
            $a = shift;
            $b = shift;
            return $a + $b;
        }
        sub fact {
            local($n) = 0;
            $n = shift;
            return 1 if $n <= 1;
            return $n * &fact($n - 1);
        }
        $a = 100;  # must survive the local() in add
        print add(2, 3), " ", &fact(5), " ", $a, "\n";
    )"),
              "5 120 100\n");
}

TEST(Perlish, MatchAndCaptures)
{
    EXPECT_EQ(runPerl(R"(
        $line = "From: alice@example.org";
        if ($line =~ /(\w+)@(\w+)/) {
            print "user=$1 host=$2\n";
        }
        print "no-digits\n" unless $line =~ /\d/;
    )"),
              "user=alice host=example\nno-digits\n");
}

TEST(Perlish, SubstAndSplit)
{
    EXPECT_EQ(runPerl(R"(
        $s = "one two  three";
        $n = ($s =~ s/ +/_/g);
        print "$s ($n)\n";
        @parts = split(/_/, $s);
        print scalar(@parts), ":", join("|", @parts), "\n";
    )"),
              "one_two_three (2)\n3:one|two|three\n");
}

TEST(Perlish, FileIo)
{
    vfs::FileSystem fs;
    fs.writeFile("nums.txt", "3\n5\n11\n");
    EXPECT_EQ(runPerl(R"(
        open(IN, "nums.txt");
        $total = 0;
        while ($line = <IN>) {
            chop($line);
            $total += $line;
        }
        close(IN);
        open(OUT, ">out.txt");
        print OUT "total=$total\n";
        close(OUT);
        print "done $total";
    )",
                      &fs),
              "done 19");
    EXPECT_EQ(fs.readFile("out.txt"), "total=19\n");
}

TEST(Perlish, SprintfSubset)
{
    EXPECT_EQ(runPerl(R"(
        print sprintf("%05d|%-4s|%x|%c", 42, "ab", 255, 65), "\n";
    )"),
              "00042|ab  |ff|A\n");
}

TEST(Perlish, DieAndExit)
{
    int code = 0;
    vfs::FileSystem fs;
    EXPECT_EQ(runPerl("print \"a\"; exit(3); print \"b\";", &fs,
                      nullptr, &code),
              "a");
    EXPECT_EQ(code, 3);

    vfs::FileSystem fs2;
    code = 0;
    EXPECT_EQ(runPerl("print \"x\"; die \"bad thing\"; print \"y\";",
                      &fs2, nullptr, &code),
              "x");
    EXPECT_EQ(code, 1);
    EXPECT_EQ(fs2.stderrCapture(), "bad thing");
}

TEST(Perlish, UndefinedScalarsReadAsEmpty)
{
    EXPECT_EQ(runPerl(R"(
        print "[", $nothing, "]", $nothing + 5, "\n";
        print defined($nothing) ? "def" : "undef", "\n";
    )"),
              "[]5\nundef\n");
}

// --- Paper-shape checks ------------------------------------------------

TEST(Perlish, PrecompileWorkIsAccounted)
{
    trace::Profile profile;
    runPerl(R"(
        $x = 1;
        $y = $x + 2;
        print "";
    )",
            nullptr, &profile);
    EXPECT_GT(profile.precompileInsts(), 1000u)
        << "startup compilation must be charged";
    // Precompile work scales with source size.
    trace::Profile big;
    std::string long_src;
    for (int i = 0; i < 50; ++i)
        long_src += "$v" + std::to_string(i) + " = " +
                    std::to_string(i) + ";\n";
    long_src += "print \"\";";
    runPerl(long_src, nullptr, &big);
    EXPECT_GT(big.precompileInsts(), 3 * profile.precompileInsts());
}

TEST(Perlish, FetchDecodeCostIsHigh)
{
    // Table 2: Perl fetch/decode is ~130-200 instructions per command
    // (an order of magnitude above Java's 16).
    trace::Profile profile;
    runPerl(R"(
        $s = 0;
        for ($i = 0; $i < 500; $i += 1) { $s += $i; }
        print "$s";
    )",
            nullptr, &profile);
    double fd = profile.fetchDecodePerCommand();
    EXPECT_GT(fd, 80.0);
    EXPECT_LT(fd, 260.0);
}

TEST(Perlish, HashCostNearPaperValue)
{
    // §3.3: hash translations average ~210 native instructions.
    trace::Profile profile;
    runPerl(R"(
        for ($i = 0; $i < 300; $i += 1) {
            $h{"key$i"} = $i;
        }
        $t = 0;
        for ($i = 0; $i < 300; $i += 1) {
            $t += $h{"key$i"};
        }
        print "$t";
    )",
            nullptr, &profile);
    double per_access = profile.memModelCostPerAccess();
    EXPECT_GT(per_access, 80.0);
    EXPECT_LT(per_access, 400.0);
}

TEST(Perlish, RegexDominatesTextProcessing)
{
    // Figures 1-2: in regex-heavy programs, the match/subst commands
    // dominate execute instructions while being few in number.
    trace::Profile profile;
    trace::Execution exec;
    exec.addSink(&profile);
    vfs::FileSystem fs;
    std::string text;
    for (int i = 0; i < 60; ++i)
        text += "line " + std::to_string(i) +
                " with some words to scan here\n";
    fs.writeFile("in.txt", text);
    Interp interp(exec, fs);
    interp.load(R"(
        open(F, "in.txt");
        $hits = 0;
        while ($l = <F>) {
            $hits += 1 if $l =~ /w[a-z]+ds/;
            $l =~ s/[aeiou]/./g;
        }
        close(F);
        print "$hits";
    )");
    exec.setCommandBudget(50'000'000);
    interp.run();
    exec.flush();
    auto sorted = profile.byExecuteInsts();
    ASSERT_GE(sorted.size(), 2u);
    const std::string &top =
        interp.commandSet().name(sorted[0].first);
    EXPECT_TRUE(top == "subst" || top == "match") << top;
    EXPECT_GT(profile.cumulativeExecuteShare(3), 0.5)
        << "a few commands dominate execution";
}

} // namespace
