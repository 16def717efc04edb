/**
 * @file
 * Unit tests for the support library (string utilities, RNG).
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strutil.hh"

namespace {

using namespace interp;

TEST(StrUtil, SplitKeepsEmptyFields)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StrUtil, SplitSingleField)
{
    auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(StrUtil, SplitWhitespaceDropsEmpty)
{
    auto parts = splitWhitespace("  one\ttwo\n three  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "one");
    EXPECT_EQ(parts[1], "two");
    EXPECT_EQ(parts[2], "three");
}

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StrUtil, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_TRUE(endsWith("foobar", "bar"));
    EXPECT_FALSE(endsWith("ar", "bar"));
}

TEST(StrUtil, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StrUtil, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%05.1f", 3.25), "003.2");
}

TEST(StrUtil, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1234567890), "1,234,567,890");
}

TEST(StrUtil, SigThousands)
{
    // 12,960,000 instructions -> "13,000" (thousands).
    EXPECT_EQ(sigThousands(12'960'000), "13,000");
    EXPECT_EQ(sigThousands(290'450'000), "290,000");
    EXPECT_EQ(sigThousands(170'000), "170");
    EXPECT_EQ(sigThousands(3'400), "3.4");
}

TEST(StrUtil, JsonEscape)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("plain"), "plain");
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u) << "all values in [-3,3] should appear";
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

// --- log-line prefixes (setLogTimestamps) -------------------------------

/** Restores the global prefix option on scope exit. */
struct TimestampGuard
{
    bool saved = logTimestampsEnabled();
    ~TimestampGuard() { setLogTimestamps(saved); }
};

TEST(Logging, PrefixEmptyWhenDisabled)
{
    TimestampGuard guard;
    setLogTimestamps(false);
    EXPECT_EQ(logLinePrefix(), "");
}

TEST(Logging, PrefixFormatAndMonotonicity)
{
    TimestampGuard guard;
    setLogTimestamps(true);
    std::string p = logLinePrefix();
    // "[sssss.ssssss tNN] " — fixed-width seconds, then a thread id.
    ASSERT_GE(p.size(), 6u);
    EXPECT_EQ(p.front(), '[');
    size_t dot = p.find('.');
    size_t tid = p.find(" t");
    size_t close = p.find("] ");
    ASSERT_NE(dot, std::string::npos);
    ASSERT_NE(tid, std::string::npos);
    ASSERT_NE(close, std::string::npos);
    EXPECT_LT(dot, tid);
    EXPECT_LT(tid, close);
    EXPECT_EQ(close + 2, p.size()) << "prefix ends with \"] \"";
    EXPECT_EQ(tid + 2 + 2, close) << "two-digit dense thread id";

    auto seconds = [](const std::string &prefix) {
        return std::stod(prefix.substr(1, prefix.find(' ') - 1));
    };
    double first = seconds(p);
    EXPECT_GE(first, 0.0);
    std::string q = logLinePrefix();
    EXPECT_GE(seconds(q), first) << "monotonic clock never steps back";
}

TEST(Logging, ThreadsGetDistinctIds)
{
    TimestampGuard guard;
    setLogTimestamps(true);
    std::string here = logLinePrefix();
    std::string there;
    std::thread other([&there] { there = logLinePrefix(); });
    other.join();
    auto tid = [](const std::string &prefix) {
        size_t t = prefix.find(" t");
        return prefix.substr(t + 2, prefix.find("] ") - t - 2);
    };
    EXPECT_NE(tid(here), tid(there));
}

} // namespace
