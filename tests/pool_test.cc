/**
 * @file
 * Tests for the parallel suite runner: the thread pool itself, the
 * suite command line, failure containment (exceptions and fatal()
 * program errors become failed Measurements, not process exits), and
 * the determinism guarantee — a parallel suite run is bit-identical
 * to a serial one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/parallel.hh"
#include "harness/pool.hh"
#include "harness/runner.hh"
#include "support/detalloc.hh"
#include "support/logging.hh"

namespace {

using namespace interp;
using namespace interp::harness;

// --- ThreadPool --------------------------------------------------------

TEST(ThreadPool, RunsEveryJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                ++count;
            });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
}

TEST(ThreadPool, QueueAndIdleGauges)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.queuedCount(), 0u);
    EXPECT_EQ(pool.idleWorkers(), 2u);

    // Park both workers on a gate, then pile up three more jobs: the
    // gauges must read exactly 3 queued / 0 idle — the admission-
    // control snapshot interpd sheds on.
    std::mutex gate_mu;
    std::condition_variable gate_cv;
    bool gate_open = false;
    std::atomic<int> parked{0};
    for (int i = 0; i < 2; ++i)
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(gate_mu);
            ++parked;
            gate_cv.wait(lock, [&] { return gate_open; });
        });
    while (parked.load() < 2)
        std::this_thread::yield();
    EXPECT_EQ(pool.queuedCount(), 0u) << "both jobs picked up";
    EXPECT_EQ(pool.idleWorkers(), 0u);

    for (int i = 0; i < 3; ++i)
        pool.submit([] {});
    EXPECT_EQ(pool.queuedCount(), 3u);
    EXPECT_EQ(pool.idleWorkers(), 0u);

    {
        std::lock_guard<std::mutex> lock(gate_mu);
        gate_open = true;
    }
    gate_cv.notify_all();
    pool.wait();
    EXPECT_EQ(pool.queuedCount(), 0u);
    EXPECT_EQ(pool.idleWorkers(), 2u);
}

// --- parallelFor -------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (int jobs : {1, 2, 8}) {
        std::vector<std::atomic<int>> hits(64);
        parallelFor(hits.size(), jobs,
                    [&hits](size_t i) { ++hits[i]; });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
}

TEST(ParallelFor, MoreJobsThanWork)
{
    std::atomic<int> count{0};
    parallelFor(3, 16, [&count](size_t) { ++count; });
    EXPECT_EQ(count.load(), 3);
}

// --- suite command line ------------------------------------------------

BenchArgs
parse(std::vector<const char *> words, const BenchFlags &flags = {})
{
    words.insert(words.begin(), "bench");
    return parseBenchArgs((int)words.size(), words.data(), flags);
}

TEST(ParseBenchArgs, EverySpellingAndEveryUsageError)
{
    for (auto words : std::vector<std::vector<const char *>>{
             {"--jobs", "4"}, {"--jobs=4"}, {"-j4"}, {"-j", "4"}})
        EXPECT_EQ(parse(words).suite.jobs, 4) << words[0];
    EXPECT_EQ(parse({}).suite.jobs, 1);
    EXPECT_GE(parse({"--jobs=0"}).suite.jobs, 1) << "hardware threads";

    // Every value flag, as the next argument and after '='.
    const BenchFlags all = {.modes = true, .programs = true,
                            .json = "default.json"};
    EXPECT_EQ(parse({"--record", "tr"}).suite.io.recordDir, "tr");
    EXPECT_EQ(parse({"--record=tr"}).suite.io.recordDir, "tr");
    EXPECT_EQ(parse({"--replay", "tr"}).suite.io.replayDir, "tr");
    EXPECT_EQ(parse({"--replay=tr"}).suite.io.replayDir, "tr");
    EXPECT_EQ(parse({"--modes", "jit"}, all).modes, ModeSet::Jit);
    EXPECT_EQ(parse({"--modes=all"}, all).modes, ModeSet::All);
    EXPECT_EQ(parse({"--programs", "des"}, all).programs, "des");
    EXPECT_EQ(parse({"--programs=a*,b"}, all).programs, "a*,b");
    EXPECT_EQ(parse({"--json", "out.json"}, all).jsonPath, "out.json");
    EXPECT_EQ(parse({"--json=x.json"}, all).jsonPath, "x.json");

    // A bare --json writes the driver's default file, also when
    // another flag follows it; no --json writes nothing.
    BenchArgs before = parse({"--json", "--programs=spin"}, all);
    EXPECT_EQ(before.jsonPath, "default.json");
    EXPECT_EQ(before.programs, "spin");
    EXPECT_EQ(parse({"--jobs", "2", "--json"}, all).jsonPath,
              "default.json");
    EXPECT_EQ(parse({"--jobs=2"}, all).jsonPath, "");

    ScopedFatalThrow contain;
    for (auto words : std::vector<std::vector<const char *>>{
             {"--mode=all"}, {"--program=des"}, {"des"}, {"--modes=all"},
             {"--programs=des"}, {"--json"}, {"--jobs=many"},
             {"--jobs=-3"}, {"-j", "abc"}, {"--jobs"}, {"--record"},
             {"--replay="}, {"--record", "a", "--replay", "b"}})
        EXPECT_THROW(parse(words), FatalError) << words[0];
    EXPECT_THROW(parse({"--modes=fast"}, all), FatalError);
    EXPECT_THROW(parse({"--json="}, all), FatalError);
}

// --- failure containment -----------------------------------------------

TEST(RunSuite, ResultsInSpecOrder)
{
    // Jobs finish out of order (later specs sleep less); results must
    // still come back in spec order.
    std::vector<BenchSpec> specs(8);
    for (size_t i = 0; i < specs.size(); ++i) {
        specs[i].lang = Lang::Perl;
        specs[i].name = "spec" + std::to_string(i);
    }
    auto results = runSuiteWith(
        specs, 4, [&specs](const BenchSpec &spec, size_t i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(specs.size() - i));
            Measurement m;
            m.lang = spec.lang;
            m.name = spec.name;
            m.commands = i;
            return m;
        });
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].name, specs[i].name);
        EXPECT_EQ(results[i].commands, i);
    }
}

TEST(RunSuite, ExceptionBecomesFailedMeasurement)
{
    std::vector<BenchSpec> specs(4);
    for (size_t i = 0; i < specs.size(); ++i)
        specs[i].name = "job" + std::to_string(i);
    auto results = runSuiteWith(
        specs, 2, [](const BenchSpec &spec, size_t i) -> Measurement {
            if (i == 2)
                throw std::runtime_error("boom in job 2");
            Measurement m;
            m.name = spec.name;
            m.finished = true;
            return m;
        });
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_TRUE(results[2].failed);
    EXPECT_NE(results[2].error.find("boom in job 2"), std::string::npos);
    EXPECT_EQ(results[2].name, "job2") << "failed result keeps its slot";
    EXPECT_TRUE(results[3].finished) << "later jobs unaffected";
}

TEST(RunSuite, FatalProgramErrorIsContained)
{
    // A syntactically broken program makes the compiler call fatal();
    // in a suite that must fail the one measurement, not the process.
    BenchSpec good;
    good.lang = Lang::Perl;
    good.name = "good";
    good.source = "$a = 1 + 2; print \"$a\";\n";
    BenchSpec bad;
    bad.lang = Lang::Perl;
    bad.name = "bad";
    bad.source = "for ($i = 0; ; { nonsense\n";
    std::vector<BenchSpec> specs = {good, bad, good};

    SuiteOptions opt;
    opt.jobs = 2;
    auto results = runSuite(specs, opt);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_EQ(results[0].stdoutText, "3");
    EXPECT_TRUE(results[1].failed);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_FALSE(results[2].failed);
    EXPECT_EQ(results[2].stdoutText, "3");
}

// --- determinism: parallel == serial -----------------------------------

// Every numeric observable of a Measurement, serialized for equality
// comparison across runs.
std::string
fingerprint(const Measurement &m)
{
    std::ostringstream out;
    out << langName(m.lang) << '/' << m.name << ':' << m.programBytes
        << ',' << m.commands << ',' << m.cycles << ',' << m.finished
        << ',' << m.failed;
    const trace::Profile &p = m.profile;
    out << '|' << p.commands() << ',' << p.instructions() << ','
        << p.fetchDecodeInsts() << ',' << p.executeInsts() << ','
        << p.precompileInsts() << ',' << p.nativeLibInsts() << ','
        << p.memModelInsts() << ',' << p.systemInsts() << ','
        << p.memModelAccesses();
    out << '|' << m.breakdown.busyPct;
    for (double pct : m.breakdown.stallPct)
        out << ',' << pct;
    out << '|' << m.imissPer100 << '|' << m.stdoutText;
    return out.str();
}

TEST(DetAlloc, LifoReuseOfSameSizeClass)
{
    if (!support::deterministicAllocatorActive())
        GTEST_SKIP() << "system allocator in use (sanitizer build)";
    // Strict LIFO per size class is what makes heap-reuse aliasing a
    // pure function of the run's own alloc/free sequence.
    void *a = new char[40];
    delete[] (char *)a;
    void *b = new char[40];
    EXPECT_EQ(a, b) << "most recently freed cell must be reused first";
    EXPECT_EQ((uintptr_t)b % 16, 0u) << "cells are 16-byte aligned";
    delete[] (char *)b;
}

TEST(RunSuite, ParallelBitIdenticalToSerial)
{
    if (!support::deterministicAllocatorActive())
        GTEST_SKIP() << "bit-exact reproducibility needs the "
                        "deterministic allocator (off under sanitizers)";
    // The full macro suite under a tight command budget: every
    // language and workload generator is exercised, but each job stays
    // fast. The budget applies identically to both passes, so the
    // comparison is exact.
    std::vector<BenchSpec> specs = macroSuite();
    for (BenchSpec &spec : specs)
        spec.maxCommands = 20'000;

    SuiteOptions serial;
    serial.jobs = 1;
    SuiteOptions parallel;
    parallel.jobs = 4;
    auto serial_results = runSuite(specs, serial);
    auto parallel_results = runSuite(specs, parallel);

    ASSERT_EQ(serial_results.size(), parallel_results.size());
    for (size_t i = 0; i < serial_results.size(); ++i)
        EXPECT_EQ(fingerprint(serial_results[i]),
                  fingerprint(parallel_results[i]))
            << "spec " << i << " (" << specs[i].name << ")";
}

TEST(RunSuite, SerialRunsAreRepeatable)
{
    if (!support::deterministicAllocatorActive())
        GTEST_SKIP() << "bit-exact reproducibility needs the "
                        "deterministic allocator (off under sanitizers)";
    // Same process, run twice: heap state differs between passes, so
    // this only holds because synthetic data addresses are derived
    // from touch order, not raw pointer values — and because heap
    // reuse follows each run's own alloc/free sequence (detalloc).
    // Every macro program under every rung of its ladder, with the
    // machine on: an address mapper whose own allocations depend on
    // raw host addresses (a table keyed by host page) shows up here
    // as cycles that differ between the passes.
    std::vector<BenchSpec> specs = ladderSuite(macroSuite());
    for (BenchSpec &spec : specs)
        spec.maxCommands = 20'000;

    auto first = runSuite(specs, {});
    auto second = runSuite(specs, {});
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(fingerprint(first[i]), fingerprint(second[i]));
}

} // namespace
