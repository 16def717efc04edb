#include "harness/parallel.hh"

#include <cstdlib>
#include <exception>
#include <thread>

#include "harness/pool.hh"
#include "support/logging.hh"

namespace interp::harness {

int
resolveJobs(int jobs)
{
    if (jobs > 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? (int)hw : 1;
}

void
parallelFor(size_t n, int jobs, const std::function<void(size_t)> &fn)
{
    int workers = resolveJobs(jobs);
    if (workers <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if ((size_t)workers > n)
        workers = (int)n;
    ThreadPool pool((unsigned)workers);
    for (size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

std::vector<Measurement>
runSuiteWith(const std::vector<BenchSpec> &specs, int jobs,
             const std::function<Measurement(const BenchSpec &, size_t)> &fn)
{
    // Slot i belongs exclusively to job i: deterministic spec order
    // regardless of which worker finishes first.
    std::vector<Measurement> results(specs.size());
    parallelFor(specs.size(), jobs, [&](size_t i) {
        try {
            ScopedFatalThrow contain;
            results[i] = fn(specs[i], i);
        } catch (const std::exception &ex) {
            Measurement failed;
            failed.lang = specs[i].lang;
            failed.name = specs[i].name;
            failed.failed = true;
            failed.error = ex.what();
            results[i] = std::move(failed);
        } catch (...) {
            Measurement failed;
            failed.lang = specs[i].lang;
            failed.name = specs[i].name;
            failed.failed = true;
            failed.error = "unknown exception";
            results[i] = std::move(failed);
        }
    });
    return results;
}

std::vector<Measurement>
runSuite(const std::vector<BenchSpec> &specs, const SuiteOptions &opt)
{
    return runSuiteWith(specs, opt.jobs,
                        [&opt](const BenchSpec &spec, size_t) {
                            return runOrReplay(spec, opt.io, {},
                                               opt.machineCfg,
                                               opt.withMachine);
                        });
}

BenchArgs
parseBenchArgs(int argc, const char *const *argv, const BenchFlags &flags)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i], name = arg, value;
        bool inline_value = false;
        if (arg.rfind("--", 0) == 0 && arg.find('=') != std::string::npos) {
            name = arg.substr(0, arg.find('='));
            value = arg.substr(name.size() + 1);
            inline_value = true;
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            name = "-j";
            value = arg.substr(2);
            inline_value = true;
        }
        // The flag's value: after '=' or the next argument.
        auto take = [&](const char *what) {
            if (!inline_value) {
                if (i + 1 >= argc)
                    fatal("%s requires %s", name.c_str(), what);
                value = argv[++i];
            }
            if (value.empty())
                fatal("%s requires %s", name.c_str(), what);
            return value;
        };

        if (name == "--jobs" || name == "-j") {
            std::string count = take("a count");
            char *end = nullptr;
            long parsed = std::strtol(count.c_str(), &end, 10);
            if (*end || parsed < 0)
                fatal("--jobs expects a non-negative integer, got \"%s\"",
                      count.c_str());
            args.suite.jobs = resolveJobs((int)parsed);
        } else if (name == "--record") {
            args.suite.io.recordDir = take("a directory");
        } else if (name == "--replay") {
            args.suite.io.replayDir = take("a directory");
        } else if (name == "--modes" && flags.modes) {
            std::string set = take("a mode set");
            if (set == "baseline")
                args.modes = ModeSet::Baseline;
            else if (set == "remedies")
                args.modes = ModeSet::Remedies;
            else if (set == "all")
                args.modes = ModeSet::All;
            else if (set == "jit")
                args.modes = ModeSet::Jit;
            else
                fatal("unknown --modes value '%s' "
                      "(want baseline|remedies|all|jit)",
                      set.c_str());
        } else if (name == "--programs" && flags.programs) {
            args.programs = take("a pattern list");
        } else if (name == "--json" && flags.json) {
            if (inline_value)
                args.jsonPath = take("a file");
            else if (i + 1 < argc && argv[i + 1][0] != '-')
                args.jsonPath = argv[++i];
            else
                args.jsonPath = flags.json;
        } else {
            std::string usage = "[--jobs N] [--record DIR | --replay DIR]";
            if (flags.modes)
                usage += " [--modes=baseline|remedies|all|jit]";
            if (flags.programs)
                usage += " [--programs=GLOB[,GLOB...]]";
            if (flags.json)
                usage += " [--json [FILE]]";
            fatal("unknown argument '%s'\nusage: %s %s", argv[i], argv[0],
                  usage.c_str());
        }
    }
    if (!args.suite.io.recordDir.empty() && !args.suite.io.replayDir.empty())
        fatal("--record and --replay are mutually exclusive");
    return args;
}

} // namespace interp::harness
