/**
 * @file
 * loadgen: closed- and open-loop load generator for interpd.
 *
 * Spawns N client connections replaying a request mix against a
 * running daemon and prints a per-mode table of outcome counts with
 * client-observed p50/p95/p99 latency — the shed/miss table of the
 * serving experiments (see EXPERIMENTS.md). Closed loop (default)
 * keeps one request in flight per client; --rate switches to open
 * loop, offering a fixed aggregate arrival rate so queueing delay and
 * SHED behavior become visible.
 *
 * Usage: loadgen [options]
 *   --endpoints A,B   comma-separated unix sockets (unix:PATH or a
 *                     path containing '/'), clients assigned
 *                     round-robin; connect failures and reconnects
 *                     are tallied per endpoint, distinct from SHED
 *                     (default /tmp/interpd.sock)
 *   --socket PATH     shorthand for --endpoints unix:PATH
 *   --connect-attempts N  connect retries per endpoint (default 3)
 *   --clients N       concurrent connections (default 1)
 *   --requests N      requests per client (default 8)
 *   --rate R          open loop at R requests/second total
 *   --mode M[,M...]   execution modes, cycled (default mipsi); any
 *                     harness mode name, case-insensitive (mipsi,
 *                     tcl-jit, java-tier2, ...), or jvm, jvm-quick,
 *                     threaded
 *   --program NAME    catalog program (default micro:a=b+c)
 *   --mix I:B         heterogeneous mix: per mode, I interactive and
 *                     B batch registry workloads per cycle (drawn
 *                     round-robin from each traffic class), instead
 *                     of --program; the report gains a per-class
 *                     breakdown so shed/deadline counts are
 *                     attributable to the class that paid them
 *   --iterations N    iteration count for micro programs
 *   --deadline MS     per-request deadline (0 = already expired)
 *   --max-commands N  per-request command budget
 *   --machine         also simulate timing (slower)
 *   --stats           print the server's STATS JSON afterwards
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "server/client.hh"
#include "server/conn.hh"
#include "support/logging.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::server;

namespace {

/** Every mode name --mode accepts (aliases aside). */
std::string
modeNames()
{
    std::string names;
    for (const harness::ModeInfo &m : harness::kModes)
        names += names.empty() ? m.name : std::string(" ") + m.name;
    return names;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: loadgen [--socket PATH | --endpoints A,B,...]\n"
        "               [--clients N] [--connect-attempts N]\n"
        "               [--requests N]\n"
        "               [--rate R] [--mode M[,M...]]\n"
        "               [--program NAME | --mix I:B]\n"
        "               [--iterations N]\n"
        "               [--deadline MS] [--max-commands N]\n"
        "               [--machine] [--stats]\n"
        "endpoints: unix:PATH or a path containing '/'\n"
        "modes (any case): %s\n",
        modeNames().c_str());
    std::exit(2);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage();
    return argv[++i];
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= list.size()) {
        size_t comma = list.find(',', start);
        size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > start)
            out.push_back(list.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

std::vector<harness::Lang>
parseModes(const std::string &list)
{
    std::vector<harness::Lang> modes;
    for (const std::string &name : splitCommas(list)) {
        harness::Lang lang;
        if (!langFromName(name, lang))
            fatal("loadgen: unknown mode \"%s\" (modes: %s)",
                  name.c_str(), modeNames().c_str());
        modes.push_back(lang);
    }
    if (modes.empty())
        usage();
    return modes;
}

} // namespace

int
main(int argc, char **argv)
{
    LoadgenOptions opt;
    std::string modeList = "mipsi";
    std::string program = "micro:a=b+c";
    std::string mixSpec;
    uint32_t iterations = 0;
    uint32_t deadlineMs = kNoDeadline;
    uint64_t maxCommands = 0;
    uint8_t flags = 0;
    bool wantStats = false;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--socket"))
            opt.endpoints = {std::string("unix:") +
                             argValue(argc, argv, i)};
        else if (!std::strcmp(argv[i], "--endpoints"))
            opt.endpoints = splitCommas(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--connect-attempts"))
            opt.connectAttempts =
                (unsigned)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--clients"))
            opt.clients =
                (unsigned)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--requests"))
            opt.requestsPerClient =
                (unsigned)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--rate"))
            opt.openRatePerSec = std::atof(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--mode"))
            modeList = argValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--program"))
            program = argValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--mix"))
            mixSpec = argValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--iterations"))
            iterations =
                (uint32_t)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--deadline"))
            deadlineMs =
                (uint32_t)std::atol(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--max-commands"))
            maxCommands =
                (uint64_t)std::atoll(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--machine"))
            flags |= kFlagWithMachine;
        else if (!std::strcmp(argv[i], "--stats"))
            wantStats = true;
        else
            usage();
    }
    if (opt.endpoints.empty())
        opt.endpoints = {"unix:/tmp/interpd.sock"};
    for (const std::string &spec : opt.endpoints) {
        Endpoint ep;
        if (!Endpoint::parse(spec, ep))
            usage();
    }

    auto makeRequest = [&](harness::Lang mode,
                           const std::string &name) {
        EvalRequest req;
        req.mode = mode;
        req.flags = flags;
        req.deadlineMs = deadlineMs;
        req.maxCommands = maxCommands;
        req.iterations = iterations;
        req.kind = ProgramKind::Named;
        req.program = name;
        return req;
    };

    if (mixSpec.empty()) {
        for (harness::Lang mode : parseModes(modeList))
            opt.mix.push_back(makeRequest(mode, program));
    } else {
        unsigned inter = 0, batch = 0;
        if (std::sscanf(mixSpec.c_str(), "%u:%u", &inter, &batch) !=
                2 ||
            inter + batch == 0)
            fatal("loadgen: bad --mix \"%s\" (want I:B, e.g. 3:1)",
                  mixSpec.c_str());
        for (harness::Lang mode : parseModes(modeList)) {
            // Draw each class's slots round-robin over the registry
            // workloads of that class that run under this mode.
            std::vector<std::string> names[2];
            for (const auto &w : workloads::registry())
                if (w.supports(mode))
                    names[w.traffic ==
                                  workloads::Traffic::Interactive
                              ? 0
                              : 1]
                        .push_back(w.name);
            for (unsigned cls = 0; cls < 2; ++cls)
                if ((cls == 0 ? inter : batch) > 0 &&
                    names[cls].empty())
                    fatal("loadgen: no %s workloads run under %s",
                          cls == 0 ? "interactive" : "batch",
                          harness::langName(mode));
            size_t next[2] = {0, 0};
            auto push = [&](unsigned cls) {
                const auto &pool = names[cls];
                opt.mix.push_back(makeRequest(
                    mode, pool[next[cls]++ % pool.size()]));
            };
            for (unsigned k = 0; k < inter; ++k)
                push(0);
            for (unsigned k = 0; k < batch; ++k)
                push(1);
        }
    }

    // Per-traffic-class accounting: classify each request by the
    // registry's traffic tag ("other" covers micro:* and unknowns).
    opt.classOf = [](const EvalRequest &req) {
        const workloads::Workload *w = workloads::find(req.program);
        return std::string(
            w ? workloads::trafficName(w->traffic) : "other");
    };

    LoadgenReport report = runLoadgen(opt);
    std::fputs(report.table().c_str(), stdout);

    if (wantStats) {
        // Ask the first endpoint (the proxy when pointed at one;
        // otherwise the first shard).
        Client conn = Client::connect(opt.endpoints.front());
        std::printf("%s\n", conn.stats().c_str());
    }
    return 0;
}
