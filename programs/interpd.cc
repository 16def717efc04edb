/**
 * @file
 * interpd: the interpreter-as-a-service daemon (see src/server/).
 *
 * Listens on a Unix-domain socket, executes EVAL requests in arrival
 * order on a worker pool, sheds load when the admission queue is
 * full, enforces per-request deadlines, and serves its counters over
 * the STATS verb. Drive it with `loadgen`.
 *
 * Usage: interpd [options]
 *   --socket PATH    unix socket path (default /tmp/interpd.sock)
 *   --workers N      execution threads (default 2)
 *   --queue N        admission queue bound before SHED (default 64)
 *   --record DIR     honor the record-trace flag, tapes into DIR
 *   --max-commands N default command budget per request
 *   --shard-id NAME  identity reported as "shard_id" in STATS
 *   --tierup         promote hot named programs at runtime: baseline
 *                    -> remedy -> superinstructions/inline caches
 *                    -> template-compiled native-code region
 *   --tier-remedy-after N        hotness points before the remedy
 *   --tier-tier2-after N         hotness points before tier-2
 *   --tier-jit-after N           hotness points before the jit tier
 *   --tier-commands-per-point N  commands per hotness point
 *   --tier-decay-every N         halve hotness every N invocations
 *   --timestamps     prefix logs with monotonic time + thread id
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "server/server.hh"
#include "support/logging.hh"

using namespace interp;
using namespace interp::server;

namespace {

Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->stop(); // an atomic store and a pipe write
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: interpd [--socket PATH] [--workers N] [--queue N]\n"
        "               [--record DIR] [--max-commands N]\n"
        "               [--shard-id NAME] [--tierup]\n"
        "               [--tier-remedy-after N] [--tier-tier2-after N]\n"
        "               [--tier-jit-after N]\n"
        "               [--tier-commands-per-point N]\n"
        "               [--tier-decay-every N] [--timestamps]\n");
    std::exit(2);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage();
    return argv[++i];
}

} // namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
    cfg.unixPath = "/tmp/interpd.sock";
    bool timestamps = false;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--socket"))
            cfg.unixPath = argValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--workers"))
            cfg.workers =
                (unsigned)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--queue"))
            cfg.maxQueue = (size_t)std::atol(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--record"))
            cfg.recordDir = argValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--max-commands"))
            cfg.defaultMaxCommands =
                (uint64_t)std::atoll(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--shard-id"))
            cfg.shardId = argValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--tierup"))
            cfg.tier.enabled = true;
        else if (!std::strcmp(argv[i], "--tier-remedy-after"))
            cfg.tier.remedyAfter =
                (uint64_t)std::atoll(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--tier-tier2-after"))
            cfg.tier.tier2After =
                (uint64_t)std::atoll(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--tier-jit-after"))
            cfg.tier.jitAfter =
                (uint64_t)std::atoll(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--tier-commands-per-point"))
            cfg.tier.commandsPerPoint =
                (uint64_t)std::atoll(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--tier-decay-every"))
            cfg.tier.decayEvery =
                (uint64_t)std::atoll(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--timestamps"))
            timestamps = true;
        else
            usage();
    }

    setLogTimestamps(timestamps);

    Server server(cfg);
    server.start();
    g_server = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    inform("interpd: listening on %s", cfg.unixPath.c_str());
    inform("interpd: %u workers, queue bound %zu", cfg.workers,
           cfg.maxQueue);

    server.run();

    ModeCounters totals = server.stats().totals();
    inform("interpd: exiting (accepted %llu, served %llu, shed %llu, "
           "deadline %llu, failed %llu)",
           (unsigned long long)totals[Counter::Accepted],
           (unsigned long long)totals[Counter::Served],
           (unsigned long long)totals[Counter::Shed],
           (unsigned long long)totals[Counter::Deadline],
           (unsigned long long)totals[Counter::Failed]);
    return 0;
}
