/**
 * @file
 * interproxy: sharded-cluster front end for interpd (see
 * src/cluster/).
 *
 * Speaks the interpd wire protocol on both sides: clients connect to
 * the proxy exactly as they would to one daemon; every EVAL is
 * consistent-hashed by (mode, program) onto one of the configured
 * interpd shards, answers are demultiplexed back to the issuing
 * client, dead shards are routed around with bounded retries, and
 * STATS returns the cluster-wide aggregate (router counters, per-
 * shard gauges, merged shard histograms).
 *
 * Usage: interproxy --shard SPEC [--shard SPEC ...] [options]
 *   --shard SPEC      one interpd shard's unix socket: unix:PATH or a
 *                     path containing '/' (repeatable)
 *   --socket PATH     front unix socket (default /tmp/interproxy.sock)
 *   --timestamps      prefix logs with monotonic time + thread id
 *
 * The router's retry budget, timeouts, probe period and ring size are
 * the defaults and constants in src/cluster/proxy.hh.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cluster/proxy.hh"
#include "support/logging.hh"

using namespace interp;
using namespace interp::cluster;

namespace {

Proxy *g_proxy = nullptr;

void
onSignal(int)
{
    if (g_proxy)
        g_proxy->stop(); // an atomic store and a pipe write
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: interproxy --shard SPEC [--shard SPEC ...]\n"
        "                  [--socket PATH] [--timestamps]\n"
        "SPEC: unix:PATH or a path containing '/'\n");
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
    ProxyConfig cfg;
    cfg.unixPath = "/tmp/interproxy.sock";
    bool timestamps = false;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--shard")) {
            ShardEndpoint ep;
            if (!server::Endpoint::parse(argValue(argc, argv, i), ep))
                usage();
            ep.name = "s" + std::to_string(cfg.shards.size());
            cfg.shards.push_back(std::move(ep));
        } else if (!std::strcmp(argv[i], "--socket"))
            cfg.unixPath = argValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--timestamps"))
            timestamps = true;
        else
            usage();
    }
    if (cfg.shards.empty())
        usage();

    setLogTimestamps(timestamps);

    Proxy proxy(cfg);
    proxy.start();
    g_proxy = &proxy;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    inform("interproxy: listening on %s", cfg.unixPath.c_str());
    inform("interproxy: %zu shards, %u vnodes, retries %u",
           cfg.shards.size(), kVnodes, cfg.maxRetries);

    proxy.run();
    inform("interproxy: exiting");
    return 0;
}
