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
 *   --shard SPEC      one interpd shard: unix:PATH, tcp:PORT, a bare
 *                     path, or a bare loopback port (repeatable)
 *   --socket PATH     front unix socket (default /tmp/interproxy.sock)
 *   --tcp PORT        also listen on 127.0.0.1:PORT (0 = ephemeral)
 *   --vnodes N        virtual nodes per shard on the ring (default 64)
 *   --retries N       re-dispatch budget per request (default 2)
 *   --probe-ms N      health-probe period per up shard (default 250)
 *   --probe-misses N  missed probes before a shard is down (default 2)
 *   --forward-ms N    per-forward reply deadline (default 30000)
 *   --backoff-ms N    initial reconnect backoff (default 50)
 *   --max-inflight N  per-shard in-flight cap (default 1024)
 *   --timestamps      prefix logs with monotonic time + thread id
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
        "                  [--socket PATH] [--tcp PORT] [--vnodes N]\n"
        "                  [--retries N] [--probe-ms N]\n"
        "                  [--probe-misses N] [--forward-ms N]\n"
        "                  [--backoff-ms N] [--max-inflight N]\n"
        "                  [--timestamps]\n");
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
            std::string spec = argValue(argc, argv, i);
            cfg.shards.push_back(parseEndpoint(
                spec, "s" + std::to_string(cfg.shards.size())));
        } else if (!std::strcmp(argv[i], "--socket"))
            cfg.unixPath = argValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--tcp"))
            cfg.tcpPort = std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--vnodes"))
            cfg.vnodes = (unsigned)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--retries"))
            cfg.maxRetries =
                (uint32_t)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--probe-ms"))
            cfg.probeIntervalMs =
                (uint32_t)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--probe-misses"))
            cfg.probeMissLimit =
                (uint32_t)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--forward-ms"))
            cfg.forwardTimeoutMs =
                (uint32_t)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--backoff-ms"))
            cfg.connectBackoffMs =
                (uint32_t)std::atoi(argValue(argc, argv, i));
        else if (!std::strcmp(argv[i], "--max-inflight"))
            cfg.maxInflightPerShard =
                (size_t)std::atol(argValue(argc, argv, i));
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

    if (!cfg.unixPath.empty())
        inform("interproxy: listening on %s", cfg.unixPath.c_str());
    if (proxy.tcpPort() >= 0)
        inform("interproxy: listening on 127.0.0.1:%d",
               proxy.tcpPort());
    inform("interproxy: %zu shards, %u vnodes, retries %u",
           cfg.shards.size(), cfg.vnodes, cfg.maxRetries);

    proxy.run();
    inform("interproxy: exiting");
    return 0;
}
