/**
 * @file
 * Cluster scaling sweep: one interproxy router in front of 1/2/4/8
 * interpd shards, driven by the closed-loop load generator.
 *
 * Each point brings up an in-process LocalCluster, replays the same
 * mixed-key request set (three execution modes x six catalog micro
 * programs = eighteen routing keys, enough to spread across eight
 * shards), and reports client-observed throughput and p50/p95/p99
 * plus the router's own accounting: per-shard forwarded counts (the
 * balance evidence), retries, reroutes, and shed/error totals. A
 * `direct` baseline runs the identical load straight at a single
 * shard socket, so the proxy's per-request routing cost is the
 * difference between `direct` and the 1-shard proxied point.
 *
 * On a multi-core host the points show capacity scaling; on a 1-core
 * container (this repo's CI) total service capacity is fixed, so the
 * honest claims are (a) balance — forwarded counts per shard stay
 * within a small factor of each other, and (b) non-degradation — the
 * router adds no serialization, so throughput and tail latency stay
 * flat as shards are added. EXPERIMENTS.md documents both readings.
 *
 * `--json [file]` writes BENCH_cluster.json (schema
 * interp-cluster-v1); other knobs below.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/spawn.hh"
#include "server/client.hh"
#include "server/stats.hh"
#include "support/logging.hh"

using namespace interp;
using namespace interp::server;
using Clock = std::chrono::steady_clock;

namespace {

struct Point
{
    std::string label; ///< "direct" or "proxy"
    unsigned shards = 1;
    double wallMs = 0;
    double reqPerSec = 0;
    uint64_t sent = 0, ok = 0, shed = 0, error = 0;
    uint64_t p50 = 0, p95 = 0, p99 = 0;
    uint64_t retries = 0, rerouted = 0;
    std::vector<uint64_t> forwarded; ///< per shard, proxied points
};

struct Options
{
    std::vector<unsigned> shardCounts = {1, 2, 4, 8};
    unsigned clients = 8;
    unsigned requestsPerClient = 40;
    unsigned workersPerShard = 2;
    uint32_t iterations = 1500;
    unsigned repeat = 2; ///< best-of per point
    std::string jsonPath;
};

std::vector<EvalRequest>
requestMix(uint32_t iterations)
{
    const harness::Lang modes[] = {harness::Lang::Mipsi,
                                   harness::Lang::Tcl,
                                   harness::Lang::Java};
    const char *ops[] = {"micro:a=b+c",         "micro:if",
                         "micro:string-concat", "micro:null-proc",
                         "micro:string-split",  "micro:read"};
    std::vector<EvalRequest> mix;
    for (harness::Lang mode : modes) {
        for (const char *op : ops) {
            EvalRequest req;
            req.mode = mode;
            req.kind = ProgramKind::Named;
            req.program = op;
            req.iterations = iterations;
            mix.push_back(std::move(req));
        }
    }
    return mix;
}

/** One loadgen run against @p unixPath; fills throughput/latency. */
void
measureOnce(const Options &opt, const std::string &unixPath, Point &p)
{
    LoadgenOptions lg;
    lg.endpoints = {unixPath};
    lg.clients = opt.clients;
    lg.requestsPerClient = opt.requestsPerClient;
    lg.mix = requestMix(opt.iterations);

    Clock::time_point t0 = Clock::now();
    LoadgenReport report = runLoadgen(lg);
    Clock::time_point t1 = Clock::now();

    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (p.wallMs != 0 && ms >= p.wallMs)
        return; // keep the best repetition
    p.wallMs = ms;
    p.sent = report.all.sent;
    p.ok = report.all.ok;
    p.shed = report.all.shed;
    p.error = report.all.error;
    p.reqPerSec = ms > 0 ? 1000.0 * (double)report.all.sent / ms : 0;
    p.p50 = report.all.percentile(0.50);
    p.p95 = report.all.percentile(0.95);
    p.p99 = report.all.percentile(0.99);
}

/** Router-side accounting for a proxied point. */
void
collectProxyStats(const std::string &proxyPath, Point &p)
{
    Client conn = Client::connectUnix(proxyPath);
    std::string json = conn.stats();
    statsJsonUint(json, "proxy.retries", p.retries);
    statsJsonUint(json, "proxy.rerouted", p.rerouted);
    p.forwarded.assign(p.shards, 0);
    for (unsigned s = 0; s < p.shards; ++s)
        statsJsonUint(json,
                      "shards.s" + std::to_string(s) + ".forwarded",
                      p.forwarded[s]);
}

void
printRow(const Point &p)
{
    std::string balance;
    for (uint64_t f : p.forwarded) {
        if (!balance.empty())
            balance += "/";
        balance += std::to_string(f);
    }
    std::printf("%-7s %6u %9.1f %9.0f %6llu %5llu %8llu %8llu %8llu  %s\n",
                p.label.c_str(), p.shards, p.wallMs, p.reqPerSec,
                (unsigned long long)p.ok, (unsigned long long)p.shed,
                (unsigned long long)p.p50, (unsigned long long)p.p95,
                (unsigned long long)p.p99, balance.c_str());
    std::fflush(stdout);
}

std::string
pointJson(const Point &p)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"label\": \"%s\", \"shards\": %u, \"wall_ms\": %.3f, "
        "\"req_per_sec\": %.1f,\n"
        "     \"sent\": %llu, \"ok\": %llu, \"shed\": %llu, "
        "\"error\": %llu,\n"
        "     \"p50_us\": %llu, \"p95_us\": %llu, \"p99_us\": %llu,\n"
        "     \"retries\": %llu, \"rerouted\": %llu, \"forwarded\": [",
        p.label.c_str(), p.shards, p.wallMs, p.reqPerSec,
        (unsigned long long)p.sent, (unsigned long long)p.ok,
        (unsigned long long)p.shed, (unsigned long long)p.error,
        (unsigned long long)p.p50, (unsigned long long)p.p95,
        (unsigned long long)p.p99, (unsigned long long)p.retries,
        (unsigned long long)p.rerouted);
    std::string out = buf;
    for (size_t i = 0; i < p.forwarded.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(p.forwarded[i]);
    }
    out += "]}";
    return out;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: bench_cluster [--shards N,N,...] [--clients N]\n"
                 "                     [--requests N] [--workers N]\n"
                 "                     [--iterations N] [--repeat N]\n"
                 "                     [--json [file]]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--shards")) {
            opt.shardCounts.clear();
            std::string list = value();
            for (size_t start = 0; start < list.size();) {
                size_t comma = list.find(',', start);
                size_t end =
                    comma == std::string::npos ? list.size() : comma;
                opt.shardCounts.push_back(
                    (unsigned)std::atoi(list.substr(start).c_str()));
                start = end + 1;
            }
        } else if (!std::strcmp(argv[i], "--clients"))
            opt.clients = (unsigned)std::atoi(value());
        else if (!std::strcmp(argv[i], "--requests"))
            opt.requestsPerClient = (unsigned)std::atoi(value());
        else if (!std::strcmp(argv[i], "--workers"))
            opt.workersPerShard = (unsigned)std::atoi(value());
        else if (!std::strcmp(argv[i], "--iterations"))
            opt.iterations = (uint32_t)std::atoi(value());
        else if (!std::strcmp(argv[i], "--repeat"))
            opt.repeat = (unsigned)std::atoi(value());
        else if (!std::strcmp(argv[i], "--json"))
            opt.jsonPath = i + 1 < argc && argv[i + 1][0] != '-'
                               ? argv[++i]
                               : "BENCH_cluster.json";
        else
            usage();
    }
    if (opt.shardCounts.empty() || opt.repeat == 0)
        usage();

    std::printf("interproxy scaling sweep: %u closed-loop clients, "
                "%u reqs/client,\n%u workers/shard, %u iterations, "
                "best of %u\n\n",
                opt.clients, opt.requestsPerClient, opt.workersPerShard,
                opt.iterations, opt.repeat);
    std::printf("%-7s %6s %9s %9s %6s %5s %8s %8s %8s  %s\n", "route",
                "shards", "wall-ms", "req/s", "ok", "shed", "p50us",
                "p95us", "p99us", "forwarded-per-shard");
    std::printf("--------------------------------------------------------"
                "--------------------------\n");

    std::vector<Point> points;

    // Direct baseline: same load straight at one shard, no router.
    {
        cluster::ClusterConfig cc;
        cc.shardCount = 1;
        cc.workersPerShard = opt.workersPerShard;
        cc.maxQueuePerShard = 256;
        cluster::LocalCluster lc(cc);
        lc.start();
        Point p;
        p.label = "direct";
        p.shards = 1;
        for (unsigned r = 0; r < opt.repeat; ++r)
            measureOnce(opt, lc.shardPath(0), p);
        printRow(p);
        points.push_back(std::move(p));
    }

    for (unsigned shards : opt.shardCounts) {
        cluster::ClusterConfig cc;
        cc.shardCount = shards;
        cc.workersPerShard = opt.workersPerShard;
        cc.maxQueuePerShard = 256;
        cluster::LocalCluster lc(cc);
        lc.start();
        Point p;
        p.label = "proxy";
        p.shards = shards;
        for (unsigned r = 0; r < opt.repeat; ++r)
            measureOnce(opt, lc.proxyPath(), p);
        collectProxyStats(lc.proxyPath(), p);
        printRow(p);
        points.push_back(std::move(p));
    }

    std::printf("\nReading the table: `direct` vs the 1-shard `proxy` row "
                "is the router's\nper-request cost; forwarded-per-shard "
                "shows consistent-hash balance across\nthe 18 routing "
                "keys. Capacity scales with shards only when the host "
                "has\ncores to back them (see EXPERIMENTS.md).\n");

    if (!opt.jsonPath.empty()) {
        std::string json = "{\n  \"schema\": \"interp-cluster-v1\",\n";
        char hdr[256];
        std::snprintf(hdr, sizeof hdr,
                      "  \"clients\": %u, \"requests_per_client\": %u, "
                      "\"workers_per_shard\": %u,\n"
                      "  \"iterations\": %u, \"repeat\": %u, "
                      "\"routing_keys\": %zu,\n  \"points\": [\n",
                      opt.clients, opt.requestsPerClient,
                      opt.workersPerShard, opt.iterations, opt.repeat,
                      requestMix(opt.iterations).size());
        json += hdr;
        for (size_t i = 0; i < points.size(); ++i) {
            json += pointJson(points[i]);
            json += i + 1 < points.size() ? ",\n" : "\n";
        }
        json += "  ]\n}\n";
        std::FILE *f = std::fopen(opt.jsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.jsonPath.c_str());
            return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", opt.jsonPath.c_str());
    }
    return 0;
}
