#include "cluster/stats.hh"

#include <cinttypes>
#include <cstdio>

namespace interp::cluster {

using server::LatencyHistogram;
using server::ModeCounters;

std::string
ClusterStats::renderJson(const std::vector<ShardGauges> &shards,
                         const std::string &merged_object) const
{
    ModeCounters sum;
    for (const ModeCounters &m : modes_)
        sum += m;
    uint64_t up = 0, degraded = 0;
    for (const ShardGauges &g : shards) {
        if (std::string("up") == g.state)
            ++up;
        else
            ++degraded;
    }

    std::string out = "{\"proxy\":{";
    server::appendCounters(out, sum, server::kOutcomeCounters);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"forwarded\":%" PRIu64 ",\"retries\":%" PRIu64
                  ",\"rerouted\":%" PRIu64
                  ",\"shard_failures\":%" PRIu64
                  ",\"late_replies\":%" PRIu64
                  ",\"shards_up\":%" PRIu64 ",\"degraded\":%" PRIu64,
                  forwarded_, retries_, rerouted_, shardFailures_,
                  lateReplies_, up, degraded);
    out += buf;
    out += "},";
    server::appendModes(out, modes_, server::kOutcomeCounters);

    out += ",\"mode_latency_us\":{";
    bool first = true;
    for (int i = 0; i < harness::kNumModes; ++i) {
        if (!latency_[i].count())
            continue;
        if (!first)
            out += ',';
        server::appendHistogramJson(out, harness::kModes[i].name,
                                    latency_[i]);
        first = false;
    }
    out += '}';

    out += ",\"shards\":{";
    first = true;
    for (const ShardGauges &g : shards) {
        if (!first)
            out += ',';
        out += '"';
        out += g.name;
        out += "\":{\"state\":\"";
        out += g.state;
        out += '"';
        std::snprintf(
            buf, sizeof(buf),
            ",\"inflight\":%zu,\"forwarded\":%" PRIu64
            ",\"ok\":%" PRIu64 ",\"shed\":%" PRIu64
            ",\"deadline\":%" PRIu64 ",\"error\":%" PRIu64
            ",\"down_events\":%" PRIu64 ",\"reconnects\":%" PRIu64
            ",\"probe_failures\":%" PRIu64
            ",\"late_replies\":%" PRIu64 "}",
            g.inflight, g.forwarded, g.ok, g.shed, g.deadline, g.error,
            g.downEvents, g.reconnects, g.probeFailures,
            g.lateReplies);
        out += buf;
        first = false;
    }
    out += '}';

    out += ",\"merged\":";
    out += merged_object.empty() ? "{}" : merged_object;
    out += '}';
    return out;
}

std::string
mergeShardStats(const std::vector<std::string> &shard_jsons)
{
    using server::statsJsonUint;
    ModeCounters sum;
    server::CatalogCounters catalog;
    LatencyHistogram histos[server::kHistograms];
    uint64_t reporting = 0;

    for (const std::string &json : shard_jsons) {
        uint64_t v = 0;
        // A shard document missing its top-level counters is not a
        // ServerStats rendering at all; skip it entirely.
        if (!statsJsonUint(json, server::kCounterNames[0], v))
            continue;
        ++reporting;
        for (int i = 0; i < server::kCounters; ++i)
            if (statsJsonUint(json, server::kCounterNames[i], v))
                sum.n[i] += v;
        for (const server::CatalogField &f : server::kCatalogFields)
            if (statsJsonUint(json, std::string("catalog.") + f.name, v))
                catalog.*f.field += v;
        for (int i = 0; i < server::kHistograms; ++i)
            server::statsJsonHistogram(
                json,
                std::string("histograms.") + server::kHistogramNames[i],
                histos[i]);
    }

    std::string out =
        "{\"shards_reporting\":" + std::to_string(reporting) + ",";
    server::appendCounters(out, sum);
    out += ',';
    server::appendCatalog(out, catalog);
    out += ',';
    server::appendHistograms(out, histos);
    out += '}';
    return out;
}

} // namespace interp::cluster
