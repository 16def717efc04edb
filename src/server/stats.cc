#include "server/stats.hh"

#include <cinttypes>
#include <cstdio>

namespace interp::server {

// --- LatencyHistogram ------------------------------------------------------

int
LatencyHistogram::bucketOf(uint64_t micros)
{
    if (micros == 0)
        return 0;
    int bit = 63 - __builtin_clzll(micros);
    return bit < kBuckets ? bit : kBuckets - 1;
}

uint64_t
LatencyHistogram::bucketFloor(int i)
{
    return i == 0 ? 0 : 1ull << i;
}

uint64_t
LatencyHistogram::bucketCeil(int i)
{
    // Inclusive upper bound: bucket i holds [2^i, 2^(i+1)), so the
    // largest value that can land in it is 2^(i+1)-1; bucket 0 holds
    // {0, 1}.
    return (1ull << (i + 1)) - 1;
}

void
LatencyHistogram::add(uint64_t micros)
{
    ++buckets_[bucketOf(micros)];
    ++total_;
}

void
LatencyHistogram::mergeFrom(const LatencyHistogram &other)
{
    for (int i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    total_ += other.total_;
}

void
LatencyHistogram::accumulate(int i, uint64_t n)
{
    if (i < 0 || i >= kBuckets)
        return;
    buckets_[i] += n;
    total_ += n;
}

uint64_t
LatencyHistogram::quantile(double q) const
{
    if (total_ == 0)
        return 0;
    uint64_t rank = (uint64_t)(q * (double)(total_ - 1));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        // Report the bucket's inclusive upper bound. The old floor
        // answer systematically under-reported: a p99 landing in
        // [2^k, 2^(k+1)) came back as exactly 2^k — up to 2x below
        // the real tail. The ceiling is conservative the safe way
        // for an SLO (exact_quantile <= quantile() always holds,
        // since the true value lies inside the bucket).
        if (seen > rank)
            return bucketCeil(i);
    }
    return bucketCeil(kBuckets - 1);
}

// --- ServerStats -----------------------------------------------------------

void
ServerStats::note(Counter c, harness::Lang mode)
{
    std::lock_guard<std::mutex> lock(mu);
    ++modes_[(int)mode][c];
}

void
ServerStats::noteLatency(uint64_t queue_us, uint64_t service_us)
{
    std::lock_guard<std::mutex> lock(mu);
    histos_[0].add(queue_us);
    histos_[1].add(service_us);
    histos_[2].add(queue_us + service_us);
}

ModeCounters
ServerStats::totals() const
{
    std::lock_guard<std::mutex> lock(mu);
    ModeCounters sum;
    for (const ModeCounters &m : modes_)
        sum += m;
    return sum;
}

std::string
ServerStats::renderJson(size_t queued_jobs, unsigned idle_workers,
                        const CatalogCounters &catalog,
                        const std::string &shard_id) const
{
    std::lock_guard<std::mutex> lock(mu);
    ModeCounters sum;
    for (const ModeCounters &m : modes_)
        sum += m;
    std::string out = "{";
    if (!shard_id.empty())
        out += "\"shard_id\":\"" + shard_id + "\",";
    appendCounters(out, sum);
    out += ",\"queued_jobs\":" + std::to_string(queued_jobs) +
           ",\"idle_workers\":" + std::to_string(idle_workers) + ',';
    appendCatalog(out, catalog);
    out += ',';
    appendModes(out, modes_, kCounters);
    out += ',';
    appendHistograms(out, histos_);
    out += '}';
    return out;
}

// --- rendering -------------------------------------------------------------

namespace {

void
appendUint(std::string &out, const char *key, uint64_t value)
{
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
}

} // namespace

void
appendCounters(std::string &out, const ModeCounters &c, int count)
{
    for (int i = 0; i < count; ++i) {
        if (i)
            out += ',';
        appendUint(out, kCounterNames[i], c.n[i]);
    }
}

void
appendModes(std::string &out,
            const ModeCounters (&modes)[harness::kNumModes], int count)
{
    out += "\"modes\":{";
    bool first = true;
    for (int i = 0; i < harness::kNumModes; ++i) {
        if (!modes[i][Counter::Accepted])
            continue;
        if (!first)
            out += ',';
        out += '"';
        out += harness::kModes[i].name;
        out += "\":{";
        appendCounters(out, modes[i], count);
        out += '}';
        first = false;
    }
    out += '}';
}

void
appendCatalog(std::string &out, const CatalogCounters &c)
{
    out += "\"catalog\":{";
    for (const CatalogField &f : kCatalogFields) {
        if (&f != kCatalogFields)
            out += ',';
        appendUint(out, f.name, c.*f.field);
    }
    out += '}';
}

void
appendHistogramJson(std::string &out, const char *name,
                    const LatencyHistogram &h)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%" PRIu64 ",\"p50\":%" PRIu64
                  ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64
                  ",\"buckets\":[",
                  name, h.count(), h.quantile(0.50), h.quantile(0.95),
                  h.quantile(0.99));
    out += buf;
    bool first = true;
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
        if (!h.bucket(i))
            continue;
        std::snprintf(buf, sizeof(buf), "%s[%" PRIu64 ",%" PRIu64 "]",
                      first ? "" : ",",
                      LatencyHistogram::bucketFloor(i), h.bucket(i));
        out += buf;
        first = false;
    }
    out += "]}";
}

void
appendHistograms(std::string &out,
                 const LatencyHistogram (&h)[kHistograms])
{
    out += "\"histograms\":{";
    for (int i = 0; i < kHistograms; ++i) {
        if (i)
            out += ',';
        appendHistogramJson(out, kHistogramNames[i], h[i]);
    }
    out += '}';
}

// --- parsing ---------------------------------------------------------------

namespace {

/** One past the JSON value that starts at @p i (an object, array,
 *  string or scalar), or npos when it runs past @p end. */
size_t
skipValue(const std::string &json, size_t i, size_t end)
{
    int depth = 0;
    bool in_string = false;
    for (; i < end; ++i) {
        char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
                if (depth == 0)
                    return i + 1;
            }
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (depth == 0)
                return i; // end of an enclosing object: scalar done
            if (--depth == 0)
                return i + 1;
        } else if (c == ',' && depth == 0) {
            return i;
        }
    }
    return depth == 0 && !in_string ? end : std::string::npos;
}

/**
 * Narrow [begin,end) — an object — to the value of its member @p key.
 * Only the object's own keys match: a nested object's members are
 * skipped whole, so "x" never finds "a.x".
 */
bool
member(const std::string &json, size_t &begin, size_t &end,
       const std::string &key)
{
    if (begin >= end || json[begin] != '{')
        return false;
    size_t i = begin + 1;
    while (i < end && json[i] == '"') {
        size_t close = json.find('"', i + 1);
        if (close == std::string::npos || close + 1 >= end ||
            json[close + 1] != ':')
            return false;
        size_t value = close + 2;
        size_t value_end = skipValue(json, value, end);
        if (value_end == std::string::npos)
            return false;
        if (json.compare(i + 1, close - i - 1, key) == 0) {
            begin = value;
            end = value_end;
            return true;
        }
        i = value_end < end && json[value_end] == ',' ? value_end + 1
                                                       : end;
    }
    return false;
}

/** The [begin,end) window of the value at dotted @p path. */
bool
resolve(const std::string &json, const std::string &path,
        size_t &begin, size_t &end)
{
    begin = 0;
    end = json.size();
    size_t seg = 0;
    for (;;) {
        size_t dot = path.find('.', seg);
        if (!member(json, begin, end,
                    path.substr(seg, dot == std::string::npos
                                         ? std::string::npos
                                         : dot - seg)))
            return false;
        if (dot == std::string::npos)
            return true;
        seg = dot + 1;
    }
}

/** Parse the unsigned integer at json[i] (advancing @p i). */
bool
parseUint(const std::string &json, size_t &i, size_t end,
          uint64_t &value)
{
    if (i >= end || json[i] < '0' || json[i] > '9')
        return false;
    value = 0;
    while (i < end && json[i] >= '0' && json[i] <= '9')
        value = value * 10 + (uint64_t)(json[i++] - '0');
    return true;
}

} // namespace

bool
statsJsonUint(const std::string &json, const std::string &path,
              uint64_t &out)
{
    size_t begin = 0, end = 0;
    return resolve(json, path, begin, end) &&
           parseUint(json, begin, end, out);
}

bool
statsJsonHistogram(const std::string &json, const std::string &path,
                   LatencyHistogram &out)
{
    size_t i = 0, end = 0;
    if (!resolve(json, path + ".buckets", i, end) || json[i] != '[')
        return false;
    ++i;
    while (i < end && json[i] != ']') {
        if (json[i] == ',') {
            ++i;
            continue;
        }
        if (json[i] != '[')
            return false;
        ++i;
        uint64_t floor = 0, count = 0;
        if (!parseUint(json, i, end, floor) || i >= end || json[i] != ',')
            return false;
        ++i;
        if (!parseUint(json, i, end, count) || i >= end || json[i] != ']')
            return false;
        ++i;
        out.accumulate(LatencyHistogram::bucketOf(floor), count);
    }
    return i < end && json[i] == ']';
}

} // namespace interp::server
