#include "harness/remedies_json.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace interp::harness {

namespace {

std::string
slurp(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/** The tier a row object belongs to: its "tier" value, else 1. */
int
tierOf(const std::string &row)
{
    size_t at = row.find("\"tier\": ");
    return at == std::string::npos ? 1 : std::atoi(row.c_str() + at + 8);
}

/** The row objects of @p doc's `pairs` array, in document order. */
std::vector<std::string>
rowsOf(const std::string &doc)
{
    std::vector<std::string> rows;
    size_t at = doc.find("\"pairs\": [");
    if (at == std::string::npos)
        return rows;
    int depth = 0;
    bool in_string = false;
    size_t start = 0;
    for (size_t i = at + 10; i < doc.size(); ++i) {
        char c = doc[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            if (depth++ == 0)
                start = i;
        } else if (c == '}') {
            if (--depth == 0)
                rows.push_back(doc.substr(start, i + 1 - start));
        } else if (c == ']' && depth == 0) {
            break;
        }
    }
    return rows;
}

} // namespace

std::string
parseJsonPath(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            return i + 1 < argc ? argv[i + 1] : "BENCH_remedies.json";
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            return argv[i] + 7;
    }
    return "";
}

bool
writeRemediesTier(const std::string &path, int tier,
                  const std::vector<std::string> &rows)
{
    if (path.empty())
        return true;
    std::vector<std::string> kept = rowsOf(slurp(path));
    std::string doc = "{\n  \"schema\": \"interp-remedies-v1\",\n"
                      "  \"pairs\": [\n";
    bool first = true;
    for (int t = 1; t <= 3; ++t) {
        for (const std::string &row : t == tier ? rows : kept) {
            if (t != tier && tierOf(row) != t)
                continue;
            doc += first ? "    " : ",\n    ";
            doc += row;
            first = false;
        }
    }
    doc += "\n  ]\n}\n";

    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f && std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (f && std::fclose(f) != 0)
        ok = false;
    if (ok)
        std::fprintf(stderr, "wrote %zu tier-%d rows into %s\n",
                     rows.size(), tier, path.c_str());
    else
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

} // namespace interp::harness
