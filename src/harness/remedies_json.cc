#include "harness/remedies_json.hh"

#include <cstdio>

namespace interp::harness {

bool
writeRemediesJson(const std::string &path,
                  const std::vector<std::string> &rows)
{
    if (path.empty())
        return true;
    std::string doc = "{\n  \"schema\": \"interp-remedies-v1\",\n"
                      "  \"pairs\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        doc += i ? ",\n    " : "    ";
        doc += rows[i];
    }
    doc += "\n  ]\n}\n";

    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f && std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (f && std::fclose(f) != 0)
        ok = false;
    if (ok)
        std::fprintf(stderr, "wrote %zu rows into %s\n", rows.size(),
                     path.c_str());
    else
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

} // namespace interp::harness
