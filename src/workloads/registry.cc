#include "workloads/registry.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "support/logging.hh"

namespace interp::workloads {

using harness::Lang;

const char *
trafficName(Traffic t)
{
    return t == Traffic::Interactive ? "interactive" : "batch";
}

std::string
loadProgramFile(const std::string &relative_path)
{
    std::string path =
        std::string(INTERP_PROGRAMS_DIR) + "/" + relative_path;
    std::ifstream in(path);
    if (!in.good())
        fatal("cannot open program source %s", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
composeSource(const std::string &script)
{
    std::string src = loadProgramFile("minic/scriptel.mc");
    const std::string key = "compose.sel";
    size_t at = src.find(key);
    if (at == std::string::npos)
        fatal("scriptel.mc lost its script placeholder");
    while (at != std::string::npos) {
        src.replace(at, key.size(), script);
        at = src.find(key, at + script.size());
    }
    return src;
}

// --- the table ---------------------------------------------------------

namespace {

/** Shorthand builders so the table below stays readable. */
Workload
direct(std::string name, Traffic traffic, bool inputs,
       std::vector<ModeSource> sources)
{
    Workload w;
    w.name = std::move(name);
    w.traffic = traffic;
    w.needsInputs = inputs;
    w.sources = std::move(sources);
    return w;
}

Workload
composed(std::string name, Traffic traffic, std::string script)
{
    // Composed workloads always need inputs: the script itself is a
    // vfs file, installed alongside the standard input set.
    Workload w;
    w.name = std::move(name);
    w.traffic = traffic;
    w.needsInputs = true;
    w.script = std::move(script);
    // The tower's MIPS level: Scriptel compiled for the backend. The
    // same row serves Lang::C in bench_compose (native rung).
    w.sources = {{Lang::Mipsi, "minic/scriptel.mc", 20}};
    return w;
}

/** Captured expected-stdout table (regenerate with capture_goldens). */
struct GoldenRow
{
    const char *name;
    Lang lang;
    const char *expect;
};

const std::vector<GoldenRow> kGoldenRows = {
#include "workloads/goldens.inc"
};

std::vector<Workload>
buildRegistry()
{
    std::vector<Workload> table;

    // --- the paper's Table 2 suite (legacy order keys 0..5) ------------
    table.push_back(direct(
        "des", Traffic::Batch, false,
        {{Lang::C, "minic/des.mc", 0},
         {Lang::Mipsi, "minic/des.mc", 0},
         {Lang::Java, "minic/des.mc", 0},
         {Lang::Perl, "perlish/des.pl", 0},
         {Lang::Tcl, "tclish/des.tcl", 0}}));
    table.push_back(direct("compress", Traffic::Batch, true,
                           {{Lang::Mipsi, "minic/compress.mc", 1}}));
    table.push_back(direct("eqntott", Traffic::Batch, false,
                           {{Lang::Mipsi, "minic/eqntott.mc", 2}}));
    table.push_back(direct("espresso", Traffic::Batch, false,
                           {{Lang::Mipsi, "minic/espresso.mc", 3}}));
    table.push_back(direct("li", Traffic::Batch, false,
                           {{Lang::Mipsi, "minic/li.mc", 4}}));
    table.push_back(direct("asteroids", Traffic::Batch, false,
                           {{Lang::Java, "minic/asteroids.mc", 1}}));
    table.push_back(direct("hanoi", Traffic::Interactive, false,
                           {{Lang::Java, "minic/hanoi_gfx.mc", 2},
                            {Lang::Tcl, "tclish/hanoi.tcl", 5}}));
    table.push_back(direct("javac", Traffic::Batch, true,
                           {{Lang::Java, "minic/javac.mc", 3}}));
    table.push_back(direct("mand", Traffic::Batch, false,
                           {{Lang::Java, "minic/mand.mc", 4}}));
    table.push_back(direct("a2ps", Traffic::Batch, true,
                           {{Lang::Perl, "perlish/a2ps.pl", 1}}));
    table.push_back(direct("plexus", Traffic::Batch, true,
                           {{Lang::Perl, "perlish/plexus.pl", 2}}));
    table.push_back(direct("txt2html", Traffic::Batch, true,
                           {{Lang::Perl, "perlish/txt2html.pl", 3}}));
    table.push_back(direct("weblint", Traffic::Batch, true,
                           {{Lang::Perl, "perlish/weblint.pl", 4}}));
    table.push_back(direct("tcllex", Traffic::Interactive, true,
                           {{Lang::Tcl, "tclish/tcllex.tcl", 1}}));
    table.push_back(direct("tcltags", Traffic::Batch, true,
                           {{Lang::Tcl, "tclish/tcltags.tcl", 2}}));

    // --- the modern spread (ISSUE 10; order keys 10..15) ---------------
    table.push_back(direct(
        "rxmatch", Traffic::Interactive, true,
        {{Lang::Mipsi, "minic/rxmatch.mc", 10},
         {Lang::Java, "minic/rxmatch.mc", 10},
         {Lang::Perl, "perlish/rxmatch.pl", 10},
         {Lang::Tcl, "tclish/rxmatch.tcl", 10}}));
    table.push_back(direct(
        "kanren", Traffic::Batch, false,
        {{Lang::Mipsi, "minic/kanren.mc", 11},
         {Lang::Java, "minic/kanren.mc", 11},
         {Lang::Tcl, "tclish/kanren.tcl", 11}}));
    table.push_back(direct(
        "matmul", Traffic::Batch, false,
        {{Lang::Mipsi, "minic/matmul.mc", 12},
         {Lang::Java, "minic/matmul.mc", 12},
         {Lang::Perl, "perlish/matmul.pl", 12},
         {Lang::Tcl, "tclish/matmul.tcl", 12}}));
    table.push_back(direct(
        "spin", Traffic::Interactive, false,
        {{Lang::Mipsi, "minic/spin.mc", 13},
         {Lang::Java, "minic/spin.mc", 13},
         {Lang::Perl, "perlish/spin.pl", 13},
         {Lang::Tcl, "tclish/spin.tcl", 13}}));

    // --- the composition tower -----------------------------------------
    table.push_back(composed("compose-spin", Traffic::Interactive,
                             "spin.sel"));
    table.push_back(composed("compose-mat", Traffic::Batch, "mat.sel"));

    for (const GoldenRow &row : kGoldenRows)
        for (Workload &w : table)
            if (w.name == row.name)
                w.goldens.push_back({row.lang, row.expect});

    return table;
}

} // namespace

const std::vector<Workload> &
registry()
{
    static const std::vector<Workload> table = buildRegistry();
    return table;
}

const Workload *
find(const std::string &name)
{
    for (const Workload &w : registry())
        if (w.name == name)
            return &w;
    return nullptr;
}

bool
Workload::supports(harness::Lang mode) const
{
    Lang base = harness::modeInfo(mode).baseline;
    for (const ModeSource &s : sources)
        if (s.lang == base)
            return true;
    return false;
}

const std::string *
goldenFor(const Workload &w, harness::Lang mode)
{
    Lang base = harness::modeInfo(mode).baseline;
    for (const Golden &g : w.goldens)
        if (g.lang == base)
            return &g.expect;
    return nullptr;
}

uint64_t
fnv64(const std::string &text)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
fnv64Hex(const std::string &text)
{
    char buf[32];
    snprintf(buf, sizeof buf, "fnv64:%016llx",
             (unsigned long long)fnv64(text));
    return buf;
}

bool
goldenMatches(const Workload &w, harness::Lang mode,
              const std::string &got)
{
    const std::string *expect = goldenFor(w, mode);
    if (!expect)
        return false;
    if (expect->compare(0, 6, "fnv64:") == 0)
        return fnv64Hex(got) == *expect;
    return got == *expect;
}

harness::BenchSpec
specFor(const Workload &w, harness::Lang mode)
{
    harness::BenchSpec spec;
    spec.lang = mode;
    spec.name = w.name;
    spec.needsInputs = w.needsInputs;
    if (w.composed()) {
        spec.source = composeSource(w.script);
        return spec;
    }
    Lang base = harness::modeInfo(mode).baseline;
    for (const ModeSource &s : w.sources) {
        if (s.lang == base) {
            spec.source = loadProgramFile(s.path);
            return spec;
        }
    }
    fatal("workload %s does not run under %s", w.name.c_str(),
          harness::langName(mode));
}

std::vector<harness::BenchSpec>
macroRows()
{
    std::vector<harness::BenchSpec> suite;
    const Lang groups[] = {Lang::C, Lang::Mipsi, Lang::Java, Lang::Perl,
                           Lang::Tcl};
    for (Lang lang : groups) {
        std::vector<std::pair<int, const Workload *>> rows;
        for (const Workload &w : registry())
            for (const ModeSource &s : w.sources)
                if (s.lang == lang)
                    rows.push_back({s.order, &w});
        std::stable_sort(rows.begin(), rows.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (const auto &[order, w] : rows)
            suite.push_back(specFor(*w, lang));
    }
    return suite;
}

// --- suite subsetting --------------------------------------------------

bool
globMatch(const std::string &pattern, const std::string &name)
{
    size_t p = 0, n = 0;
    size_t star = std::string::npos, mark = 0;
    while (n < name.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == name[n])) {
            ++p;
            ++n;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = n;
        } else if (star != std::string::npos) {
            p = star + 1;
            n = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

std::vector<harness::BenchSpec>
filterPrograms(std::vector<harness::BenchSpec> suite,
               const std::string &patterns)
{
    if (patterns.empty())
        return suite;
    std::vector<std::string> globs;
    size_t pos = 0;
    while (pos <= patterns.size()) {
        size_t comma = patterns.find(',', pos);
        if (comma == std::string::npos)
            comma = patterns.size();
        if (comma > pos)
            globs.push_back(patterns.substr(pos, comma - pos));
        pos = comma + 1;
    }
    std::vector<harness::BenchSpec> out;
    for (harness::BenchSpec &spec : suite)
        for (const std::string &g : globs)
            if (globMatch(g, spec.name)) {
                out.push_back(std::move(spec));
                break;
            }
    return out;
}

} // namespace interp::workloads
