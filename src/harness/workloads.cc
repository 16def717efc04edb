#include "harness/workloads.hh"

#include <sstream>
#include <utility>
#include <vector>

#include "support/rng.hh"
#include "support/strutil.hh"
#include "workloads/registry.hh"

namespace interp::harness {

namespace {

const char *kWords[] = {
    "the", "interpreter", "fetches", "decodes", "and", "executes",
    "one", "virtual", "command", "per", "trip", "through", "its",
    "main", "loop", "performance", "depends", "on", "cache", "memory",
    "model", "native", "library", "overhead", "of", "each",
};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

std::string
randomIdent(Rng &rng)
{
    static const char *names[] = {"alpha", "beta", "gamma", "delta",
                                  "count", "total", "index", "value",
                                  "limit", "accum", "left", "right"};
    return names[rng.below(12)];
}

} // namespace

// --- execution-mode selection ------------------------------------------

std::vector<BenchSpec>
withModes(std::vector<BenchSpec> suite, ModeSet mode)
{
    if (mode == ModeSet::Baseline)
        return suite;
    size_t base_rows = suite.size();
    std::vector<BenchSpec> out = std::move(suite);
    for (size_t i = 0; i < base_rows; ++i) {
        Lang target =
            modeAtTier(out[i].lang, mode == ModeSet::Jit ? 3 : 1);
        if (target == out[i].lang)
            continue; // no such mode for this language
        BenchSpec copy = out[i];
        copy.lang = target;
        out.push_back(std::move(copy));
    }
    if (mode == ModeSet::Remedies || mode == ModeSet::Jit)
        out.erase(out.begin(), out.begin() + (ptrdiff_t)base_rows);
    return out;
}

std::string
compressInput(size_t approx_bytes)
{
    Rng rng(101);
    std::string out;
    while (out.size() < approx_bytes) {
        out += kWords[rng.below(kNumWords)];
        out.push_back(rng.below(8) == 0 ? '\n' : ' ');
    }
    return out;
}

std::string
cc1Input(size_t statements)
{
    Rng rng(202);
    std::string out;
    for (size_t i = 0; i < statements; ++i) {
        out += randomIdent(rng) + " = ";
        int terms = 2 + (int)rng.below(4);
        for (int t = 0; t < terms; ++t) {
            if (t)
                out += rng.below(2) ? " + " : " * ";
            if (rng.below(3) == 0)
                out += "(" + std::to_string(rng.below(100)) + " + " +
                       randomIdent(rng) + ")";
            else if (rng.below(2))
                out += std::to_string(rng.below(1000));
            else
                out += randomIdent(rng);
        }
        out += " ;\n";
    }
    return out;
}

std::string
javacInput(size_t methods)
{
    Rng rng(303);
    std::string out;
    for (size_t m = 0; m < methods; ++m) {
        out += "method" + std::to_string(m) + " {\n";
        size_t stmts = 3 + rng.below(6);
        for (size_t i = 0; i < stmts; ++i) {
            out += "  " + randomIdent(rng) + " = " +
                   std::to_string(rng.below(500));
            int terms = (int)rng.below(3);
            for (int t = 0; t < terms; ++t)
                out += (rng.below(2) ? " + " : " * ") + randomIdent(rng);
            out += " ;\n";
        }
        out += "}\n";
    }
    return out;
}

std::string
txt2htmlInput(size_t lines)
{
    Rng rng(404);
    std::string out;
    for (size_t i = 0; i < lines; ++i) {
        if (i % 17 == 0) {
            out += "== Section " + std::to_string(i / 17) + " ==\n";
            continue;
        }
        if (i % 11 == 0) {
            out += "\n";
            continue;
        }
        if (i % 7 == 0) {
            out += "- bullet item " + std::to_string(i) + "\n";
            continue;
        }
        std::string line;
        int words = 6 + (int)rng.below(8);
        for (int w = 0; w < words; ++w) {
            if (w)
                line += " ";
            if (rng.below(20) == 0)
                line += "*" + std::string(kWords[rng.below(kNumWords)]) +
                        "*";
            else if (rng.below(25) == 0)
                line += "http://host/doc" + std::to_string(rng.below(40));
            else if (rng.below(30) == 0)
                line += "_" + std::string(kWords[rng.below(kNumWords)]) +
                        "_";
            else
                line += kWords[rng.below(kNumWords)];
        }
        out += line + "\n";
    }
    return out;
}

std::string
weblintInput(size_t lines)
{
    Rng rng(505);
    std::string out = "<html>\n<head><title>test page</title></head>\n"
                      "<body>\n";
    for (size_t i = 0; i < lines; ++i) {
        switch (rng.below(8)) {
          case 0:
            out += "<h2>heading " + std::to_string(i) + "</h2>\n";
            break;
          case 1:
            out += "<p>text with <b>bold</b> and <i>italic</i></p>\n";
            break;
          case 2:
            out += "<ul><li>item</li><li>item two</li></ul>\n";
            break;
          case 3:
            // Seeded errors: missing alt, bad close, unknown element.
            if (rng.below(2))
                out += "<img src=\"x.gif\">\n";
            else
                out += "<img src=\"y.gif\" alt=\"y\">\n";
            break;
          case 4:
            if (rng.below(3) == 0)
                out += "<blink>nonstandard</blink>\n";
            else
                out += "<p>plain paragraph</p>\n";
            break;
          case 5:
            if (rng.below(3) == 0)
                out += "<a>anchor without href</a>\n";
            else
                out += "<a href=\"u\">ok link</a>\n";
            break;
          case 6:
            if (rng.below(4) == 0)
                out += "<p>mismatched <b>close</i></p>\n";
            else
                out += "<p>more <b>text</b></p>\n";
            break;
          default:
            out += "plain text line " + std::to_string(i) + "\n";
            break;
        }
    }
    out += "</body>\n</html>\n";
    return out;
}

std::string
a2psInput(size_t lines)
{
    Rng rng(606);
    std::string out;
    for (size_t i = 0; i < lines; ++i) {
        std::string line;
        if (i % 9 == 0)
            line += "\tindented(with) \\specials\t";
        int words = 4 + (int)rng.below(i % 13 == 0 ? 30 : 8);
        for (int w = 0; w < words; ++w) {
            if (w)
                line += " ";
            line += kWords[rng.below(kNumWords)];
        }
        out += line + "\n";
    }
    return out;
}

std::string
plexusInput(size_t requests)
{
    Rng rng(707);
    static const char *paths[] = {"/", "/index.html", "/about",
                                  "/paper.ps", "/data/table1",
                                  "/data/table2", "/missing",
                                  "/also/missing"};
    static const char *agents[] = {"Mosaic/2.6", "Lynx/2.4",
                                   "Navigator/2.0", "Fetcher/0.1"};
    std::string out;
    for (size_t i = 0; i < requests; ++i) {
        const char *method =
            rng.below(12) == 0 ? "POST" : (rng.below(5) == 0 ? "HEAD"
                                                             : "GET");
        std::string path = paths[rng.below(8)];
        if (rng.below(4) == 0)
            path += "?q=" + std::to_string(rng.below(100));
        out += std::string(method) + " " + path + " HTTP/1.0\n";
        out += "User-Agent: " + std::string(agents[rng.below(4)]) + "\n";
        out += "Host: www.cs.washington.edu\n";
        out += "\n";
    }
    return out;
}

std::string
tcllexInput(size_t lines)
{
    Rng rng(808);
    std::string out;
    for (size_t i = 0; i < lines; ++i) {
        std::string line;
        switch (rng.below(4)) {
          case 0:
            line = "int " + randomIdent(rng) + " = " +
                   std::to_string(rng.below(100)) + " ;";
            break;
          case 1:
            line = "while ( " + randomIdent(rng) + " < " +
                   std::to_string(rng.below(64)) + " ) {";
            break;
          case 2:
            line = randomIdent(rng) + " = " + randomIdent(rng) + " + " +
                   randomIdent(rng) + " * 3 ;";
            break;
          default:
            line = "return " + randomIdent(rng) + " ;";
            break;
        }
        out += line + "\n";
    }
    return out;
}

std::string
tcltagsInput(size_t lines)
{
    Rng rng(909);
    std::string out;
    for (size_t i = 0; i < lines; ++i) {
        switch (rng.below(5)) {
          case 0:
            out += "proc handler" + std::to_string(i) +
                   " {a b} {\n";
            break;
          case 1:
            out += "set config" + std::to_string(rng.below(60)) + " " +
                   std::to_string(rng.below(1000)) + "\n";
            break;
          case 2:
            out += "    " + randomIdent(rng) + " body line\n";
            break;
          case 3:
            out += "}\n";
            break;
          default:
            out += "# comment " + std::to_string(i) + "\n";
            break;
        }
    }
    return out;
}

std::string
readFileInput()
{
    Rng rng(1001);
    std::string out;
    while (out.size() < 4096)
        out += kWords[rng.below(kNumWords)] + std::string(" ");
    out.resize(4096);
    return out;
}

std::string
rxmatchInput(size_t lines)
{
    // Lines mixing the four probed patterns: "the" (plain substring),
    // "^set" (anchored head), "fe.*ch" (star backtracking), "ing$"
    // (anchored tail). Deterministic so goldens are stable.
    static const char *extras[] = {"set",      "running",  "parsing",
                                   "matching", "scanning", "string",
                                   "batch",    "fetch",    "filing"};
    Rng rng(0xc0de5eedu + (uint32_t)lines);
    std::ostringstream out;
    for (size_t i = 0; i < lines; ++i) {
        size_t words = 3 + rng.below(5);
        if (rng.below(4) == 0)
            out << "set ";
        for (size_t j = 0; j < words; ++j) {
            if (rng.below(3) == 0)
                out << extras[rng.below(9)];
            else
                out << kWords[rng.below(kNumWords)];
            if (j + 1 < words)
                out << ' ';
        }
        if (rng.below(3) == 0)
            out << " closing";
        out << '\n';
    }
    return out.str();
}

void
installAllInputs(vfs::FileSystem &fs)
{
    // Every generator is deterministic, so the contents are built once
    // per process and each run gets its own copies.
    static const std::vector<std::pair<std::string, std::string>> inputs = {
        {"compress.in", compressInput(5000)},
        {"cc1.in", cc1Input(700)},
        {"javac.in", javacInput(120)},
        {"txt2html.in", txt2htmlInput(260)},
        {"weblint.in", weblintInput(240)},
        {"a2ps.in", a2psInput(220)},
        {"requests.in", plexusInput(90)},
        {"tcllex.in", tcllexInput(48)},
        {"tcltags.in", tcltagsInput(340)},
        {"read4k.in", readFileInput()},
        {"rxmatch.in", rxmatchInput(40)},
        // Composition-tower scripts: the inner interpreter reads its
        // program from the vfs like any other input file.
        {"spin.sel", workloads::loadProgramFile("scriptel/spin.sel")},
        {"mat.sel", workloads::loadProgramFile("scriptel/mat.sel")},
    };
    for (const auto &[path, contents] : inputs)
        fs.writeFile(path, contents);
}

} // namespace interp::harness
