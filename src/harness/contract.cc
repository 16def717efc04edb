#include "harness/contract.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "support/strutil.hh"

namespace interp::harness {

using trace::CommandStats;

std::vector<std::string>
contractBreaks(const Measurement &base, const Measurement &rung)
{
    std::vector<std::string> broken;
    if (base.failed || rung.failed) {
        broken.push_back("run failed: " +
                         (base.failed ? base.error : rung.error));
        return broken;
    }
    auto check = [&broken](bool holds, const char *clause) {
        if (!holds)
            broken.push_back(clause);
    };
    auto compare = [&broken](bool holds, const char *clause,
                             uint64_t mine, uint64_t theirs) {
        if (!holds)
            broken.push_back(format("%s: %llu against the baseline's %llu",
                                    clause, (unsigned long long)mine,
                                    (unsigned long long)theirs));
    };
    // Per command; a command one run never retired counts as zeros.
    auto perCommand = [&](const char *clause, auto same) {
        const auto &bc = base.profile.perCommand();
        const auto &rc = rung.profile.perCommand();
        for (size_t i = 0; i < std::max(bc.size(), rc.size()); ++i) {
            CommandStats x = i < bc.size() ? bc[i] : CommandStats{};
            CommandStats y = i < rc.size() ? rc[i] : CommandStats{};
            if (!same(x, y)) {
                broken.push_back(format(
                    "per command, %s: not at command %zu (%s)", clause, i,
                    i < rung.commandNames.size()
                        ? rung.commandNames[i].c_str()
                        : "?"));
                return;
            }
        }
    };
    int tier = modeInfo(rung.lang).tier;
    const trace::Profile &b = base.profile;
    const trace::Profile &r = rung.profile;

    // Every rung: what the program does is the baseline's.
    check(base.finished && rung.finished, "both runs finished");
    compare(rung.commands == base.commands, "the same virtual commands",
            rung.commands, base.commands);
    check(rung.commandNames == base.commandNames, "the same command names");
    check(rung.stdoutText == base.stdoutText, "the same stdout");
    perCommand("the same retired count",
               [](auto &x, auto &y) { return x.retired == y.retired; });
    perCommand("the same native-lib count",
               [](auto &x, auto &y) { return x.nativeLib == y.nativeLib; });
    compare(r.fetchDecodeInsts() <= b.fetchDecodeInsts(),
            "a fetch/decode total no larger", r.fetchDecodeInsts(),
            b.fetchDecodeInsts());

    // What stays of execute: all of it at tier 1, all but the §3.3
    // memory-model subset above it. Per command, and in total, which
    // also counts what is charged outside every command (a rung's
    // translation charged to Execute before the first command).
    auto kept = [tier](uint64_t execute, uint64_t mem_model) {
        return tier == 1 ? execute : execute - mem_model;
    };
    perCommand(tier == 1 ? "the same execute count"
                         : "the same execute - memModel",
               [&kept](auto &x, auto &y) {
                   return kept(x.execute, x.memModel) ==
                          kept(y.execute, y.memModel);
               });
    uint64_t kept_base = kept(b.executeInsts(), b.memModelInsts());
    uint64_t kept_rung = kept(r.executeInsts(), r.memModelInsts());
    compare(kept_rung == kept_base,
            tier == 1 ? "the same execute total"
                      : "the same execute - memModel total",
            kept_rung, kept_base);
    // Tier 3 charges its stencil glue to the command whose body runs,
    // so fetch/decode moves between command rows there by design.
    if (tier <= 2)
        perCommand("no more fetch/decode", [](auto &x, auto &y) {
            return y.fetchDecode <= x.fetchDecode;
        });
    if (tier == 1) {
        compare(r.fetchDecodeInsts() < b.fetchDecodeInsts(),
                "a fetch/decode total strictly smaller",
                r.fetchDecodeInsts(), b.fetchDecodeInsts());
        auto inCommands = [](const trace::Profile &p) {
            uint64_t sum = 0;
            for (const CommandStats &c : p.perCommand())
                sum += c.fetchDecode;
            return sum;
        };
        compare(inCommands(r) < inCommands(b),
                "a fetch/decode sum over the commands strictly smaller",
                inCommands(r), inCommands(b));
    }
    if (tier >= 2)
        compare(r.memModelInsts() <= b.memModelInsts(),
                "a memModel total no larger", r.memModelInsts(),
                b.memModelInsts());
    // The one-shot translation (quickening, compiling, stencil
    // emission) is charged to Precompile, never to execute.
    if (tier != 2)
        compare(r.precompileInsts() > b.precompileInsts(),
                "a larger Precompile total", r.precompileInsts(),
                b.precompileInsts());
    return broken;
}

std::vector<std::string>
ladderTotalsBreaks(const std::vector<Measurement> &rows)
{
    // Per (language, tier): the rungs' total and their baselines'.
    std::map<std::pair<Lang, int>, std::pair<uint64_t, uint64_t>> sums;
    const Measurement *base = nullptr;
    for (const Measurement &row : rows) {
        int tier = modeInfo(row.lang).tier;
        if (tier == 0)
            base = &row;
        if (tier < 2 || !base)
            continue;
        auto cost = [tier](const trace::Profile &p) {
            return p.memModelInsts() +
                   (tier == 3 ? p.fetchDecodeInsts() : 0);
        };
        auto &[rung_sum, base_sum] = sums[{base->lang, tier}];
        rung_sum += cost(row.profile);
        base_sum += cost(base->profile);
    }
    std::vector<std::string> broken;
    for (const auto &[key, sum] : sums)
        if (sum.first >= sum.second)
            broken.push_back(format(
                "%s tier-%d %s total strictly smaller: %llu against the "
                "baselines' %llu",
                langName(key.first), key.second,
                key.second == 3 ? "fetch/decode + memModel" : "memModel",
                (unsigned long long)sum.first,
                (unsigned long long)sum.second));
    return broken;
}

} // namespace interp::harness
