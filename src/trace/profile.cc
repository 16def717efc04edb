#include "trace/profile.hh"

#include <algorithm>

namespace interp::trace {

void
Profile::onBatch(const BundleBatch &batch)
{
    // Iterate the SoA columns directly. Consecutive bundles almost
    // always share their attribution (category, flags, command) — an
    // interpreter emits long runs inside one command phase — so the
    // loop collapses each run into one accountRun() call whose count
    // is a simple vectorizable sum over the count column. The taken
    // bit is branch outcome, not attribution, so it is masked out of
    // the run key.
    const uint32_t n = batch.size();
    const uint32_t *cnt = batch.countCol();
    const uint8_t *cls_cat = batch.clsCatCol();
    const uint8_t *flags = batch.flagsCol();
    const CommandId *cmd = batch.commandCol();
    constexpr uint8_t attr_mask = (uint8_t)~BundleBatch::kTakenBit;

    uint32_t i = 0;
    while (i != n) {
        uint8_t cat_bits = (uint8_t)(cls_cat[i] >> BundleBatch::kCatShift);
        uint8_t f = (uint8_t)(flags[i] & attr_mask);
        CommandId c = cmd[i];
        uint64_t sum = cnt[i];
        uint32_t run = i + 1;
        while (run != n &&
               (uint8_t)(cls_cat[run] >> BundleBatch::kCatShift) ==
                   cat_bits &&
               (uint8_t)(flags[run] & attr_mask) == f && cmd[run] == c) {
            sum += cnt[run];
            ++run;
        }
        accountRun((Category)cat_bits, f, c, sum);
        i = run;
    }
}

double
Profile::fetchDecodePerCommand() const
{
    return totalCommands ? (double)fetchDecodeInsts() / totalCommands : 0;
}

double
Profile::executePerCommand() const
{
    return totalCommands ? (double)executeInsts() / totalCommands : 0;
}

double
Profile::memModelCostPerAccess() const
{
    return memAccesses ? (double)memInsts / memAccesses : 0;
}

double
Profile::memModelFraction() const
{
    uint64_t base = fetchDecodeInsts() + executeInsts();
    return base ? (double)memInsts / base : 0;
}

std::vector<std::pair<CommandId, CommandStats>>
Profile::byExecuteInsts() const
{
    std::vector<std::pair<CommandId, CommandStats>> out;
    for (size_t i = 0; i < cmds.size(); ++i)
        if (cmds[i].retired || cmds[i].execute)
            out.emplace_back((CommandId)i, cmds[i]);
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second.execute > b.second.execute;
    });
    return out;
}

double
Profile::cumulativeExecuteShare(size_t top_n) const
{
    auto sorted = byExecuteInsts();
    uint64_t total = executeInsts();
    if (total == 0)
        return 0;
    uint64_t covered = 0;
    for (size_t i = 0; i < sorted.size() && i < top_n; ++i)
        covered += sorted[i].second.execute;
    return (double)covered / (double)total;
}

} // namespace interp::trace
