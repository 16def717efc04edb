#include "tier/tier.hh"

namespace interp::tier {

using harness::Lang;

TierManager::Entry &
TierManager::entryFor(Lang mode, const std::string &program)
{
    return entries[std::string(harness::langName(mode)) + "/" + program];
}

TierPlan
TierManager::plan(Lang mode, const std::string &program)
{
    TierPlan out;
    out.lang = mode;
    if (!cfg.enabled || harness::isRemedy(mode))
        return out;
    auto rung = [mode](int level) {
        return level == 0 ? mode : harness::rungOf(mode, level);
    };
    if (rung(1) == mode)
        return out; // no ladder for this mode (C)

    std::lock_guard<std::mutex> lock(mu);
    Entry &e = entryFor(mode, program);

    ++e.invocations;
    ++e.hotness;
    if (cfg.decayEvery && e.invocations % cfg.decayEvery == 0)
        e.hotness -= e.hotness / 2;

    int target = e.hotness >= cfg.jitAfter     ? 3
                 : e.hotness >= cfg.tier2After  ? 2
                 : e.hotness >= cfg.remedyAfter ? 1
                                                : 0;
    // Walk down from the target to the first level this request can
    // run. A level whose mode repeats the one below is no rung of its
    // own. A rung that runs through an artifact runs once the
    // artifact is published; until then exactly one request (the one
    // that claims the rung) builds it in-run, and everyone else runs
    // the level below.
    for (; target > 0; --target) {
        Lang l = rung(target);
        if (l == rung(target - 1))
            continue;
        if (!harness::modeInfo(l).artifact)
            break;
        Rung &r = e.rungs[target];
        if (harness::present(r.artifact)) {
            out.tier.artifact = r.artifact;
            break;
        }
        if (r.building.expired()) {
            // The rung stays claimed while any copy of the hook lives,
            // so a builder that ends without publishing (an error, a
            // deadline) hands the rung back by dropping it.
            auto claim = std::make_shared<char>();
            r.building = claim;
            out.tier.publish = [this, &r, claim](harness::Artifact a) {
                publish(r, std::move(a));
            };
            if (harness::isTier2(l))
                out.tier.pairs =
                    std::make_shared<const jvm::PairProfile>(e.pairs);
            break;
        }
    }
    // A baseline run collects the pair profile the ladder's tier-2
    // rung is built from when that rung runs through an artifact.
    Lang tier2 = rung(2);
    if (target == 0 && harness::isTier2(tier2) &&
        harness::modeInfo(tier2).artifact)
        out.tier.collect = std::make_shared<jvm::PairProfile>();

    out.level = target;
    out.lang = rung(target);
    if (target >= 1 && e.level < 1) {
        out.promotedRemedy = true;
        ++promotedRemedy_;
    }
    if (target >= 2 && e.level < 2) {
        out.promotedTier2 = true;
        ++promotedTier2_;
    }
    if (target == 3 && e.level < 3) {
        out.promotedJit = true;
        ++promotedJit_;
    }
    if (target > e.level)
        e.level = target;
    return out;
}

void
TierManager::noteRun(Lang mode, const std::string &program,
                     uint64_t commands,
                     const jvm::PairProfile *collected)
{
    if (!cfg.enabled || harness::isRemedy(mode))
        return;
    std::lock_guard<std::mutex> lock(mu);
    Entry &e = entryFor(mode, program);
    if (cfg.commandsPerPoint)
        e.hotness += commands / cfg.commandsPerPoint;
    if (collected)
        e.pairs.merge(*collected);
}

void
TierManager::publish(Rung &rung, harness::Artifact a)
{
    if (!harness::present(a))
        return;
    // The artifact is built whole before this store; runs that hold
    // it share it from here on.
    std::lock_guard<std::mutex> lock(mu);
    rung.artifact = std::move(a);
    ++artifactsPublished_;
}

TierManager::Snapshot
TierManager::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    Snapshot s;
    s.entries = entries.size();
    s.promotedRemedy = promotedRemedy_;
    s.promotedTier2 = promotedTier2_;
    s.promotedJit = promotedJit_;
    s.artifactsPublished = artifactsPublished_;
    return s;
}

} // namespace interp::tier
