/**
 * @file
 * Dynamic tier-up: hotness-driven promotion of warm-catalog programs.
 *
 * interpd serves the same named programs over and over; a program
 * that stays busy earns a faster execution tier at runtime, exactly
 * the way production VMs promote hot methods:
 *
 *   tier 0   the faithful baseline interpreter for the request mode
 *   tier 1   the mode's §5 fetch/decode remedy (mipsi-threaded,
 *            jvm-quick, tcl-bytecode, perl-ic)
 *   tier 2   remedy + profile-discovered superinstructions and
 *            monomorphic inline caches (jvm-tier2 / tcl-tier2)
 *   tier 3   template compilation to a native-code region
 *            (mipsi-jit / tcl-jit); modes without a template backend
 *            top out at tier 2 and a tier-3 target folds down
 *
 * Hotness is counted per (baseline mode, program): one point per
 * invocation plus one per TierConfig::commandsPerPoint commands
 * executed (the interpreter-level stand-in for backedge counters),
 * halved every decayEvery invocations so a program must stay hot to
 * stay promoted-worthy. Decay is tied to invocation counts, never to
 * wall-clock time, so promotion decisions replay deterministically.
 *
 * Promotion must be safe under interpd's concurrent batches: several
 * workers can run the same catalog program at once. The rungs that run
 * through an artifact (harness::ModeInfo::artifact: Java-tier2's
 * pre-quickened module + fusion/IC tables, MIPSI-jit's stencil
 * program) therefore have it built aside by exactly one request and
 * published whole under the manager's lock: readers either see the
 * old tier or a complete immutable artifact, never a half-built one.
 * Shared modules are never mutated in place: Java-quick quickens a
 * private copy per run (jvm::Vm fatal()s on a shared one).
 * While one request builds, other requests for the same program
 * simply run the tier below; they pick the artifact up on their next
 * visit. A builder that ends without publishing (an error, a
 * deadline) hands its rung back, and the next request builds.
 */

#ifndef INTERP_TIER_TIER_HH
#define INTERP_TIER_TIER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "harness/runner.hh"
#include "jvm/tier2.hh"

namespace interp::tier {

struct TierConfig
{
    bool enabled = false;
    /** Hotness points at which a baseline is promoted to its remedy. */
    uint64_t remedyAfter = 3;
    /** Hotness points at which the remedy is promoted to tier-2. */
    uint64_t tier2After = 8;
    /** Hotness points at which tier-2 is promoted to the jit tier. */
    uint64_t jitAfter = 16;
    /** Commands executed per hotness point (backedge stand-in). */
    uint64_t commandsPerPoint = 50'000;
    /** Halve an entry's hotness every N invocations (0 = never). */
    uint64_t decayEvery = 64;
};

/** What one request should do, decided before it executes. */
struct TierPlan
{
    /** Execution mode to run at (== the request mode when cold). */
    harness::Lang lang{};
    /** Tier the plan runs at: 0 baseline, 1 remedy, 2 tier-2,
     *  3 jit. */
    int level = 0;
    /** This plan crossed the baseline -> remedy threshold. */
    bool promotedRemedy = false;
    /** This plan crossed the remedy -> tier-2 threshold. */
    bool promotedTier2 = false;
    /** This plan crossed the tier-2 -> jit threshold. */
    bool promotedJit = false;
    /** The run's artifact slot: the rung's published artifact, or
     *  the publish hook when this request is the rung's one builder
     *  (with the merged pair profile for a tier-2 build); on a
     *  baseline run whose ladder builds from pairs, the collector
     *  to hand to noteRun(). */
    harness::TierSlot tier;
};

class TierManager
{
  public:
    explicit TierManager(const TierConfig &config) : cfg(config) {}

    const TierConfig &config() const { return cfg; }

    /**
     * Decide the tier for one request for @p program under baseline
     * @p mode. Charges the invocation hotness point, applies decay,
     * and performs the promotion state transition (at most one
     * request observes promotedRemedy/promotedTier2 per crossing).
     * Remedy/tier-2 modes requested explicitly by the client are
     * returned unchanged — tiering only ever upgrades baselines.
     */
    TierPlan plan(harness::Lang mode, const std::string &program);

    /**
     * Account a finished run: @p commands feeds the backedge-point
     * side of hotness; a non-null @p collected (the profile a
     * baseline jvm run gathered) is merged into the entry's profile.
     */
    void noteRun(harness::Lang mode, const std::string &program,
                 uint64_t commands,
                 const jvm::PairProfile *collected = nullptr);

    /** Aggregate gauges, for tests and logging. */
    struct Snapshot
    {
        uint64_t entries = 0;
        uint64_t promotedRemedy = 0; ///< baseline -> remedy crossings
        uint64_t promotedTier2 = 0;  ///< remedy -> tier-2 crossings
        uint64_t promotedJit = 0;    ///< tier-2 -> jit crossings
        uint64_t artifactsPublished = 0;
    };
    Snapshot snapshot() const;

  private:
    /** One tier level of an entry: its published artifact, and the
     *  claim of the request building it, live while any copy of that
     *  builder's publish hook is. */
    struct Rung
    {
        harness::Artifact artifact;
        std::weak_ptr<const void> building;
    };

    /** Per-(mode, program) promotion state. */
    struct Entry
    {
        uint64_t hotness = 0;     ///< decayed points
        uint64_t invocations = 0; ///< drives decay
        int level = 0;            ///< highest tier reached
        /** Indexed by tier level; only the rungs whose mode runs
         *  through an artifact use theirs. */
        Rung rungs[4];
        /** Merged adjacent-pair profile from baseline runs (jvm). */
        jvm::PairProfile pairs;
    };

    Entry &entryFor(harness::Lang mode, const std::string &program);
    void publish(Rung &rung, harness::Artifact a);

    TierConfig cfg;
    mutable std::mutex mu;
    /** Map nodes never move, so a hook may hold a Rung's address. */
    std::map<std::string, Entry> entries;
    uint64_t promotedRemedy_ = 0;
    uint64_t promotedTier2_ = 0;
    uint64_t promotedJit_ = 0;
    uint64_t artifactsPublished_ = 0;
};

} // namespace interp::tier

#endif // INTERP_TIER_TIER_HH
