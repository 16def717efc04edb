/**
 * @file
 * The tier contract: what every rung of the tier ladder (a §5 remedy,
 * a tier-2 mode, a jit mode) keeps identical to its faithful baseline,
 * and what it may only make cheaper. The paper's §5 claim is that a
 * remedy removes fetch/decode cost while the execute stage stays the
 * same code; tier 2 widens what may change to the §3.3 memory-model
 * subset of execute, and tier 3 lets fetch/decode move between
 * command rows. bench_remedies and every golden test check a rung
 * through these two functions and keep no rules of their own; the
 * clauses are listed in EXPERIMENTS.md's BENCH_remedies.json section.
 */

#ifndef INTERP_HARNESS_CONTRACT_HH
#define INTERP_HARNESS_CONTRACT_HH

#include <string>
#include <vector>

#include "harness/runner.hh"

namespace interp::harness {

/**
 * The clauses @p rung breaks against @p base, one line each; empty
 * when the rung holds the contract of its tier
 * (modeInfo(rung.lang).tier). Every rung: neither run failed and both
 * finished; the same virtual commands, command names and stdout; per
 * command the same retired and native-lib counts; a fetch/decode
 * total no larger. Tier 1 also: per command and in total the same
 * execute count; per command no more fetch/decode; a fetch/decode
 * total, and its sum over the commands, strictly smaller; a larger
 * Precompile total. Tier 2 also: per command and in total the same
 * execute - memModel; per command no more fetch/decode; a memModel
 * total no larger. Tier 3 also: per command and in total the same
 * execute - memModel; a memModel total no larger; a larger
 * Precompile total.
 */
std::vector<std::string> contractBreaks(const Measurement &base,
                                        const Measurement &rung);

/**
 * The per-language companion over a whole ladder run, @p rows in
 * ladderSuite() order (each baseline row followed by its rungs): per
 * language, the tier-2 memModel total and the tier-3 fetch/decode +
 * memModel total must be strictly smaller than the baselines'.
 * Returns the clauses broken.
 */
std::vector<std::string> ladderTotalsBreaks(
    const std::vector<Measurement> &rows);

} // namespace interp::harness

#endif // INTERP_HARNESS_CONTRACT_HH
