/**
 * @file
 * The interp-remedies-v1 document (BENCH_remedies.json) written by
 * bench_remedies, bench_tierup and bench_jit.
 *
 * One `pairs` array holds a row object per measured pair: the §5
 * remedy rows (tier 1, no "tier" key) first, then the rows tagged
 * `"tier": 2`, then `"tier": 3`. Each driver owns one tier and
 * rewrites only that tier's rows, so the three can run in any order,
 * any number of times, and the document always ends up with one copy
 * of each tier in tier order. The schema is documented in
 * EXPERIMENTS.md.
 */

#ifndef INTERP_HARNESS_REMEDIES_JSON_HH
#define INTERP_HARNESS_REMEDIES_JSON_HH

#include <string>
#include <vector>

namespace interp::harness {

/**
 * The document path named by a `--json [file]` or `--json=file`
 * argument: "BENCH_remedies.json" when `--json` ends the command
 * line, "" when there is no `--json` at all.
 */
std::string parseJsonPath(int argc, char **argv);

/**
 * Replace the tier-@p tier rows of the document at @p path with
 * @p rows (each one JSON object, unindented, no trailing comma),
 * keeping the other tiers' rows, and write it back; a missing file
 * starts an empty document. Reports the write on stderr. True when
 * @p path is "" (no `--json`); false if the file cannot be written.
 */
bool writeRemediesTier(const std::string &path, int tier,
                       const std::vector<std::string> &rows);

} // namespace interp::harness

#endif // INTERP_HARNESS_REMEDIES_JSON_HH
