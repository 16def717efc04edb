/**
 * @file
 * The interp-remedies-v1 document (BENCH_remedies.json) written by
 * bench_remedies.
 *
 * One `pairs` array holds a row object per measured pair: the §5
 * remedy rows (tier 1, no "tier" key) first, then the rows tagged
 * `"tier": 2`, then `"tier": 3`. bench_remedies measures the whole
 * ladder in one pass, so it writes the whole document at once. The
 * schema is documented in EXPERIMENTS.md.
 */

#ifndef INTERP_HARNESS_REMEDIES_JSON_HH
#define INTERP_HARNESS_REMEDIES_JSON_HH

#include <string>
#include <vector>

namespace interp::harness {

/**
 * Write the document to @p path with @p rows (each one JSON object,
 * unindented, no trailing comma) as its `pairs`, in order. Reports the
 * write on stderr. True when @p path is "" (no `--json`); false if
 * the file cannot be written.
 */
bool writeRemediesJson(const std::string &path,
                       const std::vector<std::string> &rows);

} // namespace interp::harness

#endif // INTERP_HARNESS_REMEDIES_JSON_HH
