/**
 * @file
 * Small string utilities shared across the interpreters and the
 * benchmark harness.
 */

#ifndef INTERP_SUPPORT_STRUTIL_HH
#define INTERP_SUPPORT_STRUTIL_HH

#include <string>
#include <string_view>
#include <vector>

namespace interp {

/** Split @p text on @p sep; empty fields are kept. */
std::vector<std::string> split(std::string_view text, char sep);

/** Split @p text on runs of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view text);

/** True if @p text starts with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Join @p parts with @p sep between elements. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Render a count with thousands separators, e.g.\ 12345 -> "12,345". */
std::string withCommas(unsigned long long value);

/**
 * Render a count the way the paper's Table 2 does: in units of 10^3
 * with two or three significant digits, e.g.\ 12,960,000 -> "13,000".
 */
std::string sigThousands(double value);

/** @p s with '"' and '\\' escaped for a JSON string body. */
std::string jsonEscape(const std::string &s);

} // namespace interp

#endif // INTERP_SUPPORT_STRUTIL_HH
