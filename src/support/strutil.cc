#include "support/strutil.hh"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace interp {

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = text.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            return out;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && std::isspace((unsigned char)text[i]))
            ++i;
        size_t start = i;
        while (i < text.size() && !std::isspace((unsigned char)text[i]))
            ++i;
        if (i > start)
            out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

std::string_view
trim(std::string_view text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && std::isspace((unsigned char)text[begin]))
        ++begin;
    while (end > begin && std::isspace((unsigned char)text[end - 1]))
        --end;
    return text.substr(begin, end - begin);
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(len > 0 ? len : 0, '\0');
    if (len > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
withCommas(unsigned long long value)
{
    std::string digits = std::to_string(value);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    return std::string(out.rbegin(), out.rend());
}

std::string
sigThousands(double value)
{
    double thousands = value / 1000.0;
    if (thousands >= 100.0) {
        // Round to two significant figures beyond the leading digits.
        double magnitude = std::pow(10.0, std::floor(std::log10(thousands)) - 1);
        double rounded = std::round(thousands / magnitude) * magnitude;
        return withCommas((unsigned long long)rounded);
    }
    if (thousands >= 10.0)
        return withCommas((unsigned long long)std::llround(thousands));
    return format("%.1f", thousands);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace interp
