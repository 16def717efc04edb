/**
 * @file
 * Backtracking regular-expression engine for the perlish runtime.
 *
 * Supports the Perl 4 constructs the benchmark programs use:
 * literals, '.', character classes (with ranges and negation), the
 * quantifiers * + ?, grouping with capture, alternation, anchors,
 * and the escapes \d \w \s (and their negations) \t \n and \<punct>.
 *
 * The engine counts every matcher step; the interpreter charges that
 * work as native-runtime-library instructions — in the paper, regex
 * execution is why Perl's `match` command can account for 84% of
 * txt2html's execute instructions while being only 9% of commands.
 */

#ifndef INTERP_PERLISH_REGEX_HH
#define INTERP_PERLISH_REGEX_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace interp::perlish {

/** A compiled pattern. */
class Regex
{
  public:
    /** Compile @p pattern; fatal() on syntax errors. */
    explicit Regex(const std::string &pattern);

    /** Result of a search. */
    struct Match
    {
        bool matched = false;
        size_t begin = 0;
        size_t end = 0;
        /** Capture-group spans; (npos, npos) when unset. */
        std::vector<std::pair<size_t, size_t>> groups;
        /** Matcher steps consumed (cost accounting). */
        uint64_t steps = 0;
    };

    /** Find the leftmost match at or after @p from. */
    Match search(const std::string &text, size_t from = 0) const;

    /** True if the whole string contains a match. */
    bool test(const std::string &text) const;

    /**
     * Replace matches with @p replacement ($1..$9 and $& expand).
     * @param global  replace all occurrences, not just the first
     * @param steps   out: total matcher steps
     * @return the substituted string and the replacement count.
     */
    std::pair<std::string, int> substitute(const std::string &text,
                                           const std::string &replacement,
                                           bool global,
                                           uint64_t &steps) const;

    /** Split @p text on matches (Perl split semantics, no limit). */
    std::vector<std::string> split(const std::string &text,
                                   uint64_t &steps) const;

    const std::string &pattern() const { return source; }

  private:
    struct Node;
    using NodePtr = std::unique_ptr<Node>;

    struct Node
    {
        enum class Kind : uint8_t
        {
            Seq, Alt, Star, Plus, Quest, Char, Any, Class, Bol, Eol,
            Group,
        };

        Kind kind;
        char ch = 0;
        std::array<uint32_t, 8> cls{}; ///< 256-bit class bitmap
        int groupIndex = -1;
        std::vector<NodePtr> kids;
    };

    // Parsing.
    NodePtr parseAlt();
    NodePtr parseSeq();
    NodePtr parseFactor();
    NodePtr parseAtom();
    NodePtr parseClass();
    void classAdd(Node &node, uint8_t c);
    void classAddRange(Node &node, uint8_t lo, uint8_t hi);
    void classAddEscape(Node &node, char esc);

    // Matching.
    struct MatchState
    {
        const std::string *text;
        std::vector<std::pair<size_t, size_t>> groups;
        uint64_t steps = 0;
    };

    /** Type-erased continuation: called with the end position. */
    using Cont = std::function<bool(size_t)>;

    /**
     * Try to match @p node at @p pos; on success calls @p cont with
     * the end position; returns whether any continuation succeeded.
     * The continuation is type-erased deliberately: a templated
     * continuation type here makes each backtracking combinator mint
     * a fresh closure type and sends the compiler into unbounded
     * template recursion.
     */
    bool matchNode(const Node *node, size_t pos, MatchState &state,
                   const Cont &cont) const;

    bool matchHere(size_t pos, MatchState &state, size_t &end) const;

    std::string source;
    size_t cursor = 0;
    NodePtr root;
    int groupCount = 0;
};

} // namespace interp::perlish

#endif // INTERP_PERLISH_REGEX_HH
