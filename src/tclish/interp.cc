#include "tclish/interp.hh"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace interp::tclish {

using trace::Category;
using trace::CategoryScope;
using trace::MemModelScope;
using trace::NativeScope;
using trace::RoutineScope;
using trace::SystemScope;

namespace {

/** True if @p text holds just an optionally signed integer. */
bool
parseInt(const std::string &text, int64_t &out)
{
    std::string_view sv = trim(text);
    if (sv.empty())
        return false;
    size_t i = 0;
    bool neg = false;
    if (sv[0] == '-' || sv[0] == '+') {
        neg = sv[0] == '-';
        i = 1;
        if (i == sv.size())
            return false;
    }
    int64_t value = 0;
    for (; i < sv.size(); ++i) {
        if (!std::isdigit((unsigned char)sv[i]))
            return false;
        value = value * 10 + (sv[i] - '0');
    }
    out = neg ? -value : value;
    return true;
}

} // namespace

TclInterp::TclInterp(trace::Execution &exec_, vfs::FileSystem &fs_,
                     bool bytecode, bool tier2, bool jit)
    : exec(exec_), fs(fs_), bytecodeMode(bytecode || tier2 || jit),
      tier2Mode(tier2 || jit)
{
    jitMode = jit;
    auto &code = exec.code();
    rParse = code.registerRoutine("tcl.parse", 1400);
    rSubst = code.registerRoutine("tcl.subst", 700);
    rCmdLookup = code.registerRoutine("tcl.cmd_lookup", 450);
    rSymtab = code.registerRoutine("tcl.symtab", 550);
    rExpr = code.registerRoutine("tcl.expr", 1600);
    rString = code.registerRoutine("tcl.string", 700);
    rList = code.registerRoutine("tcl.list", 600);
    rProc = code.registerRoutine("tcl.proc", 500);
    rCmds = code.registerRoutine("tcl.commands", 2200);
    rIo = code.registerRoutine("tcl.io", 400);
    rTk = code.registerRoutine("tk.draw", 1600, trace::Segment::NativeLib);
    rKernel = code.registerRoutine("tcl.kernel", 200,
                                   trace::Segment::NativeLib);
    scopes.emplace_back(); // global scope
    // Last, and only in bytecode mode: the baseline interpreter's
    // synthetic code layout (and hence its i-cache behaviour) stays
    // bit-for-bit what it was before the mode existed.
    if (bytecodeMode)
        initBytecode();
}

// --- cost emission -----------------------------------------------------------
//
// On a counting-only run (no batch sink) nobody reads an instruction's
// class, PC or address, only its attribution. So a helper whose loop
// keeps one attribution throughout adds the loop's closed-form total
// in one emission instead; with a batch sink it runs the loop. The
// ladder check (Runner.SourceCountedProfileMatchesBatchedProfile)
// compares a counting-only run with a batched one on every row.

namespace {

/** alu() for a total that may not fit one emission's count. */
void
countStraight(trace::Execution &exec, uint64_t n)
{
    for (; n > UINT32_MAX; n -= UINT32_MAX)
        exec.alu(UINT32_MAX);
    exec.alu((uint32_t)n);
}

} // namespace

void
TclInterp::chargeParse(size_t chars, size_t words)
{
    // Tcl_Eval re-scans the command text character by character and
    // builds a fresh argv (with allocation and copying) on every
    // execution — the dominant share of Tcl's 2,000+ fetch/decode
    // instructions per command.
    // In bytecode mode this same scan happens once per distinct
    // script, inside evalCompiled()'s compile step: it is then
    // translation work, not per-trip fetch, and lands in Precompile
    // like Perl's parse.
    CategoryScope fd(exec, compiling ? Category::Precompile
                                     : Category::FetchDecode);
    RoutineScope r(exec, rParse);
    if (exec.countingOnly()) {
        countStraight(exec, 60 + (chars + 1) / 2 + 30 * (uint64_t)chars +
                                chars / 8 + 163 * (uint64_t)words);
        return;
    }
    exec.alu(60);
    for (size_t i = 0; i < chars; ++i) {
        if ((i & 1) == 0)
            exec.loadAt(0x74000000u + (uint32_t)(i % 32768));
        exec.alu(24);
        exec.shortInt(6);
        if ((i & 7) == 7)
            exec.branch(true); // character-class dispatch
    }
    for (size_t w = 0; w < words; ++w) {
        exec.alu(160);         // malloc + argv bookkeeping
        exec.store(&scopes);   // argv slot
        exec.store(&scopes);
        exec.branch(false);
    }
}

void
TclInterp::chargeLookup(const SymTab &table, size_t name_len,
                        int chain_steps)
{
    // §3.3: every variable reference is a symbol-table translation of
    // ~200-500 instructions, growing with the table's chain lengths.
    // The name is read at the entry's key, the heap object the lookup
    // is about (the bucket head after a miss).
    const void *bucket = table.lastBucketAddr;
    const char *key = table.lastKeyAddr;
    auto keyAt = [&](size_t i) -> const void * {
        return key ? key + i : bucket;
    };
    MemModelScope mm(exec);
    RoutineScope r(exec, rSymtab);
    exec.noteMemModelAccess();
    if (exec.countingOnly()) {
        uint64_t quads = (name_len + 3) / 4;
        uint64_t steps = std::max(chain_steps, 1);
        countStraight(exec, 171 + quads + 5 * (uint64_t)name_len +
                                steps * (8 + quads + name_len));
        return;
    }
    exec.alu(110);                // frame/scope resolution
    for (size_t i = 0; i < name_len; ++i) {
        if ((i & 3) == 0)
            exec.load(keyAt(i));
        exec.alu(4);
        exec.shortInt(1);
    }
    exec.load(bucket);
    for (int s = 0; s < std::max(chain_steps, 1); ++s) {
        exec.load(bucket);
        exec.branch(s + 1 < chain_steps);
        for (size_t i = 0; i < name_len; i += 4)
            exec.load(keyAt(i));
        exec.alu((uint32_t)name_len + 6);
    }
    exec.alu(60);                 // value extraction, trace hooks
}

void
TclInterp::chargeCommandLookup(const std::string &name)
{
    RoutineScope r(exec, rCmdLookup);
    exec.alu(100 + (uint32_t)name.size() * 8);
    exec.load(name.data());
    exec.load(&procs);
    exec.load(&procs);
    exec.branch(true);
    exec.shortInt(6);
}

void
TclInterp::chargeStringWork(size_t chars)
{
    RoutineScope r(exec, rString);
    if (exec.countingOnly()) {
        countStraight(exec, 12 + 4 * (((uint64_t)chars + 7) / 8));
        return;
    }
    exec.alu(12);
    for (size_t i = 0; i < chars; i += 8) {
        exec.loadAt(0x75000000u + (uint32_t)(i % 32768));
        exec.alu(3);
    }
}

void
TclInterp::kernelWrite(int fd, const std::string &text)
{
    fs.write(fd, text.data(), (int64_t)text.size());
    SystemScope sys(exec);
    RoutineScope r(exec, rKernel);
    exec.alu(90);
    for (size_t i = 0; i < text.size(); i += 32) {
        exec.loadAt(0x76000000u + (uint32_t)(i % 8192));
        exec.storeAt(0x76100020u + (uint32_t)(i % 8192));
        exec.alu(6);
    }
}

trace::RoutineId
TclInterp::commandRegion(const std::string &name)
{
    // Every command procedure is its own stretch of interpreter text;
    // executing a varied command mix is what sweeps Tcl's 16-32 KB
    // instruction working set (Figure 4).
    auto it = cmdRegions.find(name);
    if (it != cmdRegions.end())
        return it->second;
    trace::RoutineId id =
        exec.code().registerRoutine("tcl.cmd." + name, 700);
    cmdRegions.emplace(name, id);
    return id;
}

// --- variables --------------------------------------------------------------

SymTab &
TclInterp::scopeFor(const std::string &name)
{
    Scope &current = scopes.back();
    if (scopes.size() > 1) {
        for (const std::string &g : current.globals)
            if (g == name ||
                (name.size() > g.size() && name[g.size()] == '(' &&
                 name.compare(0, g.size(), g) == 0))
                return scopes[0].vars;
    }
    return current.vars;
}

std::string
TclInterp::readVar(const std::string &name)
{
    SymTab &table = scopeFor(name);
    int steps = 0;
    std::string *value = table.find(name, steps);
    if (!tier2Mode || !icReadHit(name, table, value != nullptr))
        chargeLookup(table, name.size(), steps);
    if (!value)
        fatal("tclish: can't read \"%s\": no such variable",
              name.c_str());
    chargeStringWork(value->size());
    return *value;
}

void
TclInterp::writeVar(const std::string &name, const std::string &value)
{
    SymTab &table = scopeFor(name);
    int steps = 0;
    std::string &slot = table.lookup(name, steps);
    chargeLookup(table, name.size(), steps);
    chargeStringWork(value.size());
    exec.store(&slot);
    slot = value;
}

// --- parsing ---------------------------------------------------------------

bool
TclInterp::parseCommand(const std::string &script, size_t &pos,
                        std::vector<std::string> &words, int &line)
{
    words.clear();
    size_t chars_scanned = 0;

    // Skip separators, whitespace and comments.
    while (pos < script.size()) {
        char c = script[pos];
        if (c == '\n') {
            ++line;
            ++pos;
        } else if (c == ';' || c == ' ' || c == '\t' || c == '\r') {
            ++pos;
        } else if (c == '#') {
            while (pos < script.size() && script[pos] != '\n')
                ++pos;
        } else {
            break;
        }
    }
    if (pos >= script.size())
        return false;

    std::vector<std::string> raw;
    while (pos < script.size()) {
        char c = script[pos];
        if (c == '\n' || c == ';') {
            break;
        }
        if (c == ' ' || c == '\t' || c == '\r') {
            ++pos;
            ++chars_scanned;
            continue;
        }
        if (c == '\\' && pos + 1 < script.size() &&
            script[pos + 1] == '\n') {
            pos += 2; // line continuation
            ++line;
            continue;
        }
        std::string word;
        bool braced = false;
        if (c == '{') {
            braced = true;
            int depth = 1;
            ++pos;
            size_t start = pos;
            while (pos < script.size() && depth > 0) {
                if (script[pos] == '{')
                    ++depth;
                else if (script[pos] == '}')
                    --depth;
                else if (script[pos] == '\n')
                    ++line;
                if (depth > 0)
                    ++pos;
            }
            if (depth != 0)
                fatal("tclish: line %d: missing close-brace", line);
            word = script.substr(start, pos - start);
            ++pos; // '}'
            // Mark braced words so the substitution pass skips them.
            word.insert(word.begin(), '\x01');
        } else if (c == '"') {
            ++pos;
            size_t start = pos;
            int bracket = 0;
            while (pos < script.size() &&
                   (script[pos] != '"' || bracket > 0)) {
                if (script[pos] == '[')
                    ++bracket;
                else if (script[pos] == ']')
                    --bracket;
                else if (script[pos] == '\\')
                    ++pos;
                else if (script[pos] == '\n')
                    ++line;
                ++pos;
            }
            if (pos >= script.size())
                fatal("tclish: line %d: missing close-quote", line);
            word = script.substr(start, pos - start);
            ++pos; // '"'
        } else {
            size_t start = pos;
            int bracket = 0;
            while (pos < script.size()) {
                char d = script[pos];
                if (bracket == 0 &&
                    (d == ' ' || d == '\t' || d == '\n' || d == ';' ||
                     d == '\r'))
                    break;
                if (d == '[')
                    ++bracket;
                else if (d == ']')
                    --bracket;
                else if (d == '\\' && pos + 1 < script.size())
                    ++pos;
                ++pos;
            }
            word = script.substr(start, pos - start);
        }
        (void)braced;
        chars_scanned += word.size() + 1;
        raw.push_back(std::move(word));
    }

    chargeParse(chars_scanned, raw.size());
    words = std::move(raw);
    return true;
}

std::string
TclInterp::substitute(const std::string &text, Result &failure)
{
    RoutineScope r(exec, rSubst);
    std::string out;
    out.reserve(text.size());
    size_t i = 0;
    while (i < text.size()) {
        char c = text[i];
        exec.alu(9);
        exec.shortInt(2);
        if ((i & 7) == 0)
            exec.loadAt(0x74800000u + (uint32_t)(i % 32768));
        if (c == '\\' && i + 1 < text.size()) {
            char e = text[i + 1];
            i += 2;
            switch (e) {
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case 'r': out.push_back('\r'); break;
              default: out.push_back(e); break;
            }
            continue;
        }
        if (c == '$' && i + 1 < text.size()) {
            ++i;
            std::string name;
            if (text[i] == '{') {
                ++i;
                while (i < text.size() && text[i] != '}')
                    name.push_back(text[i++]);
                if (i < text.size())
                    ++i;
            } else {
                while (i < text.size() &&
                       (std::isalnum((unsigned char)text[i]) ||
                        text[i] == '_'))
                    name.push_back(text[i++]);
                // Array syntax: $name(index), index substituted too.
                if (i < text.size() && text[i] == '(' &&
                    !name.empty()) {
                    size_t depth = 1;
                    std::string index;
                    ++i;
                    while (i < text.size() && depth > 0) {
                        if (text[i] == '(')
                            ++depth;
                        else if (text[i] == ')')
                            --depth;
                        if (depth > 0)
                            index.push_back(text[i]);
                        ++i;
                    }
                    name += "(" + substitute(index, failure) + ")";
                }
            }
            if (name.empty()) {
                out.push_back('$');
                continue;
            }
            out += readVar(name);
            continue;
        }
        if (c == '[') {
            int depth = 1;
            std::string inner;
            ++i;
            while (i < text.size() && depth > 0) {
                if (text[i] == '[')
                    ++depth;
                else if (text[i] == ']')
                    --depth;
                if (depth > 0)
                    inner.push_back(text[i]);
                ++i;
            }
            Result nested = evalScript(inner);
            if (nested.status != Status::Ok) {
                failure = nested;
                return out;
            }
            out += nested.value;
            continue;
        }
        out.push_back(c);
        ++i;
    }
    chargeStringWork(out.size());
    return out;
}

// --- expr ------------------------------------------------------------------

namespace {

/** Recursive-descent integer expression evaluator over raw text. */
class ExprParser
{
  public:
    ExprParser(const std::string &text, TclInterp *interp,
               trace::Execution &exec, int line)
        : text_(text), interp_(interp), exec_(exec), line_(line)
    {}

    int64_t
    parse()
    {
        int64_t value = parseOr();
        skipSpace();
        if (pos_ != text_.size())
            fatal("tclish: line %d: bad expression \"%s\"", line_,
                  text_.c_str());
        return value;
    }

    // Hooks the interpreter provides (defined after TclInterp).
    std::function<std::string(const std::string &)> readVar;
    std::function<std::string(const std::string &)> evalBracket;

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace((unsigned char)text_[pos_]))
            ++pos_;
    }

    bool
    eat(const char *op)
    {
        skipSpace();
        size_t len = std::strlen(op);
        if (text_.compare(pos_, len, op) == 0) {
            // Avoid eating "<" of "<=" etc.: the caller tries longer
            // operators first.
            pos_ += len;
            charge(6);
            return true;
        }
        return false;
    }

    char
    peek()
    {
        skipSpace();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    charge(uint32_t n)
    {
        exec_.alu(n * 2); // Tcl 7.x expr: malloc'd value nodes per step
    }

    int64_t
    parseOr()
    {
        int64_t lhs = parseAnd();
        while (true) {
            if (eat("||")) {
                int64_t rhs = parseAnd();
                exec_.branch(lhs != 0);
                lhs = (lhs != 0 || rhs != 0) ? 1 : 0;
            } else {
                return lhs;
            }
        }
    }

    int64_t
    parseAnd()
    {
        int64_t lhs = parseBitOr();
        while (true) {
            if (eat("&&")) {
                int64_t rhs = parseBitOr();
                exec_.branch(lhs == 0);
                lhs = (lhs != 0 && rhs != 0) ? 1 : 0;
            } else {
                return lhs;
            }
        }
    }

    int64_t
    parseBitOr()
    {
        int64_t lhs = parseBitXor();
        while (peek() == '|' && text_.compare(pos_, 2, "||") != 0) {
            ++pos_;
            charge(4);
            exec_.floatOp(1);
            lhs |= parseBitXor();
        }
        return lhs;
    }

    int64_t
    parseBitXor()
    {
        int64_t lhs = parseBitAnd();
        while (peek() == '^') {
            ++pos_;
            charge(4);
            exec_.floatOp(1);
            lhs ^= parseBitAnd();
        }
        return lhs;
    }

    int64_t
    parseBitAnd()
    {
        int64_t lhs = parseEquality();
        while (peek() == '&' && text_.compare(pos_, 2, "&&") != 0) {
            ++pos_;
            charge(4);
            exec_.floatOp(1);
            lhs &= parseEquality();
        }
        return lhs;
    }

    int64_t
    parseEquality()
    {
        int64_t lhs = parseRelational();
        while (true) {
            if (eat("==")) {
                lhs = lhs == parseRelational();
                exec_.floatOp(1);
            } else if (eat("!=")) {
                lhs = lhs != parseRelational();
                exec_.floatOp(1);
            } else {
                return lhs;
            }
        }
    }

    int64_t
    parseRelational()
    {
        int64_t lhs = parseShift();
        while (true) {
            if (eat("<=")) {
                lhs = lhs <= parseShift();
            } else if (eat(">=")) {
                lhs = lhs >= parseShift();
            } else if (peek() == '<' &&
                       text_.compare(pos_, 2, "<<") != 0) {
                ++pos_;
                lhs = lhs < parseShift();
            } else if (peek() == '>' &&
                       text_.compare(pos_, 2, ">>") != 0) {
                ++pos_;
                lhs = lhs > parseShift();
            } else {
                return lhs;
            }
            exec_.floatOp(1);
        }
    }

    int64_t
    parseShift()
    {
        int64_t lhs = parseAdditive();
        while (true) {
            if (eat("<<")) {
                lhs = (int64_t)((uint64_t)lhs
                                << (uint64_t)(parseAdditive() & 63));
                exec_.shortInt(2);
            } else if (eat(">>")) {
                lhs = lhs >> (parseAdditive() & 63);
                exec_.shortInt(2);
            } else {
                return lhs;
            }
        }
    }

    int64_t
    parseAdditive()
    {
        int64_t lhs = parseMultiplicative();
        while (true) {
            char c = peek();
            if (c == '+') {
                ++pos_;
                lhs += parseMultiplicative();
            } else if (c == '-') {
                ++pos_;
                lhs -= parseMultiplicative();
            } else {
                return lhs;
            }
            exec_.floatOp(1);
            charge(8);
        }
    }

    int64_t
    parseMultiplicative()
    {
        int64_t lhs = parseUnary();
        while (true) {
            char c = peek();
            if (c == '*') {
                ++pos_;
                lhs *= parseUnary();
            } else if (c == '/') {
                ++pos_;
                int64_t rhs = parseUnary();
                if (rhs == 0)
                    fatal("tclish: line %d: divide by zero", line_);
                // Tcl divides toward negative infinity.
                int64_t q = lhs / rhs;
                if ((lhs % rhs != 0) && ((lhs < 0) != (rhs < 0)))
                    --q;
                lhs = q;
            } else if (c == '%') {
                ++pos_;
                int64_t rhs = parseUnary();
                if (rhs == 0)
                    fatal("tclish: line %d: divide by zero", line_);
                int64_t m = lhs % rhs;
                if (m != 0 && ((m < 0) != (rhs < 0)))
                    m += rhs;
                lhs = m;
            } else {
                return lhs;
            }
            exec_.floatOp(1);
            charge(8);
        }
    }

    int64_t
    parseUnary()
    {
        char c = peek();
        if (c == '-') {
            ++pos_;
            charge(4);
            return -parseUnary();
        }
        if (c == '!') {
            ++pos_;
            charge(4);
            return parseUnary() == 0 ? 1 : 0;
        }
        if (c == '~') {
            ++pos_;
            charge(4);
            return ~parseUnary();
        }
        return parsePrimary();
    }

    int64_t
    parsePrimary()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fatal("tclish: line %d: expression ends unexpectedly",
                  line_);
        char c = text_[pos_];
        if (c == '(') {
            ++pos_;
            int64_t value = parseOr();
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ')')
                fatal("tclish: line %d: missing ')' in expression",
                      line_);
            ++pos_;
            return value;
        }
        if (c == '$') {
            ++pos_;
            std::string name;
            while (pos_ < text_.size() &&
                   (std::isalnum((unsigned char)text_[pos_]) ||
                    text_[pos_] == '_'))
                name.push_back(text_[pos_++]);
            if (pos_ < text_.size() && text_[pos_] == '(') {
                int depth = 1;
                std::string index;
                ++pos_;
                while (pos_ < text_.size() && depth > 0) {
                    if (text_[pos_] == '(')
                        ++depth;
                    else if (text_[pos_] == ')')
                        --depth;
                    if (depth > 0)
                        index.push_back(text_[pos_]);
                    ++pos_;
                }
                // The element name may itself contain $references:
                // $a($i) — resolve them before the table lookup.
                std::string resolved;
                for (size_t k = 0; k < index.size(); ++k) {
                    if (index[k] == '$') {
                        std::string inner;
                        ++k;
                        while (k < index.size() &&
                               (std::isalnum((unsigned char)index[k]) ||
                                index[k] == '_'))
                            inner.push_back(index[k++]);
                        --k;
                        resolved += readVar(inner);
                    } else {
                        resolved.push_back(index[k]);
                    }
                }
                name += "(" + resolved + ")";
            }
            std::string value = readVar(name);
            int64_t parsed;
            if (!parseInt(value, parsed))
                fatal("tclish: line %d: expected integer but got "
                      "\"%s\"", line_, value.c_str());
            charge(10 + (uint32_t)value.size() * 3);
            return parsed;
        }
        if (c == '[') {
            int depth = 1;
            std::string inner;
            ++pos_;
            while (pos_ < text_.size() && depth > 0) {
                if (text_[pos_] == '[')
                    ++depth;
                else if (text_[pos_] == ']')
                    --depth;
                if (depth > 0)
                    inner.push_back(text_[pos_]);
                ++pos_;
            }
            std::string value = evalBracket(inner);
            int64_t parsed;
            if (!parseInt(value, parsed))
                fatal("tclish: line %d: expected integer but got "
                      "\"%s\"", line_, value.c_str());
            return parsed;
        }
        if (std::isdigit((unsigned char)c)) {
            int64_t value = 0;
            if (c == '0' && pos_ + 1 < text_.size() &&
                (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
                pos_ += 2;
                while (pos_ < text_.size() &&
                       std::isxdigit((unsigned char)text_[pos_])) {
                    char d = text_[pos_++];
                    value = value * 16 +
                            (std::isdigit((unsigned char)d)
                                 ? d - '0'
                                 : std::tolower((unsigned char)d) - 'a' +
                                       10);
                }
            } else {
                while (pos_ < text_.size() &&
                       std::isdigit((unsigned char)text_[pos_]))
                    value = value * 10 + (text_[pos_++] - '0');
            }
            charge(12);
            return value;
        }
        fatal("tclish: line %d: bad expression character '%c'", line_,
              c);
    }

    const std::string &text_;
    TclInterp *interp_;
    trace::Execution &exec_;
    int line_;
    size_t pos_ = 0;
};

} // namespace

int64_t
TclInterp::evalExpr(const std::string &text, int line)
{
    // `expr` re-parses its expression text on every evaluation —
    // there is no compiled form of anything in Tcl 7.x.
    RoutineScope r(exec, rExpr);
    exec.alu(60 + (uint32_t)text.size() * 12);
    exec.shortInt((uint32_t)text.size());
    for (size_t i = 0; i < text.size(); i += 4)
        exec.loadAt(0x74c00000u + (uint32_t)(i % 32768));
    ExprParser parser(text, this, exec, line);
    parser.readVar = [this](const std::string &name) {
        return readVar(name);
    };
    parser.evalBracket = [this](const std::string &inner) {
        Result res = evalScript(inner);
        return res.value;
    };
    return parser.parse();
}

// --- evaluation -------------------------------------------------------------

int
TclInterp::run(const std::string &script)
{
    exitCode = 0;
    evalScript(script);
    return exitCode;
}

Result
TclInterp::evalScript(const std::string &script)
{
    if (bytecodeMode)
        return evalCompiled(script);
    return evalDirect(script);
}

/** The baseline eval loop: re-parse and substitute every command. */
Result
TclInterp::evalDirect(const std::string &script)
{
    Result last;
    size_t pos = 0;
    int line = 1;
    std::vector<std::string> words;
    while (parseCommand(script, pos, words, line)) {
        Result failure;
        std::vector<std::string> substituted;
        if (!substituteWords(words, substituted, failure))
            return failure;
        last = evalCommand(substituted, line);
        if (last.status != Status::Ok)
            return last;
    }
    return last;
}

bool
TclInterp::substituteWords(const std::vector<std::string> &words,
                           std::vector<std::string> &out, Result &failure)
{
    // parseCommand strips the braces, so it marks braced words with a
    // \x01 sentinel: braced-ness cannot be re-derived here.
    out.reserve(words.size());
    for (const std::string &word : words) {
        if (!word.empty() && word[0] == '\x01') {
            out.push_back(word.substr(1));
        } else {
            out.push_back(substitute(word, failure));
            if (failure.status != Status::Ok)
                return false;
        }
    }
    return true;
}

Result
TclInterp::invokeProc(const Proc &proc,
                      const std::vector<std::string> &words)
{
    if (procDepth > 150)
        fatal("tclish: too many nested proc calls");
    {
        RoutineScope r(exec, rProc);
        exec.alu(140); // callframe allocation, arg vector copy
        exec.store(&scopes);
        exec.branch(true);
    }
    scopes.emplace_back();
    for (size_t i = 0; i < proc.params.size(); ++i) {
        std::string value = i + 1 < words.size() ? words[i + 1] : "";
        writeVar(proc.params[i], value);
    }
    ++procDepth;
    Result res = evalScript(proc.body);
    --procDepth;
    scopes.pop_back();
    {
        RoutineScope r(exec, rProc);
        exec.alu(60); // frame teardown
    }
    if (res.status == Status::Return)
        res.status = Status::Ok;
    return res;
}

} // namespace interp::tclish
