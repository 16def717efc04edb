/**
 * @file
 * The perlish tree-walking interpreter.
 *
 * Executes one op-tree node per trip through the eval loop; each node
 * execution is one virtual command. Characteristics reproduced from
 * the paper's Perl 4 measurements:
 *
 *  - the program is recompiled at startup on every run (load()), with
 *    that work accounted separately (PRECOMPILE);
 *  - fetch/decode of a command costs ~130-200 native instructions —
 *    Perl's complex internal representation (§3.2);
 *  - scalar/array accesses were resolved to slots at compile time and
 *    are cheap; associative arrays always pay a hash translation of
 *    ~200 instructions (§3.3);
 *  - string facilities (regex match/subst/split) run in large runtime
 *    routines, so text-processing programs concentrate their execute
 *    instructions in one or two commands (Figures 1-2).
 */

#ifndef INTERP_PERLISH_INTERP_HH
#define INTERP_PERLISH_INTERP_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "perlish/compiler.hh"
#include "perlish/hash_table.hh"
#include "perlish/optree.hh"
#include "perlish/value.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace interp::perlish {

/** The interpreter. load() compiles; run() walks the tree. */
class Interp
{
  public:
    /**
     * @p symbolIc enables the Perl-ic execution mode: each HashElem
     * site in the op tree carries a monomorphic inline cache of its
     * last hash resolution (key + table generation). A hit replaces
     * the ~210-instruction hash translation (§3.3) with a short
     * guarded load; a miss falls back to the full baseline charge
     * (guard counted as memory-model execute work, refill charged to
     * Precompile). All other attribution is byte-identical to
     * baseline; `delete`/`defined` sites always take the full path.
     */
    Interp(trace::Execution &exec, vfs::FileSystem &fs,
           bool symbolIc = false);

    /** Compile @p source (precompile work is emitted). */
    void load(std::string_view source,
              const std::string &filename = "<script>");

    /**
     * Run the loaded script to completion, exit() or die(); @return
     * the exit code. Each op node retires one command on the
     * Execution, whose command budget may stop the run first
     * (trace::BudgetExhausted).
     */
    int run();

    trace::CommandSet &commandSet() { return commands_; }
    const Script &script() const { return script_; }

  private:
    enum class Ctrl : uint8_t { Normal, Return, Last, Next, Exit };

    struct FileHandle
    {
        int fd = -1;
        bool eof = false;
    };

    struct LocalSave
    {
        int kind; ///< 0 scalar, 1 array
        int slot;
        Scalar scalar;
        List array;
    };

    // Evaluation.
    Scalar eval(const OpNode &node);
    /**
     * Evaluate @p node in list context, appending to @p out.
     * @p retired: eval() already retired @p node (a list op in scalar
     * context), so the op only resumes its command.
     */
    void evalList(const OpNode &node, List &out, bool retired = false);
    Scalar *lvalueSlot(const OpNode &node);

    // Cost-emission helpers.
    void fetchDecode(const OpNode &node, trace::CommandId id);
    void chargeStringTouch(size_t chars);
    /** Charge a key lookup just made in @p table. */
    void chargeHashAccess(const HashTable &table, size_t key_len,
                          int chain_steps);
    /**
     * Inline-cache probe for a HashElem site. True: hit, fast-path
     * charge emitted, caller skips chargeHashAccess. False: miss (or
     * IC mode off) — guard/refill overhead emitted as applicable and
     * the caller charges the full translation.
     */
    bool icHashHit(const OpNode &node, const std::string &key,
                   const HashTable &table);
    void chargeRegexSteps(uint64_t steps);
    void chargeCoercion(const Scalar &value);
    void kernelWrite(int fd, const std::string &text);
    std::string readLine(const std::string &handle);

    // Builtin implementations.
    Scalar doSprintf(const OpNode &node);

    trace::Execution &exec;
    vfs::FileSystem &fs;
    Script script_;
    trace::CommandSet commands_;
    std::array<trace::CommandId, (size_t)Opc::NumOps> opCommand{};

    std::vector<Scalar> scalars;
    std::vector<List> arrays;
    std::vector<HashTable> hashes;
    std::array<Scalar, 10> captures; ///< $0(=$&), $1..$9
    std::map<std::string, FileHandle> handles;
    std::vector<LocalSave> localStack;

    Ctrl ctrl = Ctrl::Normal;
    Scalar returnValue;
    int exitCode = 0;
    int callDepth = 0;

    // Interpreter code regions. Each op has its own handler region
    // inside the giant eval switch (Perl 4's eval.c), which is what
    // gives Perl its 32-64 KB instruction working set (Figure 4).
    std::array<trace::RoutineId, (size_t)Opc::NumOps> rOp{};
    trace::RoutineId rEval;
    trace::RoutineId rArith;
    trace::RoutineId rString;
    trace::RoutineId rHash;
    trace::RoutineId rArray;
    trace::RoutineId rRegexec;
    trace::RoutineId rSub;
    trace::RoutineId rIo;
    trace::RoutineId rKernel;
    trace::RoutineId rMagic;

    // Perl-ic mode state, declared last so every baseline member
    // keeps the offsets (and emitted addresses) it had before the
    // mode existed. The cache lives in a side table keyed by op-tree
    // node — OpNode's own layout must not change, since the baseline
    // emits node addresses.
    struct HashIcEntry
    {
        std::string key;
        uint64_t gen = 0;
        uint64_t hits = 0;
    };
    bool icMode = false;
    trace::RoutineId rHashCache = 0;
    std::map<const OpNode *, HashIcEntry> hashIc;
};

} // namespace interp::perlish

#endif // INTERP_PERLISH_INTERP_HH
