/**
 * @file
 * The tclish interpreter: direct interpretation of ASCII source.
 *
 * There is no compilation step of any kind — exactly like Tcl 7.4:
 *  - the eval loop re-parses the command text on *every* execution
 *    (a while body is re-scanned on each iteration), which is why
 *    fetch/decode costs thousands of native instructions per virtual
 *    command (Table 2: 2,000-5,200);
 *  - all values are strings; `expr` re-parses its arithmetic
 *    expression from text at each evaluation (the a=b+c microbenchmark
 *    is 6500x slower than C in the paper);
 *  - variables are named by strings and every access is a symbol-table
 *    lookup costing ~200-500 instructions, growing with table size
 *    (§3.3).
 *
 * One executed Tcl command = one virtual command; its name (set, expr,
 * puts, a proc name, ...) is the command-distribution key of Figs 1-2.
 */

#ifndef INTERP_TCLISH_INTERP_HH
#define INTERP_TCLISH_INTERP_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gfx/framebuffer.hh"
#include "tclish/symtab.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace interp::tclish {

/** Compiled-script cache of the bytecode mode (see bytecode.cc). */
struct BytecodeState;

/** Outcome of evaluating a script or command. */
enum class Status : uint8_t
{
    Ok, Return, Break, Continue, Stop, // Stop: exit
};

/** A result: status plus the command's string value. */
struct Result
{
    Status status = Status::Ok;
    std::string value;
};

/** The interpreter. */
class TclInterp
{
  public:
    /**
     * @p bytecode enables the tclish-bytecode execution mode, the
     * Tcl 8.0-style §5 remedy: each distinct script string (program,
     * proc body, loop body, bracket script) is parsed ONCE into a
     * cached command list, charged to the Precompile category; every
     * subsequent trip fetches the compiled words for a few dozen
     * instructions instead of re-scanning the text. Substitution,
     * expr evaluation and command dispatch are unchanged, so
     * per-command execute attribution is identical to baseline.
     *
     * @p tier2 (implies bytecode) enables the Tcl-tier2 mode:
     *  - command-pair superinstructions — after a compiled script has
     *    run a few trips, the hottest adjacent command-name pairs are
     *    fused, and the second command of a fused pair costs a couple
     *    of glue instructions of fetch instead of a full compiled-word
     *    fetch (one-shot fusion pass charged to Precompile);
     *  - monomorphic symbol inline caches — each $-reference site in a
     *    compiled command caches its global-scope resolution; a hit
     *    replaces the ~200-500-instruction symbol-table translation
     *    (§3.3) with a short guarded load, a miss falls back to the
     *    full baseline lookup (guard charged as memory-model work,
     *    refill charged to Precompile). Writes always take the
     *    baseline path: the cache serves reads only.
     * Execute attribution outside the memory-model subset stays
     * byte-identical to baseline.
     *
     * @p jit (implies tier2) enables the Tcl-jit tier-3 mode: each
     * compiled script is template-compiled into a jit::JitArtifact —
     * one native stencil per compiled command, calling back into the
     * unchanged substitution/dispatch path — so a trip through a hot
     * script *falls through* the stencil stream instead of fetching
     * compiled words. The stencil glue executes at its own PCs inside
     * a Segment::JitCode region (Fig 3-style i-cache attribution of
     * the emitted code), compilation is charged to Precompile, and
     * the symbol-cache hit path shrinks to the stencil's inlined
     * guard. Fusion is subsumed (the glue is already cheaper than a
     * fused fetch); everything outside fetch/decode and the
     * memory-model subset stays byte-identical to baseline.
     */
    TclInterp(trace::Execution &exec, vfs::FileSystem &fs,
              bool bytecode = false, bool tier2 = false,
              bool jit = false);

    /** Out of line (bytecode.cc): BytecodeState is incomplete here. */
    ~TclInterp();

    /**
     * Interpret a whole script (the program text, kept as a string);
     * @return its exit code. Each command retires on the Execution,
     * whose command budget may stop the run first
     * (trace::BudgetExhausted).
     */
    int run(const std::string &script);

    trace::CommandSet &commandSet() { return commands_; }

    /** Framebuffer created by the tk-like commands (null before). */
    gfx::Framebuffer *framebuffer() { return fb.get(); }

    /**
     * Test hook: drop @p script from the compiled-script cache.
     * Invalidating a script that has already executed is a
     * post-first-event code mutation and raises a contained fatal().
     */
    void debugInvalidate(const std::string &script);

  private:
    struct Proc
    {
        std::vector<std::string> params;
        std::string body;
    };

    struct Scope
    {
        SymTab vars;
        std::vector<std::string> globals; ///< names imported via `global`
    };

    struct Channel
    {
        int fd = -1;
    };

    /** Per-command handler region (lazily registered). */
    trace::RoutineId commandRegion(const std::string &name);

    // --- evaluation -------------------------------------------------------
    /** Evaluate @p script in the interpreter's mode. */
    Result evalScript(const std::string &script);
    Result evalDirect(const std::string &script);
    Result evalCompiled(const std::string &script); ///< bytecode.cc
    Result evalCommand(const std::vector<std::string> &words, int line);
    Result invokeProc(const Proc &proc,
                      const std::vector<std::string> &words);

    // --- parsing (runtime, charged) -----------------------------------
    /**
     * Parse one command starting at @p pos of @p script into
     * substituted words; advances @p pos past the command.
     * @return false at end of script.
     */
    bool parseCommand(const std::string &script, size_t &pos,
                      std::vector<std::string> &words, int &line);
    /** Substitute $vars, [scripts] and backslashes in a word. */
    std::string substitute(const std::string &text, Result &failure);
    /**
     * Append each of @p words to @p out: a braced word (marked by
     * parseCommand's \x01 sentinel) verbatim, any other substituted.
     * @return false, with @p failure set, at the first failed
     * substitution.
     */
    bool substituteWords(const std::vector<std::string> &words,
                         std::vector<std::string> &out, Result &failure);

    // --- variables --------------------------------------------------------
    SymTab &scopeFor(const std::string &name);
    std::string readVar(const std::string &name);
    void writeVar(const std::string &name, const std::string &value);

    // --- expr ---------------------------------------------------------
    int64_t evalExpr(const std::string &text, int line);

    // --- bytecode mode (all definitions in bytecode.cc) --------------------
    /** Register the mode's routines and allocate `bc` (ctor helper). */
    void initBytecode();
    /**
     * Tier-2 symbol-cache probe for one $-reference (bytecode.cc).
     * Returns true when the site's cache hit — the fast-path charge
     * has been emitted and the caller must skip chargeLookup. On a
     * miss (or outside an active compiled-command cursor) emits
     * guard/refill overhead as applicable and returns false.
     */
    bool icReadHit(const std::string &name, SymTab &table, bool found);
    /** Tier-2 one-shot pair-fusion pass over one compiled script
     *  (bytecode.cc; opaque pointer: the script type is complete only
     *  there). */
    void fusePairs(void *script);
    /**
     * Tier-3 stencil helper (bytecode.cc): execute one compiled
     * command of the context's script. The static thunk is the
     * jit::StepFn target; it never lets an exception unwind into the
     * native stencil frame (stashed in the context and re-raised by
     * evalCompiled after the stream is left).
     */
    static uint8_t jitStepThunk(void *ctx, uint32_t index) noexcept;
    uint8_t jitCmdStep(void *ctx, uint32_t index);

    // --- cost emission -----------------------------------------------------
    void chargeParse(size_t chars, size_t words);
    void chargeBytecodeFetch(size_t words); ///< bytecode.cc
    /** Charge a variable lookup just made in @p table. */
    void chargeLookup(const SymTab &table, size_t name_len,
                      int chain_steps);
    void chargeCommandLookup(const std::string &name);
    void chargeStringWork(size_t chars);
    void kernelWrite(int fd, const std::string &text);

    trace::Execution &exec;
    vfs::FileSystem &fs;
    trace::CommandSet commands_;

    std::vector<Scope> scopes; ///< [0] is the global scope
    std::map<std::string, Proc> procs;
    std::map<std::string, Channel> channels;
    std::unique_ptr<gfx::Framebuffer> fb;

    int exitCode = 0;
    int procDepth = 0;

    // Interpreter code regions.
    trace::RoutineId rParse;
    trace::RoutineId rSubst;
    trace::RoutineId rCmdLookup;
    trace::RoutineId rSymtab;
    trace::RoutineId rExpr;
    trace::RoutineId rString;
    trace::RoutineId rList;
    trace::RoutineId rProc;
    trace::RoutineId rCmds;
    std::map<std::string, trace::RoutineId> cmdRegions;
    trace::RoutineId rIo;
    trace::RoutineId rTk;
    trace::RoutineId rKernel;

    // Bytecode-mode state, declared last: baseline members keep the
    // exact offsets (and 16-byte-granule alignment, which the
    // simulated data addresses depend on) they had before this mode
    // existed. The compiled-script cache is complete only in
    // bytecode.cc, which holds all of the mode's code.
    bool bytecodeMode = false;
    bool compiling = false; ///< routes chargeParse to Precompile
    /** Owned; a raw pointer (not unique_ptr) so interp.cc never
     *  instantiates the deleter. Freed by ~TclInterp in bytecode.cc. */
    BytecodeState *bc = nullptr;
    trace::RoutineId rCompile = 0; ///< one-shot bytecode compiler
    trace::RoutineId rBcFetch = 0; ///< compiled-command fetch loop

    // Tier-2 state, appended after the bytecode mode's for the same
    // layout reason. The IC slot vector type is complete only in
    // bytecode.cc, so the active cursor is opaque here.
    bool tier2Mode = false;
    uint64_t symbolEpoch = 0; ///< bumped by unset; invalidates ICs
    void *icSlots = nullptr;  ///< active command's IC slots, or null
    uint32_t icRef = 0;       ///< next $-reference ordinal in command
    trace::RoutineId rIcHit = 0; ///< symbol-cache probe routine
    trace::RoutineId rFuse = 0;  ///< pair-fusion pass routine

    // Tier-3 jit state, appended after tier-2's for the same layout
    // reason. Per-script artifacts live in BytecodeState (the only
    // place their types are complete).
    bool jitMode = false;
    trace::RoutineId rJitEmit = 0; ///< one-shot stencil compiler
};

} // namespace interp::tclish

#endif // INTERP_TCLISH_INTERP_HH
