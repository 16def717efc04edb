/**
 * @file
 * The tclish-bytecode execution mode (Tcl 8.0-style, §5 remedy), with
 * its tier-2 and jit extensions. Every definition of the mode lives in
 * this translation unit, and BytecodeState is complete only here.
 */

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "jit/artifact.hh"
#include "support/logging.hh"
#include "tclish/interp.hh"

namespace interp::tclish {

using trace::Category;
using trace::CategoryScope;
using trace::MemModelScope;
using trace::RoutineScope;

/**
 * Compiled-script cache: each distinct script string (program text,
 * proc body, loop body, bracket script) maps to its one-shot parse.
 */
struct BytecodeState
{
    /** One monomorphic symbol-cache slot: a $-reference site in a
     *  compiled command remembers its last global-scope resolution.
     *  Guards are deterministic values only (scope kind, name, unset
     *  epoch) — never raw host addresses, so cache decisions replay
     *  identically across runs and threads. */
    struct IcSlot
    {
        bool filled = false;
        bool global = false; ///< resolved in the global scope
        std::string name;
        uint64_t epoch = 0;
        uint64_t hits = 0;
        /** Consecutive misses; at kDeadAfterMisses the site is
         *  megamorphic (e.g. an array element whose name varies per
         *  trip) and the probe is retired for good. */
        uint8_t misses = 0;
    };
    static constexpr uint8_t kDeadAfterMisses = 4;

    /** One parsed command (words keep the \x01 braced-word sentinel;
     *  line is the post-parse line number the baseline would report). */
    struct Cmd
    {
        std::vector<std::string> words;
        int line = 1;
        // Tier-2 only:
        std::vector<IcSlot> ic; ///< per-$-reference symbol caches
        uint8_t fuse = 0;       ///< 0 none, 1 pair head, 2 pair tail
    };

    /** A script compiled once. */
    struct Script
    {
        std::vector<Cmd> cmds;
        bool executed = false;
        uint64_t trips = 0; ///< tier-2: executions of this script
        bool fused = false; ///< tier-2: fusion pass already ran
        // Tier-3 only: the script's stencil program and the base PC
        // of its glue inside the Segment::JitCode region.
        std::shared_ptr<const jit::JitArtifact> jit;
        uint32_t jitBase = 0;
    };

    std::map<std::string, Script> scripts;

    /** Tier-2: dynamic adjacent command-name pair counts, global
     *  across scripts (a loop body re-entering evalCompiled per trip
     *  accumulates its pairs once per iteration). */
    std::map<std::pair<std::string, std::string>, uint64_t> pairCounts;
};

namespace {

/** Trips of one script before its one-shot fusion pass runs. */
constexpr uint64_t kFuseAfterTrips = 4;
/** Distinct command-name pairs promoted to superinstructions. */
constexpr size_t kMaxFusedPairs = 4;
/** Minimum dynamic pair count for a pair to qualify. */
constexpr uint64_t kMinPairCount = 8;

/** Command-name key of a compiled word (sentinel stripped). */
std::string
cmdKey(const BytecodeState::Cmd &cmd)
{
    if (cmd.words.empty())
        return "";
    const std::string &w = cmd.words[0];
    return (!w.empty() && w[0] == '\x01') ? w.substr(1) : w;
}

/** Glue instructions charged per command stencil (region sizing). */
constexpr uint32_t kJitGlueInsts = 2;

/**
 * One evalCompiled invocation's native-stream context. Stack
 * allocated per (possibly nested) invocation: a stencil helper that
 * triggers a nested eval re-enters evalCompiled with its own ctx.
 */
struct JitRunCtx
{
    TclInterp *self = nullptr;
    BytecodeState::Script *cs = nullptr;
    Result last;               ///< last Ok command result
    Result out;                ///< early-exit result (returned set)
    bool returned = false;
    std::exception_ptr pending;
};

} // namespace

void
TclInterp::initBytecode()
{
    auto &code = exec.code();
    rCompile = code.registerRoutine("tcl.compile", 1800);
    rBcFetch = code.registerRoutine("tcl.bcfetch", 300);
    if (tier2Mode) {
        rIcHit = code.registerRoutine("tcl.symcache", 140);
        rFuse = code.registerRoutine("tcl.fuse", 400);
    }
    if (jitMode)
        rJitEmit = code.registerRoutine("tcl.jit_emit", 120);
    bc = new BytecodeState;
}

TclInterp::~TclInterp()
{
    delete bc;
}

void
TclInterp::chargeBytecodeFetch(size_t words)
{
    // Tcl 8.0's fetch: advance the compiled-command pc and pick up
    // the pre-parsed word descriptors — a few dozen instructions
    // instead of re-scanning the command text.
    CategoryScope fd(exec, Category::FetchDecode);
    RoutineScope r(exec, rBcFetch);
    exec.alu(8);            // pc advance, opcode fetch
    exec.branch(false);     // halt test
    for (size_t w = 0; w < words; ++w) {
        exec.load(bc);       // word descriptor
        exec.alu(2);
    }
}

Result
TclInterp::evalCompiled(const std::string &script)
{
    BytecodeState::Script *cs;
    auto it = bc->scripts.find(script);
    if (it != bc->scripts.end()) {
        cs = &it->second;
    } else {
        // One-shot Tcl 8.0-style compile: run the ordinary parser
        // over the whole script now. The `compiling` flag routes
        // chargeParse to Precompile; the extra emission here is the
        // compiler's own code-generation overhead.
        BytecodeState::Script fresh;
        {
            compiling = true;
            CategoryScope pre(exec, Category::Precompile);
            RoutineScope r(exec, rCompile);
            exec.alu(80); // compile-env setup
            size_t pos = 0;
            int line = 1;
            std::vector<std::string> words;
            while (parseCommand(script, pos, words, line)) {
                exec.alu(40 + (uint32_t)words.size() * 12); // descriptors
                exec.store(bc);
                BytecodeState::Cmd cc;
                cc.words = words;
                cc.line = line;
                fresh.cmds.push_back(std::move(cc));
            }
            compiling = false;
        }
        cs = &bc->scripts.emplace(script, std::move(fresh)).first->second;
    }

    if (jitMode && !cs->jit) {
        // One-shot template compilation, one stencil per compiled
        // command. The glue executes at PCs inside a fresh
        // Segment::JitCode region, so the emitted code has an i-cache
        // footprint of its own (growing with the script, unlike the
        // interpreter's fixed loop).
        uint32_t glue = (uint32_t)cs->cmds.size() * kJitGlueInsts;
        trace::RoutineId region = exec.code().registerRoutine(
            "tcl.jitcode", glue ? glue : kJitGlueInsts,
            trace::Segment::JitCode);
        cs->jitBase = exec.code().routine(region).base;
        CategoryScope pre(exec, Category::Precompile);
        RoutineScope r(exec, rJitEmit);
        exec.alu(6); // size the buffer, map it writable
        cs->jit = jit::JitArtifact::build(&TclInterp::jitStepThunk,
                                          (uint32_t)cs->cmds.size());
        for (size_t i = 0; i < cs->cmds.size(); ++i) {
            exec.alu(3);      // select + patch the stencil
            exec.shortInt(1); // offset bookkeeping
            exec.store(bc);   // record the stencil offset
        }
        exec.alu(2); // seal: the W^X flip to read+execute
    }

    if (jitMode) {
        // Tier-3 trip: fall through the script's stencil stream. Each
        // stencil calls back into jitCmdStep — substitution, inline
        // caches and dispatch are the unchanged tier-2 paths, only the
        // per-command fetch differs. A nested eval (proc body, loop
        // body) re-enters here with its own context, so an exception
        // stashed at depth N re-raises level by level.
        JitRunCtx ctx;
        ctx.self = this;
        ctx.cs = cs;
        cs->jit->enter(&ctx, 0);
        if (ctx.pending)
            std::rethrow_exception(ctx.pending);
        return ctx.returned ? ctx.out : ctx.last;
    }

    if (tier2Mode) {
        // Profile dynamic adjacency until this script's fusion pass
        // fires: the command list runs front to back, so each trip
        // adds every adjacent pair once (loop bodies re-enter here
        // per iteration and accumulate accordingly).
        ++cs->trips;
        if (!cs->fused) {
            for (size_t i = 0; i + 1 < cs->cmds.size(); ++i)
                ++bc->pairCounts[{cmdKey(cs->cmds[i]),
                                  cmdKey(cs->cmds[i + 1])}];
            if (cs->trips >= kFuseAfterTrips)
                fusePairs(cs);
        }
    }

    Result last;
    bool prevHead = false;
    for (BytecodeState::Cmd &cc : cs->cmds) {
        cs->executed = true;
        if (prevHead && cc.fuse == 2) {
            // Superinstruction continuation: the fused handler falls
            // straight into the second command's pre-substituted
            // words — glue instead of a full compiled-word fetch.
            CategoryScope fd(exec, Category::FetchDecode);
            RoutineScope r(exec, rBcFetch);
            exec.alu(2);
            exec.alu((uint32_t)cc.words.size());
        } else {
            chargeBytecodeFetch(cc.words.size());
        }
        prevHead = cc.fuse == 1;
        // Identical substitution pass to the baseline loop in
        // evalScript: only the fetch of the words changed, not what
        // is done with them, so execute attribution matches command
        // for command. In tier-2 the command's IC slots are exposed
        // to readVar for the duration of the substitution pass only
        // (never across the nested evals substitution may trigger —
        // icReadHit saves/restores around those via evalCompiled
        // re-entry, and command handlers run with no cursor at all).
        Result failure;
        void *savedSlots = icSlots;
        uint32_t savedRef = icRef;
        if (tier2Mode) {
            icSlots = &cc.ic;
            icRef = 0;
        }
        std::vector<std::string> substituted;
        if (!substituteWords(cc.words, substituted, failure)) {
            icSlots = savedSlots;
            icRef = savedRef;
            return failure;
        }
        icSlots = nullptr; // handlers see no cursor
        last = evalCommand(substituted, cc.line);
        icSlots = savedSlots;
        icRef = savedRef;
        if (last.status != Status::Ok)
            return last;
    }
    return last;
}

void
TclInterp::fusePairs(void *script_ptr)
{
    BytecodeState::Script &script =
        *(BytecodeState::Script *)script_ptr;
    // One-shot fusion pass (translation work → Precompile): rank the
    // dynamic pair profile, pick the hottest command-name pairs, and
    // mark this script's adjacent occurrences head/tail, greedily and
    // without overlap. std::map iteration makes the ranking (and its
    // tie-break, lexicographic key order) deterministic.
    script.fused = true;
    std::vector<std::pair<uint64_t, const std::pair<std::string,
                                                    std::string> *>>
        ranked;
    for (const auto &kv : bc->pairCounts)
        if (kv.second >= kMinPairCount)
            ranked.emplace_back(kv.second, &kv.first);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &x, const auto &y) {
                         return x.first > y.first;
                     });
    if (ranked.size() > kMaxFusedPairs)
        ranked.resize(kMaxFusedPairs);

    CategoryScope pre(exec, Category::Precompile);
    RoutineScope r(exec, rFuse);
    exec.alu(40); // rank the profile, set up the rewrite
    for (size_t i = 0; i + 1 < script.cmds.size(); ++i) {
        if (script.cmds[i].fuse != 0)
            continue;
        std::pair<std::string, std::string> key = {
            cmdKey(script.cmds[i]), cmdKey(script.cmds[i + 1])};
        bool hot = false;
        for (const auto &rk : ranked)
            if (*rk.second == key) {
                hot = true;
                break;
            }
        if (!hot)
            continue;
        script.cmds[i].fuse = 1;
        script.cmds[i + 1].fuse = 2;
        exec.alu(30); // emit the fused descriptor
        exec.store(bc);
        ++i; // no overlapping pairs
    }
}

uint8_t
TclInterp::jitStepThunk(void *ctx, uint32_t index) noexcept
{
    auto *c = (JitRunCtx *)ctx;
    try {
        return c->self->jitCmdStep(ctx, index);
    } catch (...) {
        // Native stencil frames have no unwind tables; stash and
        // leave the stream normally — evalCompiled re-raises.
        c->pending = std::current_exception();
        return 1;
    }
}

uint8_t
TclInterp::jitCmdStep(void *ctx_ptr, uint32_t index)
{
    JitRunCtx &ctx = *(JitRunCtx *)ctx_ptr;
    BytecodeState::Script &cs = *ctx.cs;
    BytecodeState::Cmd &cc = cs.cmds[index];
    cs.executed = true;

    // The whole per-command fetch: the stencil's own glue, executing
    // inside the emitted region (the words are baked into the
    // stencil, so there is no compiled-word fetch at all).
    {
        CategoryScope fd(exec, Category::FetchDecode);
        exec.emitAt(cs.jitBase + index * kJitGlueInsts * 4,
                    trace::InstClass::IntAlu);
    }
    // Identical substitution pass to the tier-2 loop in evalCompiled:
    // only the fetch of the words changed, not what is done with
    // them, so execute attribution matches command for command.
    Result failure;
    void *savedSlots = icSlots;
    uint32_t savedRef = icRef;
    icSlots = &cc.ic;
    icRef = 0;
    std::vector<std::string> substituted;
    if (!substituteWords(cc.words, substituted, failure)) {
        icSlots = savedSlots;
        icRef = savedRef;
        ctx.out = failure;
        ctx.returned = true;
        return 1;
    }
    icSlots = nullptr; // handlers see no cursor
    Result res = evalCommand(substituted, cc.line);
    icSlots = savedSlots;
    icRef = savedRef;

    // The stencil's exit guard: falls through to the next command's
    // stencil on Ok, leaves the region on a non-local status or at
    // the end of the script.
    bool leaving = res.status != Status::Ok ||
                   (size_t)index + 1 >= cs.cmds.size();
    {
        CategoryScope fd(exec, Category::FetchDecode);
        exec.emitAt(cs.jitBase + index * kJitGlueInsts * 4 + 4,
                    trace::InstClass::CondBranch, 1, 0, leaving, 0);
    }
    if (res.status != Status::Ok) {
        ctx.out = res;
        ctx.returned = true;
        return 1;
    }
    ctx.last = res;
    return leaving ? 1 : 0;
}

bool
TclInterp::icReadHit(const std::string &name, SymTab &table, bool found)
{
    if (!icSlots)
        return false; // no active compiled-command site
    auto &slots = *(std::vector<BytecodeState::IcSlot> *)icSlots;
    uint32_t ord = icRef++;
    if (ord >= slots.size())
        slots.resize(ord + 1);
    BytecodeState::IcSlot &slot = slots[ord];
    bool global = &table == &scopes[0].vars;
    // Only global bindings are cacheable (a proc-local lives in a
    // per-call table, so its slot could never hit). Skip the probe
    // entirely rather than charging a guard that must always miss —
    // local-heavy programs pay nothing for the cache. The ordinal was
    // consumed above, so slot positions stay stable either way.
    if (!global)
        return false;
    // A slot that keeps missing is megamorphic — stop probing and
    // let the site pay exactly the baseline cost from here on.
    if (slot.misses >= BytecodeState::kDeadAfterMisses)
        return false;
    if (slot.filled && slot.global && slot.name == name &&
        slot.epoch == symbolEpoch && found) {
        // Hit: short guarded load instead of the §3.3 translation.
        // In tier-3 the slot address and guard constant are baked
        // into the command's stencil, so the hit shrinks further: no
        // cache-slot indexing, no cached-entry load.
        MemModelScope mm(exec);
        RoutineScope r(exec, rIcHit);
        exec.noteMemModelAccess();
        if (jitMode) {
            exec.alu(1);                     // inlined slot constant
            exec.branch(false);              // epoch guard holds
            exec.load(table.lastBucketAddr); // direct slot load
            exec.alu(2);                     // value handoff
        } else {
            exec.alu(6);                     // cache-slot index
            exec.load(bc);                   // cached entry
            exec.branch(false);              // epoch/name guard holds
            exec.load(table.lastBucketAddr); // direct slot load
            exec.alu(8);                     // value handoff
        }
        ++slot.hits;
        slot.misses = 0;
        return true;
    }
    // Miss: the failing guard is memory-model execute work; the refill
    // is translation work (Precompile). The caller then performs the
    // full baseline lookup — the contained fallback path. An unfilled
    // slot has no guard to fail, so a site's first execution pays only
    // the lookup and the refill.
    if (slot.filled) {
        MemModelScope mm(exec);
        RoutineScope r(exec, rIcHit);
        exec.alu(6);
        exec.load(bc);
        exec.branch(true); // guard fails
    }
    {
        CategoryScope pre(exec, Category::Precompile);
        RoutineScope r(exec, rIcHit);
        exec.alu(10);
        exec.store(bc);
    }
    slot.filled = true;
    slot.global = global;
    slot.name = name;
    slot.epoch = symbolEpoch;
    ++slot.misses;
    return false;
}

void
TclInterp::debugInvalidate(const std::string &script)
{
    if (!bc)
        return;
    auto it = bc->scripts.find(script);
    if (it == bc->scripts.end())
        return;
    // Events emitted while executing the compiled form are already in
    // the trace; recompiling would let a fresh run diverge from a
    // recorded one. Contained fatal.
    if (it->second.executed)
        fatal("tclish-bytecode: invalidating an already-executed "
              "compiled script (code mutated after first execution)");
    bc->scripts.erase(it);
}

} // namespace interp::tclish
