/**
 * @file
 * Unit tests for the instrumentation layer: code registry, address
 * mapping, routine scopes, attribution, and the Profile sink.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/logging.hh"
#include "trace/code_registry.hh"
#include "trace/execution.hh"
#include "trace/profile.hh"

namespace {

using namespace interp::trace;

/**
 * Sink that records every bundle, and the full event stream (bundles,
 * batch boundaries, commands, memory-model accesses) to check
 * delivery order.
 */
class Collector : public Sink
{
  public:
    void
    onBatch(const BundleBatch &batch) override
    {
        ++batches;
        for (const Bundle &b : batch) {
            bundles.push_back(b);
            events.push_back({'b', b.count});
        }
    }
    void onCommand(CommandId id) override { events.push_back({'c', id}); }
    void onMemModelAccess() override { events.push_back({'m', 0}); }

    std::vector<Bundle> bundles;
    std::vector<std::pair<char, uint32_t>> events;
    int batches = 0;
};

TEST(CodeRegistry, RoutinesDoNotOverlap)
{
    CodeRegistry reg;
    auto a = reg.registerRoutine("a", 10);
    auto b = reg.registerRoutine("b", 100);
    auto c = reg.registerRoutine("c", 1);
    const auto &ra = reg.routine(a);
    const auto &rb = reg.routine(b);
    const auto &rc = reg.routine(c);
    EXPECT_GE(rb.base, ra.base + ra.sizeInsts * 4);
    EXPECT_GE(rc.base, rb.base + rb.sizeInsts * 4);
    EXPECT_EQ(ra.base % 64, 0u) << "routines are 64-byte aligned";
}

TEST(CodeRegistry, SegmentsAreDisjoint)
{
    CodeRegistry reg;
    auto a = reg.registerRoutine("core", 1000, Segment::InterpCore);
    auto b = reg.registerRoutine("lib", 1000, Segment::NativeLib);
    EXPECT_NE(reg.routine(a).base & 0xfc000000,
              reg.routine(b).base & 0xfc000000);
}

TEST(AddressMapper, PreservesGranuleOffset)
{
    AddressMapper mapper;
    alignas(16) char buf[16] = {};
    uint32_t s = mapper.map(&buf[5]);
    uint32_t mask = (1u << AddressMapper::kGranuleBits) - 1;
    EXPECT_EQ(s & mask, 5u);
}

TEST(AddressMapper, SequentialWalkStaysSequential)
{
    AddressMapper mapper;
    alignas(16) static char arr[64];
    uint32_t a = mapper.map(&arr[0]);
    uint32_t b = mapper.map(&arr[16]);
    uint32_t c = mapper.map(&arr[36]);
    EXPECT_EQ(b - a, 16u);
    EXPECT_EQ(c - a, 36u);
}

TEST(AddressMapper, DistinctGranulesDistinctSynthGranules)
{
    AddressMapper mapper;
    alignas(16) static char big[3 * 16];
    uint32_t a = mapper.map(&big[0]);
    uint32_t b = mapper.map(&big[2 * 16]);
    EXPECT_NE(a >> AddressMapper::kGranuleBits,
              b >> AddressMapper::kGranuleBits);
    EXPECT_EQ(mapper.granulesTouched(), 2u);
}

TEST(AddressMapper, IndependentOfHostAddressValues)
{
    // Two mappers fed accesses with the same touch order and the same
    // intra-granule offsets produce identical synthetic addresses even
    // though the host base addresses differ — the property that makes
    // simulated cycles reproducible across ASLR and across threads.
    AddressMapper m1, m2;
    alignas(16) static char region1[256];
    alignas(16) static char region2[256];
    const size_t offsets[] = {0, 3, 48, 17, 240, 5};
    for (size_t off : offsets)
        EXPECT_EQ(m1.map(&region1[off]), m2.map(&region2[off]));
}

TEST(CommandSet, InternIsIdempotent)
{
    CommandSet set;
    auto a = set.intern("add");
    auto b = set.intern("sub");
    EXPECT_EQ(set.intern("add"), a);
    EXPECT_NE(a, b);
    EXPECT_EQ(set.name(a), "add");
    EXPECT_EQ(set.size(), 2u);
}

TEST(Execution, AluEmitsSequentialPcs)
{
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    auto r = exec.code().registerRoutine("work", 100);
    {
        RoutineScope scope(exec, r);
        exec.alu(5);
    }
    exec.flush();
    // call, alu-bundle, return
    ASSERT_EQ(sink.bundles.size(), 3u);
    EXPECT_EQ(sink.bundles[0].cls, InstClass::Call);
    EXPECT_EQ(sink.bundles[1].cls, InstClass::IntAlu);
    EXPECT_EQ(sink.bundles[1].count, 5u);
    EXPECT_EQ(sink.bundles[1].pc, exec.code().routine(r).base);
    EXPECT_EQ(sink.bundles[2].cls, InstClass::Return);
}

TEST(Execution, WrapEmitsTakenBranch)
{
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    auto r = exec.code().registerRoutine("tiny", 4);
    {
        RoutineScope scope(exec, r);
        exec.alu(10); // must wrap inside a 4-instruction routine
    }
    exec.flush();
    int branches = 0;
    uint32_t insts = 0;
    for (const auto &b : sink.bundles) {
        if (b.cls == InstClass::CondBranch) {
            EXPECT_TRUE(b.taken);
            ++branches;
        }
        insts += b.count;
        // PCs must stay inside the routine body (or be the call/ret).
        if (b.cls == InstClass::IntAlu) {
            const auto &routine = exec.code().routine(r);
            EXPECT_GE(b.pc, routine.base);
            EXPECT_LT(b.pc, routine.base + routine.sizeInsts * 4);
        }
    }
    EXPECT_GT(branches, 0);
    // Wrap branches are carved out of the requested count, so the
    // total emitted stays exactly what was asked for (plus call/ret).
    EXPECT_EQ(insts, 10u + 2u);
}

TEST(Execution, CategoriesAndFlagsPropagate)
{
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    exec.setCategory(Category::FetchDecode);
    exec.alu(1);
    {
        CategoryScope cat(exec, Category::Execute);
        MemModelScope mm(exec);
        exec.alu(1);
    }
    exec.alu(1);
    exec.flush();
    ASSERT_EQ(sink.bundles.size(), 3u);
    EXPECT_EQ(sink.bundles[0].cat, Category::FetchDecode);
    EXPECT_FALSE(sink.bundles[0].memModel);
    EXPECT_EQ(sink.bundles[1].cat, Category::Execute);
    EXPECT_TRUE(sink.bundles[1].memModel);
    EXPECT_EQ(sink.bundles[2].cat, Category::FetchDecode);
    EXPECT_FALSE(sink.bundles[2].memModel);
}

TEST(Execution, DispatchAndEndDispatch)
{
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    auto h = exec.code().registerRoutine("handler", 32);
    exec.dispatch(h);
    exec.alu(2);
    exec.endDispatch();
    exec.flush();
    ASSERT_EQ(sink.bundles.size(), 3u);
    EXPECT_EQ(sink.bundles[0].cls, InstClass::IndirectJump);
    EXPECT_EQ(sink.bundles[0].target, exec.code().routine(h).base);
    EXPECT_EQ(sink.bundles[2].cls, InstClass::Jump);
}

TEST(Execution, LoadsCarryMappedAddresses)
{
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    int value = 0;
    exec.load(&value);
    exec.store(&value);
    exec.flush();
    ASSERT_EQ(sink.bundles.size(), 2u);
    EXPECT_EQ(sink.bundles[0].cls, InstClass::Load);
    EXPECT_EQ(sink.bundles[0].memAddr, sink.bundles[1].memAddr);
}

TEST(Execution, CommandAttribution)
{
    Execution exec;
    CommandSet set;
    Profile profile;
    exec.addSink(&profile);
    auto add = set.intern("add");
    auto mul = set.intern("mul");

    exec.setCategory(Category::FetchDecode);
    exec.alu(10);
    exec.beginCommand(add);
    exec.setCategory(Category::Execute);
    exec.alu(3);
    exec.setCategory(Category::FetchDecode);
    exec.alu(10);
    exec.beginCommand(mul);
    exec.setCategory(Category::Execute);
    exec.alu(7);
    exec.flush();

    EXPECT_EQ(profile.commands(), 2u);
    EXPECT_EQ(profile.perCommand()[add].retired, 1u);
    EXPECT_EQ(profile.perCommand()[add].execute, 3u);
    EXPECT_EQ(profile.perCommand()[mul].execute, 7u);
    // The first fetch/decode block ran before any command and is
    // unattributed; the second belongs to `add`.
    EXPECT_EQ(profile.perCommand()[add].fetchDecode, 10u);
    EXPECT_EQ(profile.fetchDecodeInsts(), 20u);
    EXPECT_EQ(profile.executeInsts(), 10u);
}

TEST(Profile, ByExecuteSortsDescending)
{
    Execution exec;
    CommandSet set;
    Profile profile;
    exec.addSink(&profile);
    auto small = set.intern("small");
    auto big = set.intern("big");
    exec.beginCommand(small);
    exec.alu(5);
    exec.beginCommand(big);
    exec.alu(50);
    exec.flush();
    auto sorted = profile.byExecuteInsts();
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_EQ(sorted[0].first, big);
    EXPECT_DOUBLE_EQ(profile.cumulativeExecuteShare(1), 50.0 / 55.0);
    EXPECT_DOUBLE_EQ(profile.cumulativeExecuteShare(2), 1.0);
}

TEST(Profile, SystemWorkExcludedFromUserCounts)
{
    Execution exec;
    Profile profile;
    exec.addSink(&profile);
    exec.alu(10);
    {
        SystemScope sys(exec);
        exec.alu(90);
    }
    exec.flush();
    EXPECT_EQ(profile.instructions(), 100u);
    EXPECT_EQ(profile.systemInsts(), 90u);
    EXPECT_EQ(profile.userInstructions(), 10u);
    EXPECT_EQ(profile.executeInsts(), 10u);
}

TEST(Profile, MemModelAccounting)
{
    Execution exec;
    Profile profile;
    exec.addSink(&profile);
    for (int i = 0; i < 4; ++i) {
        MemModelScope mm(exec);
        exec.noteMemModelAccess();
        exec.alu(30);
    }
    exec.alu(80);
    exec.flush();
    EXPECT_EQ(profile.memModelAccesses(), 4u);
    EXPECT_DOUBLE_EQ(profile.memModelCostPerAccess(), 30.0);
    EXPECT_DOUBLE_EQ(profile.memModelFraction(), 120.0 / 200.0);
}

TEST(Execution, NestedRoutinesReturnToCaller)
{
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    auto outer = exec.code().registerRoutine("outer", 64);
    auto inner = exec.code().registerRoutine("inner", 64);
    {
        RoutineScope a(exec, outer);
        exec.alu(1);
        {
            RoutineScope b(exec, inner);
            exec.alu(1);
        }
        exec.alu(1);
    }
    exec.flush();
    // The post-call alu must continue inside `outer`.
    const auto &routine = exec.code().routine(outer);
    const Bundle &after = sink.bundles[sink.bundles.size() - 2];
    EXPECT_EQ(after.cls, InstClass::IntAlu);
    EXPECT_GE(after.pc, routine.base);
    EXPECT_LT(after.pc, routine.base + routine.sizeInsts * 4);
}

TEST(Execution, CallAsLastInstructionReturnsPastTheWrap)
{
    // A call that is the last instruction of its routine wraps the
    // caller's PC to the routine's base before the callee runs. On
    // return the caller resumes at that base, but the Return's target
    // is the call's own PC plus 4, one past the routine's end.
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    auto caller = exec.code().registerRoutine("caller", 4);
    auto callee = exec.code().registerRoutine("callee", 8);
    uint32_t base = exec.code().routine(caller).base;
    {
        RoutineScope outer(exec, caller);
        exec.alu(3);
        exec.callRoutine(callee);
        exec.alu(1);
        exec.returnRoutine();
        exec.alu(1);
    }
    exec.flush();
    // call caller, alu 3, call callee, alu 1, return, alu 1, return.
    ASSERT_EQ(sink.bundles.size(), 7u);
    const Bundle &call = sink.bundles[2];
    EXPECT_EQ(call.cls, InstClass::Call);
    EXPECT_EQ(call.pc, base + 12) << "the routine's last instruction";
    EXPECT_EQ(call.target, exec.code().routine(callee).base);
    const Bundle &ret = sink.bundles[4];
    EXPECT_EQ(ret.cls, InstClass::Return);
    EXPECT_EQ(ret.pc, exec.code().routine(callee).base + 4);
    EXPECT_EQ(ret.target, base + 16) << "pre-wrap PC + 4";
    const Bundle &resumed = sink.bundles[5];
    EXPECT_EQ(resumed.cls, InstClass::IntAlu);
    EXPECT_EQ(resumed.pc, base) << "the caller resumes at its base";
}

/** Every counter of two profiles, per command included. */
void
expectSameProfile(const Profile &a, const Profile &b)
{
    EXPECT_EQ(a.commands(), b.commands());
    EXPECT_EQ(a.instructions(), b.instructions());
    EXPECT_EQ(a.fetchDecodeInsts(), b.fetchDecodeInsts());
    EXPECT_EQ(a.executeInsts(), b.executeInsts());
    EXPECT_EQ(a.precompileInsts(), b.precompileInsts());
    EXPECT_EQ(a.nativeLibInsts(), b.nativeLibInsts());
    EXPECT_EQ(a.memModelInsts(), b.memModelInsts());
    EXPECT_EQ(a.systemInsts(), b.systemInsts());
    EXPECT_EQ(a.memModelAccesses(), b.memModelAccesses());
    ASSERT_EQ(a.perCommand().size(), b.perCommand().size());
    for (size_t i = 0; i < a.perCommand().size(); ++i) {
        const CommandStats &x = a.perCommand()[i];
        const CommandStats &y = b.perCommand()[i];
        EXPECT_EQ(x.retired, y.retired) << "command " << i;
        EXPECT_EQ(x.fetchDecode, y.fetchDecode) << "command " << i;
        EXPECT_EQ(x.execute, y.execute) << "command " << i;
        EXPECT_EQ(x.nativeLib, y.nativeLib) << "command " << i;
        EXPECT_EQ(x.memModel, y.memModel) << "command " << i;
    }
}

TEST(Profile, SourceCountingMatchesBatches)
{
    // The same emission counted at the source, with and without a
    // batch sink beside it, and fed to a Profile as batches.
    auto script = [](Execution &exec) {
        CommandSet set;
        auto a = set.intern("a");
        auto b = set.intern("b");
        auto h = exec.code().registerRoutine("handler", 6);
        int cell = 0;
        exec.alu(3); // kNoCommand
        exec.emitAt(0x400000, InstClass::IntAlu, 0); // zero-count
        exec.beginCommand(a);
        for (int i = 0; i < 300; ++i) { // crosses a full batch
            exec.setCategory(i % 3 ? Category::Execute
                                   : Category::FetchDecode);
            exec.load(&cell);
            exec.branch(i & 1);
        }
        {
            RoutineScope r(exec, h);
            MemModelScope mm(exec);
            exec.noteMemModelAccess();
            exec.alu(20); // wraps the 6-instruction handler
            NativeScope nat(exec);
            exec.store(&cell);
            exec.flush(); // mid-run, inside an open run
            exec.floatOp(2);
        }
        exec.beginCommand(b);
        {
            SystemScope sys(exec);
            exec.alu(9);
        }
        exec.resumeCommand(a);
        exec.shortInt(4);
        exec.dispatch(h);
        exec.nop(1);
        exec.endDispatch();
        exec.setCategory(Category::Precompile);
        exec.alu(5);
        exec.resumeCommand(kNoCommand);
        exec.setCategory(Category::Execute);
        exec.alu(2);
        exec.emitAt(0x400040, InstClass::Load, 0, 0x40000000);
        exec.flush();
    };

    Profile alone, beside, batched;
    {
        Execution exec;
        exec.countInto(&alone);
        script(exec);
    }
    {
        Execution exec;
        exec.countInto(&beside);
        exec.addSink(&batched);
        script(exec);
    }
    EXPECT_EQ(batched.commands(), 2u);
    EXPECT_EQ(batched.memModelAccesses(), 1u);
    EXPECT_GT(batched.systemInsts(), 0u);
    EXPECT_GT(batched.nativeLibInsts(), 0u);
    EXPECT_GT(batched.precompileInsts(), 0u);
    expectSameProfile(alone, batched);
    expectSameProfile(beside, batched);
}

TEST(Profile, CounterTableEdgesMatchBatches)
{
    // A counted Execution keeps one counter per attribution in a table
    // with a row for every CommandId, reused by the thread's next
    // counted Execution once zeroed. Its edges: the last command id
    // and kNoCommand, repeated flushes inside one open attribution, a
    // row no retirement selected, a budget stop and a deadline abort
    // that leave counts unfolded, and two counted Executions alive at
    // once. Each run is counted alone and beside a batch sink, in that
    // order, so a count the first leaves in the table shows in the
    // second. (A table that used the last rows is unmapped, not kept,
    // so the runs that leave counts unfolded use low command ids.)
    constexpr CommandId kLast = kNoCommand - 1;
    struct Case
    {
        const char *name;
        std::function<void(Execution &)> script;
    };
    const Case cases[] = {
        {"last id, kNoCommand, repeated flushes",
         [](Execution &exec) {
             exec.alu(3); // kNoCommand
             exec.beginCommand(kLast);
             exec.setCategory(Category::FetchDecode);
             exec.alu(5);
             exec.flush(); // inside the open attribution
             exec.alu(7);
             exec.flush(); // and again
             exec.flush();
             exec.alu(11);
             exec.setCategory(Category::Execute);
             {
                 MemModelScope mm(exec);
                 NativeScope nat(exec);
                 exec.alu(13);
             }
             exec.resumeCommand(kNoCommand);
             exec.alu(17);
             exec.beginCommand(0);
             exec.alu(19);
             exec.flush();
         }},
        {"a row only resumeCommand selects",
         [](Execution &exec) {
             exec.beginCommand(0);
             exec.alu(1);
             exec.resumeCommand(9); // never retired, above every row
             exec.alu(2);
             exec.flush();
         }},
        {"budget stop",
         [](Execution &exec) {
             auto r = exec.code().registerRoutine("body", 8);
             exec.setCommandBudget(3);
             try {
                 RoutineScope scope(exec, r); // returns after the stop
                 for (uint32_t i = 0;; ++i) {
                     exec.beginCommand(i % 2 ? 2 : 1);
                     exec.alu(100 + i);
                 }
             } catch (const BudgetExhausted &) {
             }
             exec.alu(23); // after the stop: reaches neither
             exec.flush();
         }},
        {"deadline abort",
         [](Execution &exec) {
             exec.setDeadline(Execution::Clock::now() +
                              std::chrono::milliseconds(100));
             exec.beginCommand(3);
             exec.alu(40); // the first safepoint: the next is 4096 on
             exec.resumeCommand(kNoCommand);
             exec.alu(2);
             exec.flush();
             std::this_thread::sleep_for(std::chrono::milliseconds(150));
             EXPECT_THROW(exec.alu(5000), DeadlineExpired);
             exec.flush();
         }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Profile alone, beside, batched;
        {
            Execution exec;
            exec.countInto(&alone);
            c.script(exec);
        }
        {
            Execution exec;
            exec.countInto(&beside);
            exec.addSink(&batched);
            c.script(exec);
        }
        EXPECT_GT(batched.instructions(), 0u);
        expectSameProfile(alone, batched);
        expectSameProfile(beside, batched);
    }

    // Two counted Executions alive at once on this thread, the second
    // beside a batch sink, must not share a table, though the thread
    // holds a spare one when the first takes it.
    {
        Profile warm;
        Execution exec;
        exec.countInto(&warm);
        exec.alu(1);
        exec.flush();
    }
    auto step = [](Execution &exec, int i, uint32_t scale) {
        switch (i) {
          case 0:
            exec.beginCommand(kLast);
            exec.alu(scale);
            break;
          case 1:
            exec.setCategory(Category::FetchDecode);
            exec.alu(2 * scale);
            break;
          case 2:
            exec.resumeCommand(kNoCommand);
            exec.alu(3 * scale);
            break;
          default:
            exec.beginCommand(7);
            exec.alu(5 * scale);
            exec.flush();
        }
    };
    Profile first, second, secondBatched, firstRef, secondRef;
    {
        Execution a, b;
        a.countInto(&first);
        b.countInto(&second);
        b.addSink(&secondBatched);
        for (int i = 0; i < 4; ++i) {
            step(a, i, 1);
            step(b, i, 10);
        }
    }
    for (auto [ref, scale] : {std::pair{&firstRef, 1u}, {&secondRef, 10u}}) {
        Execution exec;
        exec.addSink(ref);
        for (int i = 0; i < 4; ++i)
            step(exec, i, scale);
    }
    EXPECT_EQ(firstRef.instructions(), 11u);
    expectSameProfile(first, firstRef);
    expectSameProfile(second, secondRef);
    expectSameProfile(secondBatched, secondRef);
}

TEST(Profile, CountingOnlyMatchesBatchesAcrossEveryPrimitive)
{
    // A counting-only run takes the fast path wherever the attribution
    // of one primitive matches the run the previous one opened. Flip
    // the attribution between every pair of consecutive primitives,
    // keep it between others, wrap the routine's end and mix in zero
    // counts; the count must still equal a batched Profile's.
    auto script = [](Execution &exec) {
        CommandSet set;
        auto a = set.intern("a");
        auto b = set.intern("b");
        auto h = exec.code().registerRoutine("handler", 5);
        int cell = 0;
        const std::vector<std::function<void()>> primitives = {
            [&] { exec.alu(7); }, // wraps the 5-instruction handler
            [&] { exec.shortInt(2); },
            [&] { exec.floatOp(1); },
            [&] { exec.nop(0); },
            [&] { exec.load(&cell); },
            [&] { exec.store(&cell); },
            [&] { exec.loadAt(0x40000010); },
            [&] { exec.storeAt(0x40000020); },
            [&] { exec.branch(true); },
            [&] { exec.emitAt(0x400000, InstClass::IntAlu, 0); },
            [&] { exec.alu(0); },
            [&] { exec.emitAt(0x400004, InstClass::Load, 2, 0x40000000); },
            [&] {
                exec.callRoutine(h);
                exec.alu(11);
                exec.returnRoutine();
            },
            [&] {
                exec.dispatch(h);
                exec.nop(3);
                exec.endDispatch();
            },
        };
        // Each flip changes one part of the attribution: the category,
        // a scope flag or the command.
        const std::vector<std::function<void(int)>> flips = {
            [&](int i) {
                exec.setCategory(i % 3 == 0   ? Category::FetchDecode
                                 : i % 3 == 1 ? Category::Execute
                                              : Category::Precompile);
            },
            [&](int i) { exec.setMemModel(i & 1); },
            [&](int i) { exec.setNative(i & 1); },
            [&](int i) { exec.setSystem(i & 1); },
            [&](int i) { exec.resumeCommand(i & 1 ? a : b); },
            [&](int) {}, // no flip: the fast path
        };
        exec.beginCommand(a);
        int i = 0;
        for (size_t round = 0; round < 40; ++round) {
            for (const auto &primitive : primitives) {
                flips[(i + round) % flips.size()](i);
                primitive();
                ++i;
            }
            if (round % 7 == 0) {
                MemModelScope mm(exec);
                exec.noteMemModelAccess();
                exec.beginCommand(round & 1 ? a : b);
            }
        }
        exec.flush();
    };

    Profile alone, batched;
    {
        Execution exec;
        exec.countInto(&alone);
        script(exec);
    }
    {
        Execution exec;
        exec.addSink(&batched);
        script(exec);
    }
    EXPECT_GT(batched.systemInsts(), 0u);
    EXPECT_GT(batched.nativeLibInsts(), 0u);
    EXPECT_GT(batched.memModelInsts(), 0u);
    EXPECT_GT(batched.precompileInsts(), 0u);
    EXPECT_GT(batched.memModelAccesses(), 0u);
    expectSameProfile(alone, batched);
}

TEST(Profile, EverySetterAndScopeReachesTheInlinePath)
{
    // The counting fast path, inline in the caller, tests one cached
    // attribution word against the open run. Every setter,
    // beginCommand, resumeCommand and the four RAII scopes, nested and
    // then unwound by an exception, must keep that word current. Each
    // step emits a distinct count twice, so the second emission takes
    // the fast path; the totals identify which attribution got each
    // count, counted at the source alone, beside a batch sink and in
    // that batch sink.
    struct Unwind
    {
    };
    auto script = [](Execution &exec) {
        CommandSet set;
        auto a = set.intern("a");
        auto b = set.intern("b");
        auto twice = [&](uint32_t n) {
            exec.alu(n);
            exec.alu(n);
        };
        exec.beginCommand(a);
        twice(1); // a, execute
        exec.setCategory(Category::FetchDecode);
        twice(2); // a, fetch/decode
        exec.setCategory(Category::Precompile);
        twice(4); // precompile
        exec.setCategory(Category::Execute);
        exec.setMemModel(true);
        twice(8); // a, execute, memory model
        exec.setMemModel(false);
        exec.setNative(true);
        twice(16); // a, execute, native
        exec.setNative(false);
        exec.setSystem(true);
        twice(32); // system
        exec.setSystem(false);
        exec.beginCommand(b);
        twice(64); // b, execute
        exec.resumeCommand(a);
        twice(128); // a, execute
        try {
            CategoryScope fd(exec, Category::FetchDecode);
            twice(256); // a, fetch/decode
            MemModelScope mm(exec);
            twice(512); // a, fetch/decode, memory model
            NativeScope nat(exec);
            twice(1024); // a, fetch/decode, memory model, native
            SystemScope sys(exec);
            twice(2048); // system
            throw Unwind{};
        } catch (const Unwind &) {
        }
        EXPECT_EQ(exec.category(), Category::Execute);
        EXPECT_FALSE(exec.inMemModel());
        EXPECT_FALSE(exec.inNative());
        EXPECT_FALSE(exec.inSystem());
        EXPECT_EQ(exec.currentCommand(), a);
        twice(4096); // a, execute
        exec.flush();
    };
    auto expectAttributed = [](const Profile &p) {
        EXPECT_EQ(p.commands(), 2u);
        EXPECT_EQ(p.instructions(), 2u * 8191);
        EXPECT_EQ(p.systemInsts(), 2u * (32 + 2048));
        EXPECT_EQ(p.fetchDecodeInsts(), 2u * (2 + 256 + 512 + 1024));
        EXPECT_EQ(p.executeInsts(), 2u * (1 + 8 + 16 + 64 + 128 + 4096));
        EXPECT_EQ(p.precompileInsts(), 2u * 4);
        EXPECT_EQ(p.nativeLibInsts(), 2u * (16 + 1024));
        EXPECT_EQ(p.memModelInsts(), 2u * (8 + 512 + 1024));
        ASSERT_EQ(p.perCommand().size(), 2u);
        const CommandStats &a = p.perCommand()[0];
        const CommandStats &b = p.perCommand()[1];
        EXPECT_EQ(a.fetchDecode, 2u * (2 + 256 + 512 + 1024));
        EXPECT_EQ(a.execute, 2u * (1 + 8 + 16 + 128 + 4096));
        EXPECT_EQ(a.nativeLib, 2u * 16);
        EXPECT_EQ(a.memModel, 2u * 8);
        EXPECT_EQ(b.execute, 2u * 64);
        EXPECT_EQ(b.fetchDecode + b.nativeLib + b.memModel, 0u);
    };

    Profile alone, beside, batched;
    {
        Execution exec;
        exec.countInto(&alone);
        script(exec);
    }
    {
        Execution exec;
        exec.countInto(&beside);
        exec.addSink(&batched);
        script(exec);
    }
    {
        SCOPED_TRACE("counting only");
        expectAttributed(alone);
    }
    {
        SCOPED_TRACE("beside a batch sink");
        expectAttributed(beside);
    }
    {
        SCOPED_TRACE("batch sink");
        expectAttributed(batched);
    }
}

TEST(Execution, LateSinkAttachIsFatal)
{
    // A sink attached mid-run would silently miss the prefix of the
    // stream (a partial trace recording, a wrong profile); the
    // Execution seals its sink list at the first emitted event.
    Execution exec;
    Profile early;
    exec.addSink(&early);
    exec.alu(1);
    Profile late;
    interp::ScopedFatalThrow contain;
    EXPECT_THROW(exec.addSink(&late), interp::FatalError);
    EXPECT_THROW(exec.countInto(&late), interp::FatalError);
}

TEST(Execution, LateSinkAttachAfterCommandIsFatal)
{
    Execution exec;
    CommandSet set;
    exec.beginCommand(set.intern("cmd"));
    Profile late;
    interp::ScopedFatalThrow contain;
    EXPECT_THROW(exec.addSink(&late), interp::FatalError);
}

TEST(Batch, FullBatchDeliversWithoutFlush)
{
    // The batch drains to the sinks on its own once kCapacity bundles
    // accumulate; only the tail needs an explicit flush.
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    for (uint32_t i = 0; i < BundleBatch::kCapacity; ++i)
        exec.load(&sink);
    EXPECT_EQ(sink.batches, 1);
    EXPECT_EQ(sink.events.size(), (size_t)BundleBatch::kCapacity);
    exec.load(&sink);
    EXPECT_EQ(sink.batches, 1) << "one pending bundle must not deliver";
    exec.flush();
    EXPECT_EQ(sink.batches, 2);
    EXPECT_EQ(sink.events.size(), (size_t)BundleBatch::kCapacity + 1);
}

TEST(Batch, PushIntoFullBatchIsFatal)
{
    // Regression: push used to write past the 256-bundle capacity
    // silently (clobbering a neighbouring column in the SoA layout);
    // the 257th push must now die in fatal() instead.
    BundleBatch batch;
    Bundle b;
    b.pc = 4;
    b.count = 1;
    for (uint32_t i = 0; i < BundleBatch::kCapacity; ++i)
        batch.push(b);
    EXPECT_EQ(batch.size(), BundleBatch::kCapacity);
    interp::ScopedFatalThrow contain;
    EXPECT_THROW(batch.push(b), interp::FatalError);
    EXPECT_THROW(batch.pushPacked(4, 1, 0, 0, kNoCommand, 0, 0),
                 interp::FatalError);
}

TEST(Batch, SoaRoundTripPreservesBundleFields)
{
    // push() packs into columns; get()/iteration reconstructs. Every
    // field must survive the round trip, including the packed
    // class/category and flag bits.
    BundleBatch batch;
    Bundle b;
    b.pc = 0x1234;
    b.count = 7;
    b.cls = InstClass::CondBranch;
    b.cat = Category::FetchDecode;
    b.memModel = true;
    b.native = false;
    b.system = true;
    b.taken = true;
    b.command = 42;
    b.memAddr = 0xdeadbeef;
    b.target = 0x4321;
    batch.push(b);
    Bundle r = batch[0];
    EXPECT_EQ(r.pc, b.pc);
    EXPECT_EQ(r.count, b.count);
    EXPECT_EQ(r.cls, b.cls);
    EXPECT_EQ(r.cat, b.cat);
    EXPECT_EQ(r.memModel, b.memModel);
    EXPECT_EQ(r.native, b.native);
    EXPECT_EQ(r.system, b.system);
    EXPECT_EQ(r.taken, b.taken);
    EXPECT_EQ(r.command, b.command);
    EXPECT_EQ(r.memAddr, b.memAddr);
    EXPECT_EQ(r.target, b.target);
}

TEST(Batch, NonBundleEventsKeepStreamOrder)
{
    // Commands and memory-model accesses flush the pending batch
    // first, so every sink observes the exact emission order — the
    // property that keeps recorded traces byte-identical.
    Execution exec;
    CommandSet set;
    Collector sink;
    exec.addSink(&sink);
    auto add = set.intern("add");
    exec.alu(2);
    exec.beginCommand(add);
    exec.alu(3);
    exec.noteMemModelAccess();
    exec.alu(4);
    exec.flush();
    std::vector<std::pair<char, uint32_t>> expected = {
        {'b', 2}, {'c', add}, {'b', 3}, {'m', 0}, {'b', 4}};
    EXPECT_EQ(sink.events, expected);
}

TEST(Batch, FlushIsIdempotent)
{
    Execution exec;
    Collector sink;
    exec.addSink(&sink);
    exec.alu(1);
    exec.flush();
    exec.flush();
    EXPECT_EQ(sink.batches, 1);
    EXPECT_EQ(sink.events.size(), 1u);
}

/** A Collector that throws after recording each batch. */
class ThrowingSink : public Collector
{
  public:
    void
    onBatch(const BundleBatch &batch) override
    {
        Collector::onBatch(batch);
        throw std::runtime_error("sink failed");
    }
};

TEST(Batch, SinkThrowingFromAReturnsFlushReachesTheCaller)
{
    // A call, kCapacity - 2 branches and the return: the return is the
    // bundle that fills the batch, so its flush runs from
    // RoutineScope's destructor.
    auto fill_batch = [](Execution &exec, bool body_throws) {
        RoutineScope scope(exec, exec.code().registerRoutine("body", 16));
        for (uint32_t i = 0; i + 2 < BundleBatch::kCapacity; ++i)
            exec.branch(false);
        if (body_throws)
            throw std::logic_error("body failed");
    };

    // The sink's throw leaves the destructor and fails the run; the
    // aborted run delivers nothing more.
    {
        Execution exec;
        ThrowingSink sink;
        exec.addSink(&sink);
        EXPECT_THROW(fill_batch(exec, false), std::runtime_error);
        EXPECT_EQ(sink.batches, 1);
        EXPECT_EQ(sink.bundles.size(), (size_t)BundleBatch::kCapacity);
        EXPECT_EQ(sink.bundles.back().cls, InstClass::Return);
        exec.alu(1);
        exec.flush();
        EXPECT_EQ(sink.batches, 1) << "delivered after the abort";
    }
    // While the body's own exception unwinds, the full batch is
    // dropped instead of delivered, so the sink cannot throw a second
    // exception from the destructor.
    {
        Execution exec;
        ThrowingSink sink;
        exec.addSink(&sink);
        EXPECT_THROW(fill_batch(exec, true), std::logic_error);
        EXPECT_EQ(sink.batches, 0);
        exec.alu(1);
        exec.flush();
        EXPECT_EQ(sink.batches, 0) << "delivered after the abort";
    }
}

TEST(Deadline, PastDeadlineThrowsOnceAtTheFirstEmission)
{
    // The first emission is a safepoint: a deadline already past
    // aborts the run there, exactly once. The aborting run then
    // delivers nothing more, so the routine returns an unwind emits
    // can neither throw again nor reach a sink.
    Execution exec;
    CommandSet set;
    Collector sink;
    exec.addSink(&sink);
    auto r = exec.code().registerRoutine("body", 16);
    exec.setDeadline(Execution::Clock::now() - std::chrono::seconds(1));
    EXPECT_THROW(exec.alu(1), DeadlineExpired);
    EXPECT_NO_THROW({
        for (uint32_t i = 0; i < 3 * BundleBatch::kCapacity; ++i) {
            RoutineScope scope(exec, r);
            exec.alu(5000);
            exec.load(&sink);
        }
        exec.beginCommand(set.intern("cmd"));
        exec.noteMemModelAccess();
        exec.flush();
    });
    EXPECT_TRUE(sink.events.empty());
    EXPECT_EQ(sink.batches, 0);
}

/**
 * One primitive that is a safepoint, a routine entered for the ones
 * that return from it, and a name for the failure message.
 */
struct SafepointCase
{
    const char *name;
    std::function<void(Execution &, RoutineId)> emit;
};

const std::vector<SafepointCase> &
safepointCases()
{
    static int cell = 0;
    static const std::vector<SafepointCase> cases = {
        {"alu", [](Execution &e, RoutineId) { e.alu(5000); }},
        {"load", [](Execution &e, RoutineId) { e.load(&cell); }},
        {"branch", [](Execution &e, RoutineId) { e.branch(false); }},
        {"callRoutine",
         [](Execution &e, RoutineId r) {
             e.callRoutine(r);
             e.returnRoutine();
         }},
        {"dispatch",
         [](Execution &e, RoutineId r) {
             e.dispatch(r);
             e.endDispatch();
         }},
        {"emitAt",
         [](Execution &e, RoutineId) {
             e.emitAt(0x400000, InstClass::IntAlu, 3);
         }},
    };
    return cases;
}

TEST(Deadline, CountingOnlyRunStopsAtItsFirstSafepoint)
{
    // Under a deadline already past, a counting-only run whose only
    // emissions are one of these primitives stops at the first one:
    // both when it opens the run and when it only adds to an open one
    // (the counting fast path).
    auto past = Execution::Clock::now() - std::chrono::seconds(1);
    for (const SafepointCase &c : safepointCases()) {
        for (bool open_run : {false, true}) {
            SCOPED_TRACE(std::string(c.name) +
                         (open_run ? ", run open" : ", first emission"));
            Execution exec;
            Profile profile;
            exec.countInto(&profile);
            auto r = exec.code().registerRoutine("body", 16);
            if (open_run)
                exec.alu(1); // same attribution, no deadline yet
            exec.setDeadline(past);
            EXPECT_THROW(c.emit(exec, r), DeadlineExpired);
        }
    }
}

TEST(Deadline, ReturnsAreNeverSafepoints)
{
    // A return or endDispatch under a deadline already past counts its
    // instruction and does not throw; the next emission does.
    auto past = Execution::Clock::now() - std::chrono::seconds(1);
    for (bool via_dispatch : {false, true}) {
        SCOPED_TRACE(via_dispatch ? "endDispatch" : "returnRoutine");
        Execution exec;
        Profile profile;
        exec.countInto(&profile);
        auto r = exec.code().registerRoutine("body", 16);
        if (via_dispatch)
            exec.dispatch(r);
        else
            exec.callRoutine(r);
        exec.setDeadline(past);
        EXPECT_NO_THROW({
            if (via_dispatch)
                exec.endDispatch();
            else
                exec.returnRoutine();
        });
        EXPECT_THROW(exec.nop(1), DeadlineExpired);
    }
}

TEST(Deadline, CountingFastPathReadsTheClockOnlyAtSafepoints)
{
    // The first emission reads the clock and schedules the next read
    // 4096 instructions on. A deadline that passes in between stops the
    // run at that safepoint: not before it, and not after the alu that
    // crosses it, though that alu adds to an open run.
    Execution exec;
    Profile profile;
    exec.countInto(&profile);
    exec.setDeadline(Execution::Clock::now() + std::chrono::milliseconds(100));
    exec.alu(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_NO_THROW(exec.alu(4095)); // 4096: one short of the safepoint
    EXPECT_THROW(exec.alu(2), DeadlineExpired);
}

TEST(ExecutionDeathTest, CountingOnlyRunKeepsTheRoutineStackPairing)
{
    // Without a batch sink no PC is stepped, but every call and dispatch
    // still pushes a frame, so a mismatched or unmatched leave panics
    // as it does with a sink.
    auto counting = [](auto body) {
        Execution exec;
        Profile profile;
        exec.countInto(&profile);
        body(exec, exec.code().registerRoutine("body", 16));
    };
    EXPECT_DEATH(counting([](Execution &e, RoutineId r) {
                     e.callRoutine(r);
                     e.endDispatch();
                 }),
                 "endDispatch from call frame");
    EXPECT_DEATH(counting([](Execution &e, RoutineId r) {
                     e.dispatch(r);
                     e.returnRoutine();
                 }),
                 "returnRoutine from dispatch frame");
    EXPECT_DEATH(counting([](Execution &e, RoutineId) { e.returnRoutine(); }),
                 "returnRoutine with empty routine stack");
}

} // namespace
