#include "jvm/vm.hh"

#include "support/logging.hh"

namespace interp::jvm {

using trace::Category;
using trace::CategoryScope;
using trace::MemModelScope;
using trace::RoutineScope;

namespace {
constexpr uint32_t kStackSlots = 1u << 16;
constexpr uint32_t kLocalSlots = 1u << 16;
} // namespace

Vm::Vm(trace::Execution &exec_, vfs::FileSystem &fs_, bool quick)
    : exec(exec_), fs(fs_), heap_(exec_), native(exec_, fs_),
      quickMode(quick)
{
    auto &code = exec.code();
    rLoop = code.registerRoutine("jvm.loop", 80);
    rStack = code.registerRoutine("jvm.op.stack", 64);
    rStatic = code.registerRoutine("jvm.op.static", 64);
    rArray = code.registerRoutine("jvm.op.array", 96);
    rArith = code.registerRoutine("jvm.op.arith", 96);
    rBranch = code.registerRoutine("jvm.op.branch", 64);
    rInvoke = code.registerRoutine("jvm.op.invoke", 128);
    rNative = code.registerRoutine("jvm.op.native", 96);
    rNew = code.registerRoutine("jvm.op.new", 64);
    // Only in quick mode, so the baseline VM's synthetic code layout
    // is unchanged by the existence of the quickening pass.
    if (quickMode)
        rQuicken = code.registerRoutine("jvm.quicken", 64);

    for (size_t i = 0; i < (size_t)Bc::NumOps; ++i)
        bcCommand[i] = commands.intern(bcName((Bc)i));

    stack.resize(kStackSlots);
    locals.resize(kLocalSlots);
    heap_.setRootScanner(&Vm::scanRoots, this);
}

void
Vm::scanRoots(void *ctx, std::vector<const int32_t *> &ranges,
              std::vector<size_t> &lengths)
{
    auto *vm = (Vm *)ctx;
    ranges.push_back(vm->stack.data());
    lengths.push_back(vm->sp);
    ranges.push_back(vm->locals.data());
    lengths.push_back(vm->localsTop);
    ranges.push_back(vm->statics.data());
    lengths.push_back(vm->statics.size());
    ranges.push_back(vm->stringRefs.data());
    lengths.push_back(vm->stringRefs.size());
}

void
Vm::load(const Module &module_)
{
    moduleStorage = module_;
    module = &moduleStorage;
    sharedModule.reset();
    initLoaded();
}

void
Vm::loadShared(std::shared_ptr<const Module> module_)
{
    sharedModule = std::move(module_);
    module = sharedModule.get();
    moduleStorage = Module(); // drop any previous private copy
    initLoaded();
}

void
Vm::useArtifact(std::shared_ptr<const TierArtifact> artifact_)
{
    artifact = artifact_;
    // The artifact owns its pre-quickened module; alias its lifetime.
    loadShared(std::shared_ptr<const Module>(std::move(artifact_),
                                             &artifact->module));
}

void
Vm::initLoaded()
{
    sp = 0;
    localsTop = 0;
    frames.clear();

    // Statics: scalars hold initValue; array fields are allocated and
    // seeded now (like <clinit>).
    statics.assign(module->fields.size(), 0);
    for (size_t i = 0; i < module->fields.size(); ++i) {
        const FieldDesc &f = module->fields[i];
        if (!f.isArray) {
            statics[i] = f.initValue;
            continue;
        }
        int32_t ref = heap_.alloc(f.elemBytes, f.arrayLen);
        for (size_t j = 0; j < f.initData.size(); ++j)
            heap_.storeElem(ref, (int32_t)j, f.initData[j]);
        statics[i] = ref;
    }

    // Intern string literals as byte arrays (NUL-terminated).
    stringRefs.clear();
    for (const std::string &s : module->strings) {
        int32_t ref = heap_.alloc(1, (int32_t)s.size() + 1);
        for (size_t j = 0; j < s.size(); ++j)
            heap_.storeElem(ref, (int32_t)j, (uint8_t)s[j]);
        stringRefs.push_back(ref);
    }

    if (module->mainFunc < 0)
        fatal("jvm: module has no main function");
    pushFrame(module->mainFunc);
}

void
Vm::push(int32_t value)
{
    if (sp >= kStackSlots)
        fatal("jvm: operand stack overflow");
    stack[sp] = value;
    exec.store(&stack[sp]);
    exec.alu(1);
    ++sp;
}

int32_t
Vm::pop()
{
    if (sp == 0)
        panic("jvm: operand stack underflow");
    --sp;
    exec.load(&stack[sp]);
    exec.alu(1);
    return stack[sp];
}

void
Vm::pushFrame(int func_id)
{
    const FuncDesc &fn = module->funcs[func_id];
    if (localsTop + fn.numLocals > kLocalSlots)
        fatal("jvm: call stack overflow in %s", fn.name.c_str());
    Frame frame;
    frame.funcId = func_id;
    frame.pc = 0;
    frame.localsBase = localsTop;
    localsTop += (uint32_t)fn.numLocals;
    // Pop arguments into the first param slots (right-to-left).
    for (int i = fn.numParams - 1; i >= 0; --i)
        locals[frame.localsBase + i] = pop();
    for (int i = fn.numParams; i < fn.numLocals; ++i)
        locals[frame.localsBase + i] = 0;
    frame.stackBase = sp;
    frames.push_back(frame);
}

bool
Vm::quickenable(Bc op)
{
    switch (op) {
      case Bc::IConst: case Bc::LdcStr: case Bc::ILoad: case Bc::IStore:
      case Bc::GetStatic: case Bc::PutStatic:
        return true;
      default:
        return false;
    }
}

void
Vm::quicken(Insn &insn)
{
    // Rewriting an instruction that already carries its quickened
    // encoding would mutate executed code a second time — a recorded
    // trace could no longer match a fresh run. Contained fatal.
    if (insn.quick)
        fatal("jvm-quick: rewriting already-quickened bytecode "
              "(code mutated after first execution)");
    CategoryScope pre(exec, Category::Precompile);
    RoutineScope r(exec, rQuicken);
    exec.alu(6);       // resolve operand, select quickened form
    insn.quick = true;
    exec.store(&insn); // in-place rewrite
}

void
Vm::debugQuicken(int func_id, uint32_t pc)
{
    if (func_id < 0 || (size_t)func_id >= moduleStorage.funcs.size())
        fatal("jvm: debugQuicken: bad function id %d", func_id);
    FuncDesc &fn = moduleStorage.funcs[func_id];
    if (pc >= fn.code.size())
        fatal("jvm: debugQuicken: pc %u out of range in %s", pc,
              fn.name.c_str());
    quicken(fn.code[pc]);
}

int32_t
Vm::staticValue(const std::string &name) const
{
    for (size_t i = 0; i < module->fields.size(); ++i)
        if (module->fields[i].name == name)
            return statics[i];
    fatal("jvm: no static field '%s'", name.c_str());
}

int
Vm::run()
{
    if (!module)
        panic("Vm::run before load()");
    int exit_code = 0;

    while (!frames.empty()) {
        Frame &frame = frames.back();
        const FuncDesc &fn = module->funcs[frame.funcId];
        if (frame.pc >= fn.code.size())
            fatal("jvm: pc out of range in %s", fn.name.c_str());
        const Insn &insn = fn.code[frame.pc];

        if (pairSink) {
            // Host-side pair profiling (zero emission): count op b
            // retiring at pc+1 of op a in the same frame — exactly
            // the successions a fused handler could serve.
            if (prevFunc == frame.funcId && frames.size() == prevDepth &&
                frame.pc == prevPc + 1)
                pairSink->note(prevOp, insn.op);
            prevOp = insn.op;
            prevPc = frame.pc;
            prevFunc = frame.funcId;
            prevDepth = frames.size();
        }

        // ---- fetch & decode: uniform and cheap (the JVM way) ----------
        uint8_t fuseRole = TierArtifact::kFuseNone;
        if (artifact)
            fuseRole = artifact->fuse[frame.funcId][frame.pc];
        if (fusePending && fuseRole == TierArtifact::kFuseTail) {
            // Superinstruction continuation: the fused handler falls
            // straight through into its tail — no re-fetch, no
            // dispatch, one native instruction of glue.
            CategoryScope fd(exec, Category::FetchDecode);
            RoutineScope loop(exec, rLoop);
            exec.alu(1);
        } else if (quickMode && insn.quick) {
            // Quickened form: operands were resolved inline by the
            // rewrite, so fetch skips the dispatch-table indirection
            // and most of the operand decode (§5 remedy).
            CategoryScope fd(exec, Category::FetchDecode);
            RoutineScope loop(exec, rLoop);
            exec.alu(2);                       // loop bookkeeping
            exec.load(&fn.code[frame.pc]);     // bytecode fetch
            exec.shortInt(1);                  // opcode extract
            exec.branch(false);                // bounds/halt test
            exec.alu(1);                       // direct dispatch
        } else {
            CategoryScope fd(exec, Category::FetchDecode);
            RoutineScope loop(exec, rLoop);
            exec.alu(3);                       // loop bookkeeping
            exec.load(&fn.code[frame.pc]);     // bytecode fetch
            exec.shortInt(2);                  // opcode/operand extract
            exec.branch(false);                // bounds/halt test
            exec.load(&dispatchTable[(size_t)insn.op]);
            exec.alu(6);   // operand decode, pc bounds, quickening check
        }
        fusePending = fuseRole == TierArtifact::kFuseHead;
        if (quickMode && !insn.quick && quickenable(insn.op)) {
            // The in-place rewrite is only legal against this VM's
            // private module copy. A warm-catalog module is shared
            // across worker threads: rewriting it under concurrent
            // readers is the race this fatal contains.
            if (sharedModule)
                fatal("jvm-quick: in-place quickening of a shared "
                      "module (quick mode runs a private copy: load())");
            quicken(moduleStorage.funcs[frame.funcId].code[frame.pc]);
        }
        exec.beginCommand(bcCommand[(size_t)insn.op]);
        ++frame.pc;

        // ---- execute -----------------------------------------------------
        switch (insn.op) {
          case Bc::IConst: {
            RoutineScope r(exec, rStack);
            exec.alu(3);
            push(insn.a);
            break;
          }
          case Bc::LdcStr: {
            RoutineScope r(exec, rStack);
            exec.alu(2);
            exec.load(&stringRefs[insn.a]);
            push(stringRefs[insn.a]);
            break;
          }
          case Bc::ILoad: {
            RoutineScope r(exec, rStack);
            MemModelScope mm(exec);
            exec.noteMemModelAccess();
            exec.load(&locals[frame.localsBase + insn.a]);
            push(locals[frame.localsBase + insn.a]);
            break;
          }
          case Bc::IStore: {
            RoutineScope r(exec, rStack);
            MemModelScope mm(exec);
            exec.noteMemModelAccess();
            locals[frame.localsBase + insn.a] = pop();
            exec.store(&locals[frame.localsBase + insn.a]);
            break;
          }
          case Bc::GetStatic: {
            // §3.3: field access ~11 instructions (resolution, class
            // check, load, push).
            RoutineScope r(exec, rStatic);
            MemModelScope mm(exec);
            exec.noteMemModelAccess();
            if (artifact && !icPoisoned &&
                artifact->ic[frame.funcId][frame.pc - 1]) {
                // Monomorphic inline cache: tag check, then a load
                // through the offset resolved at tier-up build.
                exec.load(&artifact->ic[frame.funcId][frame.pc - 1]);
                exec.branch(false);         // cache tag matches (hit)
                exec.alu(1);                // resolved offset
            } else {
                exec.alu(4);                // field descriptor offset
                exec.load(&module->fields[insn.a]);
                exec.branch(false);         // class initialized?
                exec.alu(2);
            }
            exec.load(&statics[insn.a]);
            push(statics[insn.a]);
            break;
          }
          case Bc::PutStatic: {
            RoutineScope r(exec, rStatic);
            MemModelScope mm(exec);
            exec.noteMemModelAccess();
            if (artifact && !icPoisoned &&
                artifact->ic[frame.funcId][frame.pc - 1]) {
                exec.load(&artifact->ic[frame.funcId][frame.pc - 1]);
                exec.branch(false);
                exec.alu(1);
            } else {
                exec.alu(4);
                exec.load(&module->fields[insn.a]);
                exec.branch(false);
                exec.alu(2);
            }
            statics[insn.a] = pop();
            exec.store(&statics[insn.a]);
            break;
          }
          case Bc::NewArrayI:
          case Bc::NewArrayB: {
            RoutineScope r(exec, rNew);
            exec.alu(3);
            int32_t len = pop();
            int32_t ref =
                heap_.alloc(insn.op == Bc::NewArrayI ? 4 : 1, len);
            push(ref);
            break;
          }
          case Bc::ArrayLen: {
            RoutineScope r(exec, rArray);
            exec.alu(2);
            int32_t ref = pop();
            exec.load(&heap_.object(ref).length);
            push(heap_.object(ref).length);
            break;
          }
          case Bc::IALoad:
          case Bc::BALoad: {
            RoutineScope r(exec, rArray);
            MemModelScope mm(exec);
            exec.noteMemModelAccess();
            int32_t index = pop();
            int32_t ref = pop();
            HeapObject &obj = heap_.object(ref);
            exec.load(&obj.length);       // header for bounds check
            exec.alu(2);
            exec.branch(false);           // bounds ok?
            exec.shortInt(1);             // index scaling
            int32_t value = heap_.loadElem(ref, index);
            exec.load(obj.data.data() + (size_t)index * obj.elemBytes);
            push(value);
            break;
          }
          case Bc::IAStore:
          case Bc::BAStore: {
            RoutineScope r(exec, rArray);
            MemModelScope mm(exec);
            exec.noteMemModelAccess();
            int32_t value = pop();
            int32_t index = pop();
            int32_t ref = pop();
            HeapObject &obj = heap_.object(ref);
            exec.load(&obj.length);
            exec.alu(2);
            exec.branch(false);
            exec.shortInt(1);
            heap_.storeElem(ref, index, value);
            exec.store(obj.data.data() + (size_t)index * obj.elemBytes);
            break;
          }
          case Bc::Add: case Bc::Sub: case Bc::Mul: case Bc::Div:
          case Bc::Rem: case Bc::And: case Bc::Or: case Bc::Xor:
          case Bc::Shl: case Bc::Shr:
          case Bc::CmpEq: case Bc::CmpNe: case Bc::CmpLt: case Bc::CmpLe:
          case Bc::CmpGt: case Bc::CmpGe: {
            RoutineScope r(exec, rArith);
            int32_t rhs = pop();
            int32_t lhs = pop();
            exec.alu(4); // untagged-int fast-path checks
            int32_t value = 0;
            switch (insn.op) {
              case Bc::Add:
                value = (int32_t)((uint32_t)lhs + (uint32_t)rhs);
                exec.alu(1);
                break;
              case Bc::Sub:
                value = (int32_t)((uint32_t)lhs - (uint32_t)rhs);
                exec.alu(1);
                break;
              case Bc::Mul:
                value = (int32_t)((uint32_t)lhs * (uint32_t)rhs);
                exec.floatOp(1);
                break;
              case Bc::Div:
                if (rhs == 0)
                    fatal("jvm: division by zero");
                value = rhs == -1 ? (int32_t)(0u - (uint32_t)lhs)
                                  : lhs / rhs;
                exec.floatOp(1);
                exec.branch(false);
                break;
              case Bc::Rem:
                if (rhs == 0)
                    fatal("jvm: division by zero");
                value = rhs == -1 ? 0 : lhs % rhs;
                exec.floatOp(1);
                exec.branch(false);
                break;
              case Bc::And: value = lhs & rhs; exec.alu(1); break;
              case Bc::Or: value = lhs | rhs; exec.alu(1); break;
              case Bc::Xor: value = lhs ^ rhs; exec.alu(1); break;
              case Bc::Shl: value = lhs << (rhs & 31); exec.shortInt(1);
                break;
              case Bc::Shr: value = lhs >> (rhs & 31); exec.shortInt(1);
                break;
              case Bc::CmpEq: value = lhs == rhs; exec.alu(2); break;
              case Bc::CmpNe: value = lhs != rhs; exec.alu(2); break;
              case Bc::CmpLt: value = lhs < rhs; exec.alu(2); break;
              case Bc::CmpLe: value = lhs <= rhs; exec.alu(2); break;
              case Bc::CmpGt: value = lhs > rhs; exec.alu(2); break;
              case Bc::CmpGe: value = lhs >= rhs; exec.alu(2); break;
              default: break;
            }
            push(value);
            break;
          }
          case Bc::Neg: {
            RoutineScope r(exec, rArith);
            int32_t v = pop();
            exec.alu(1);
            push((int32_t)(0u - (uint32_t)v));
            break;
          }
          case Bc::Not: {
            RoutineScope r(exec, rArith);
            int32_t v = pop();
            exec.alu(1);
            push(~v);
            break;
          }
          case Bc::IfZero:
          case Bc::IfNonZero: {
            RoutineScope r(exec, rBranch);
            int32_t v = pop();
            bool taken = insn.op == Bc::IfZero ? v == 0 : v != 0;
            exec.alu(1);
            exec.branch(taken); // interpreter mirrors the outcome
            if (taken)
                frame.pc = (uint32_t)insn.a;
            break;
          }
          case Bc::Goto: {
            RoutineScope r(exec, rBranch);
            exec.alu(2);
            frame.pc = (uint32_t)insn.a;
            break;
          }
          case Bc::InvokeStatic: {
            RoutineScope r(exec, rInvoke);
            const FuncDesc &callee = module->funcs[insn.a];
            exec.alu(6);                         // method resolution
            exec.load(&module->funcs[insn.a]);
            exec.alu((uint32_t)callee.numLocals); // frame zeroing
            exec.store(&localsTop);
            pushFrame(insn.a);
            break;
          }
          case Bc::InvokeNative: {
            RoutineScope r(exec, rNative);
            exec.alu(8); // JNI-style marshalling
            const auto &info = minic::builtinInfo((minic::Builtin)insn.a);
            int32_t args[8] = {};
            for (int i = info.numArgs - 1; i >= 0; --i)
                args[i] = pop();
            if ((minic::Builtin)insn.a == minic::Builtin::Exit) {
                exit_code = args[0];
                frames.clear();
                break;
            }
            bool returns = false;
            int32_t value =
                native.invoke(insn.a, args, info.numArgs, heap_, returns);
            if (returns)
                push(value);
            break;
          }
          case Bc::Return:
          case Bc::IReturn: {
            RoutineScope r(exec, rInvoke);
            exec.alu(4);
            int32_t value = 0;
            if (insn.op == Bc::IReturn)
                value = pop();
            Frame done = frames.back();
            frames.pop_back();
            localsTop = done.localsBase;
            sp = done.stackBase;
            exec.store(&localsTop);
            if (frames.empty()) {
                exit_code = value;
            } else if (insn.op == Bc::IReturn) {
                push(value);
            }
            break;
          }
          case Bc::Pop: {
            RoutineScope r(exec, rStack);
            (void)pop();
            break;
          }
          case Bc::Dup: {
            RoutineScope r(exec, rStack);
            int32_t v = pop();
            push(v);
            push(v);
            break;
          }
          case Bc::NumOps:
            panic("jvm: bad opcode");
        }
    }
    return exit_code;
}

} // namespace interp::jvm
