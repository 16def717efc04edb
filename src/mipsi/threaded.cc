#include "mipsi/threaded.hh"

#include "support/logging.hh"

namespace interp::mipsi {

using trace::Category;
using trace::CategoryScope;
using trace::RoutineScope;

ThreadedMipsi::ThreadedMipsi(trace::Execution &exec_, vfs::FileSystem &fs_)
    : Mipsi(exec_, fs_)
{
    auto &code = exec.code();
    rThread = code.registerRoutine("mipsi.threaded_loop", 32);
    rPredecode = code.registerRoutine("mipsi.predecode", 96);
}

void
ThreadedMipsi::load(const mips::Image &image)
{
    Mipsi::load(image);

    // One-shot predecode of the whole text segment. Like Perl's
    // compile phase this is real interpreter work, so it is charged —
    // but to Precompile, outside the per-command Table 2 split.
    textBase = image.textBase;
    entries.assign(image.text.size(), Entry{});

    CategoryScope pre(exec, Category::Precompile);
    RoutineScope r(exec, rPredecode);
    for (size_t i = 0; i < image.text.size(); ++i) {
        uint32_t pc = textBase + (uint32_t)(i * 4);
        uint32_t word = image.text[i];
        Entry &e = entries[i];
        e.word = word;
        e.inst = mips::decode(word);
        if (e.inst.op != mips::Op::Invalid)
            e.cls = (uint8_t)handlerClass(e.inst.op);

        exec.loadAt(kGuestDataBit | pc); // read the word (text as data)
        exec.shortInt(2);                // field extraction
        exec.alu(4);                     // classify + operand expand
        exec.store(&entries[i]);         // write the entry
    }
}

const ThreadedMipsi::Entry *
ThreadedMipsi::fetchEntry(uint32_t pc)
{
    // The whole per-trip fetch/decode: one index computation and one
    // load of the predecoded entry (~5 instructions with the routine
    // call/return, vs ~50 for the switch core's translate+decode).
    CategoryScope fd(exec, Category::FetchDecode);
    RoutineScope loop(exec, rThread);
    exec.alu(1); // entry index from pc

    uint32_t off = pc - textBase;
    if (pc < textBase || (off >> 2) >= entries.size() || (off & 3))
        fatal("mipsi-threaded: pc 0x%08x outside predecoded text", pc);
    const Entry *e = &entries[off >> 2];
    exec.load(e);
    return e;
}

bool
ThreadedMipsi::step(const Entry &e, uint32_t pc, HClass cls,
                    int &exit_code)
{
    StepInfo info;
    bool done = executeInst(e.inst, e.word, pc, handlerRoutine(cls),
                            exit_code, info);
    // Predecoded entries cannot track self-modifying code, and a
    // rewrite after events have been emitted would desynchronise a
    // recorded trace from a fresh run; reject it, containably.
    if (info.mem == StepInfo::Mem::Store && info.memAddr >= textBase &&
        (uint64_t)info.memAddr - textBase < entries.size() * 4)
        fatal("mipsi-threaded: guest store to predecoded text at 0x%08x "
              "(self-modifying code requires the switch core)",
              info.memAddr);
    return done;
}

int
ThreadedMipsi::run()
{
    if (!syscalls)
        panic("ThreadedMipsi::run before load()");

    // Real direct threading: each handler tail ends in a computed
    // goto through the label table, indexed by the predecoded class.
    static const void *const kLabels[] = {
        &&h_alu, &&h_shift, &&h_mem, &&h_branch, &&h_jump, &&h_muldiv,
        &&h_syscall,
    };

    const Entry *e = nullptr;
    uint32_t pc = 0;
    int exit_code = 0;

#define INTERP_NEXT()                                                     \
    do {                                                                  \
        pc = state.pc;                                                    \
        e = fetchEntry(pc);                                               \
        if (e->cls == kInvalidClass)                                      \
            fatal("mipsi: invalid instruction 0x%08x at pc 0x%08x",       \
                  e->word, pc);                                           \
        goto *kLabels[e->cls];                                            \
    } while (0)

#define INTERP_HANDLER(label, hclass)                                     \
  label:                                                                  \
    if (step(*e, pc, HClass::hclass, exit_code))                          \
        return exit_code;                                                 \
    INTERP_NEXT()

    INTERP_NEXT();
    INTERP_HANDLER(h_alu, Alu);
    INTERP_HANDLER(h_shift, Shift);
    INTERP_HANDLER(h_mem, Mem);
    INTERP_HANDLER(h_branch, Branch);
    INTERP_HANDLER(h_jump, Jump);
    INTERP_HANDLER(h_muldiv, MulDiv);
    INTERP_HANDLER(h_syscall, Syscall);

#undef INTERP_HANDLER
#undef INTERP_NEXT
}

} // namespace interp::mipsi
