#include "mipsi/jit.hh"

#include "support/logging.hh"

namespace interp::mipsi {

using trace::Category;
using trace::CategoryScope;
using trace::RoutineScope;

JitMipsi::JitMipsi(trace::Execution &exec_, vfs::FileSystem &fs_)
    : ThreadedMipsi(exec_, fs_)
{
    auto &code = exec.code();
    rEnter = code.registerRoutine("mipsi.jit_enter", 16);
    rEmit = code.registerRoutine("mipsi.jit_emit", 96);
    rDirectTranslate = code.registerRoutine("mipsi.jit_dtb", 16);
    jitDirectMem = true;
}

void
JitMipsi::load(const mips::Image &image)
{
    ThreadedMipsi::load(image);

    // The emitted stencil stream is a first-class code region: its
    // glue instructions execute at these PCs, so the §4 simulator
    // attributes the jit'd code's own i-cache footprint (which grows
    // with the program, unlike the interpreter cores' fixed loop).
    uint32_t glue =
        (uint32_t)entries.size() * kGlueInsts;
    trace::RoutineId region = exec.code().registerRoutine(
        "mipsi.jitcode", glue ? glue : kGlueInsts,
        trace::Segment::JitCode);
    jitRegionBase = exec.code().routine(region).base;
}

void
JitMipsi::useArtifact(std::shared_ptr<const jit::JitArtifact> artifact)
{
    art = std::move(artifact);
}

void
JitMipsi::setPublishHook(
    std::function<void(std::shared_ptr<const jit::JitArtifact>)> hook)
{
    publish = std::move(hook);
}

std::shared_ptr<const jit::JitArtifact>
JitMipsi::compile(size_t capacity_bytes)
{
    // One-shot template compilation: like the predecode it is real
    // work, charged outside the per-command split.
    CategoryScope pre(exec, Category::Precompile);
    RoutineScope r(exec, rEmit);
    exec.alu(6); // size the buffer, map it writable
    auto artifact = jit::JitArtifact::build(
        &JitMipsi::stepThunk, (uint32_t)entries.size(), capacity_bytes);
    for (size_t i = 0; i < entries.size(); ++i) {
        exec.alu(3);             // select + patch the stencil
        exec.shortInt(1);        // offset bookkeeping
        exec.store(&entries[i]); // record the stencil offset
    }
    exec.alu(2); // seal: the W^X flip to read+execute
    return artifact;
}

uint32_t
JitMipsi::stencilPc(uint32_t index) const
{
    return jitRegionBase + index * kGlueInsts * 4;
}

uint8_t
JitMipsi::stepThunk(void *ctx, uint32_t index) noexcept
{
    auto *self = (JitMipsi *)ctx;
    try {
        return self->jitStep(index);
    } catch (...) {
        // Native stencil frames have no unwind tables; re-raised by
        // run() once the stream has been left normally.
        self->pending = std::current_exception();
        return 1;
    }
}

uint8_t
JitMipsi::jitStep(uint32_t index)
{
    const Entry &e = entries[index];
    uint32_t pc = textBase + index * 4;
    if (e.cls == kInvalidClass)
        fatal("mipsi: invalid instruction 0x%08x at pc 0x%08x", e.word,
              pc);

    // The whole straight-line fetch/decode: the stencil's own glue,
    // executing inside the emitted region.
    {
        CategoryScope fd(exec, Category::FetchDecode);
        exec.emitAt(stencilPc(index), trace::InstClass::IntAlu);
    }

    if (ThreadedMipsi::step(e, pc, (HClass)e.cls, *curExitCode)) {
        runDone = true;
        return 1;
    }

    // The stencil's exit guard: falls through on sequential flow,
    // leaves the region on a taken control transfer.
    bool sequential =
        state.pc == pc + 4 && (size_t)index + 1 < entries.size();
    {
        CategoryScope fd(exec, Category::FetchDecode);
        exec.emitAt(stencilPc(index) + 4, trace::InstClass::CondBranch,
                    1, 0, !sequential,
                    sequential ? 0 : exec.code().routine(rEnter).base);
    }
    return sequential ? 0 : 1;
}

int
JitMipsi::run()
{
    if (!syscalls)
        panic("JitMipsi::run before load()");

    if (art && art->numSteps() != entries.size())
        art = nullptr; // compiled for different text: never executed
    if (!art) {
        art = compile();
        if (publish)
            publish(art);
    }

    int exit_code = 0;
    curExitCode = &exit_code;
    runDone = false;
    while (!runDone) {
        uint32_t pc = state.pc;
        uint32_t off = pc - textBase;
        if (pc < textBase || (off >> 2) >= entries.size() || (off & 3))
            fatal("mipsi-jit: pc 0x%08x outside compiled text", pc);
        // Region re-entry after a taken transfer: index the stencil
        // offset table and jump in; straight-line runs never return
        // here.
        {
            CategoryScope fd(exec, Category::FetchDecode);
            RoutineScope r(exec, rEnter);
            exec.alu(1);                   // stencil index from pc
            exec.load(&entries[off >> 2]); // offset-table entry
        }
        art->enter(this, off >> 2);
        if (pending) {
            auto p = std::move(pending);
            pending = nullptr;
            curExitCode = nullptr;
            std::rethrow_exception(p);
        }
    }
    curExitCode = nullptr;
    return exit_code;
}

} // namespace interp::mipsi
