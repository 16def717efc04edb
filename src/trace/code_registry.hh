/**
 * @file
 * Synthetic code-region registry.
 *
 * Every interpreter routine (the dispatch loop, each command handler,
 * runtime-library helpers, ...) registers itself and is assigned a PC
 * range in a synthetic 32-bit text segment. When the routine runs, the
 * instructions it emits advance linearly through its range (wrapping
 * models an inner loop and emits a taken backward branch). Because the
 * ranges are laid out like a linked binary, the i-cache and iTLB see a
 * footprint with the same structure the paper measured: MIPSI's whole
 * loop fits in ~1 KB, while one Tcl command sweeps tens of KB of
 * handler and runtime code.
 */

#ifndef INTERP_TRACE_CODE_REGISTRY_HH
#define INTERP_TRACE_CODE_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace interp::trace {

/** Index into the registry's routine table. */
using RoutineId = uint32_t;

/**
 * Link-time "segments" keeping unrelated code apart in the synthetic
 * address space, like separately mapped shared objects.
 */
enum class Segment : uint8_t
{
    InterpCore, ///< the interpreter binary itself
    Runtime,    ///< language runtime (allocator, strings, hashes)
    NativeLib,  ///< native runtime libraries (graphics, regex, I/O)
    GuestText,  ///< directly executed guest code (compiled-C mode)
    JitCode,    ///< template-compiled stencil regions (jit modes)
};

constexpr int kNumSegments = 5;

/** Static description of one registered routine. */
struct Routine
{
    std::string name;
    Segment segment = Segment::InterpCore;
    uint32_t base = 0;      ///< first instruction PC
    uint32_t sizeInsts = 0; ///< body length in instructions
};

/** Allocates PC ranges for routines within per-segment regions. */
class CodeRegistry
{
  public:
    CodeRegistry();

    /**
     * Register a routine of @p size_insts instructions in @p segment.
     * Bases are allocated sequentially with 16-instruction alignment.
     */
    RoutineId registerRoutine(const std::string &name, uint32_t size_insts,
                              Segment segment = Segment::InterpCore);

    const Routine &routine(RoutineId id) const { return routines_[id]; }

    /** Base PC of a segment region (segments are 64 MB apart). */
    static uint32_t segmentBase(Segment segment);

  private:
    std::vector<Routine> routines_;
    uint32_t nextPc[kNumSegments];
};

} // namespace interp::trace

#endif // INTERP_TRACE_CODE_REGISTRY_HH
