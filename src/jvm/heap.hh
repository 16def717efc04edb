/**
 * @file
 * The Java-like VM's object heap: arrays of ints or bytes, managed by
 * a conservative mark-sweep collector.
 *
 * References are encoded as 0x20000000 + object index so that they are
 * distinguishable (conservatively) from small integers when the
 * collector scans the untyped operand stacks, locals and static
 * fields. This mirrors how conservative collectors treat ambiguous
 * roots; precision is not required for correctness of the benchmarks,
 * only reachability over-approximation.
 */

#ifndef INTERP_JVM_HEAP_HH
#define INTERP_JVM_HEAP_HH

#include <cstdint>
#include <vector>

#include "trace/execution.hh"

namespace interp::jvm {

/** Reference encoding base. */
constexpr int32_t kRefBase = 0x20000000;

/** One heap array object. */
struct HeapObject
{
    uint8_t elemBytes = 4; ///< 1 (byte array) or 4 (int array)
    bool marked = false;
    bool live = false;
    int32_t length = 0;    ///< element count
    std::vector<uint8_t> data;
};

/** The collected heap. */
class Heap
{
  public:
    explicit Heap(trace::Execution &exec);

    /** Allocate an array; returns its reference. */
    int32_t alloc(uint8_t elem_bytes, int32_t length);

    /** True if @p value decodes to a live object reference. */
    bool isRef(int32_t value) const;

    /** Object behind a reference; panics on bad refs. */
    HeapObject &object(int32_t ref);
    const HeapObject &object(int32_t ref) const;

    // Typed element access with bounds checking (fatal on violation).
    int32_t loadElem(int32_t ref, int32_t index);
    void storeElem(int32_t ref, int32_t index, int32_t value);

    /**
     * Conservative mark-sweep over the given root slots. Emits the
     * collector's work into the execution context.
     * @return number of objects freed.
     */
    size_t collect(const std::vector<const int32_t *> &root_ranges,
                   const std::vector<size_t> &root_lengths);

    size_t liveObjects() const { return liveCount; }
    uint64_t totalAllocations() const { return totalAllocs; }
    uint64_t collections() const { return gcRuns; }

    /** Allocation count that triggers a collection inside alloc(). */
    size_t gcThreshold = 8192;

    /** Roots provider installed by the VM (frames + statics). */
    using RootScanner = void (*)(void *ctx,
                                 std::vector<const int32_t *> &ranges,
                                 std::vector<size_t> &lengths);
    void
    setRootScanner(RootScanner scanner, void *ctx)
    {
        rootScanner = scanner;
        rootCtx = ctx;
    }

  private:
    void maybeCollect();

    trace::Execution &exec;
    std::vector<HeapObject> objects;
    std::vector<int32_t> freeList;
    size_t liveCount = 0;
    size_t sinceGc = 0;
    uint64_t totalAllocs = 0;
    uint64_t gcRuns = 0;
    trace::RoutineId rAlloc;
    trace::RoutineId rGc;
    RootScanner rootScanner = nullptr;
    void *rootCtx = nullptr;
};

} // namespace interp::jvm

#endif // INTERP_JVM_HEAP_HH
