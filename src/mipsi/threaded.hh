/**
 * @file
 * Threaded MIPSI: the §5 fetch/decode remedy applied to the real
 * emulator.
 *
 * The paper observes that MIPSI's dominant cost is the nearly fixed
 * ~50-instruction fetch/decode prologue per guest instruction
 * (Table 2) and suggests "threaded interpretation" as the remedy.
 * This core predecodes the guest text once at load time into an
 * operand-expanded entry array (charged to the Precompile category,
 * like Perl's parse in Table 2), then dispatches with a computed
 * goto through a label table — the classic direct-threading idiom.
 *
 * Per trip the interpreter now charges only an index computation and
 * one entry load to fetch/decode; the execute stage is the exact
 * same code as the switch core (Mipsi::executeInst), so per-command
 * execute attribution is identical by construction and the entire
 * delta vs the baseline lands in fetch/decode.
 *
 * Self-modifying guests are rejected: a store into the predecoded
 * text region raises a contained fatal() rather than silently
 * executing stale entries.
 */

#ifndef INTERP_MIPSI_THREADED_HH
#define INTERP_MIPSI_THREADED_HH

#include <cstdint>
#include <vector>

#include "mipsi/mipsi.hh"

namespace interp::mipsi {

/** Direct-threaded variant of the emulator; same load()/run() API. */
class ThreadedMipsi : public Mipsi
{
  public:
    ThreadedMipsi(trace::Execution &exec, vfs::FileSystem &fs);

    /**
     * Load and predecode; the predecode is charged to Precompile.
     * Shadows (not overrides) the base methods — see the note in
     * mipsi.hh on why the cores stay vtable-free.
     */
    void load(const mips::Image &image);

    int run();

  protected:
    // The predecode machinery is shared with the tier-3 jit core
    // (jit.hh), which replaces only the per-trip fetch.
    /**
     * One predecoded guest instruction: the decoded fields, the raw
     * word (for error messages), and the handler class driving the
     * computed-goto dispatch.
     */
    struct Entry
    {
        mips::Inst inst;
        uint32_t word = 0;
        uint8_t cls = kInvalidClass;
    };

    /// Sentinel class for undecodable words; checked at execution so
    /// unreached garbage after the program's code does not abort load.
    static constexpr uint8_t kInvalidClass = 0xff;

    /** Per-trip fetch: charge the (small) f/d cost and index. */
    const Entry *fetchEntry(uint32_t pc);

    /** Execute one entry via the shared stage; true when exited, with
     *  the guest's exit code in @p exit_code. */
    bool step(const Entry &e, uint32_t pc, HClass cls, int &exit_code);

    trace::RoutineId rThread;    ///< threaded dispatch loop
    trace::RoutineId rPredecode; ///< one-shot predecoder

    std::vector<Entry> entries;  ///< indexed by (pc - textBase) / 4
    uint32_t textBase = 0;
};

} // namespace interp::mipsi

#endif // INTERP_MIPSI_THREADED_HH
