/**
 * @file
 * Programmatic MIPS assembler with labels and data directives.
 *
 * The MiniC code generator drives this builder; tests also use it to
 * hand-assemble small guest programs. Like the Ultrix assembler the
 * paper's toolchain used, it fills every branch/jump delay slot with a
 * no-op encoded as `sll $0,$0,0` — which is what inflates MIPSI's sll
 * counts in Figure 2 (footnote 1 of the paper).
 */

#ifndef INTERP_MIPS_ASM_BUILDER_HH
#define INTERP_MIPS_ASM_BUILDER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mips/image.hh"
#include "mips/isa.hh"

namespace interp::mips {

/** Builds one guest program; call link() once at the end. */
class AsmBuilder
{
  public:
    using Label = uint32_t;

    /** Allocate an unbound label. */
    Label newLabel();
    /** Bind @p label to the current text position. */
    void bind(Label label);
    /** Allocate, bind and name a label at the current position. */
    Label here(const std::string &name);

    // --- raw instructions (no delay-slot handling) ------------------------
    void emitWord(uint32_t word) { text.push_back(word); }
    void emit(const Inst &inst) { text.push_back(encode(inst)); }

    // --- R-type -----------------------------------------------------------
    void rtype(Op op, Reg rd, Reg rs, Reg rt);
    void shift(Op op, Reg rd, Reg rt, uint8_t shamt);
    void shiftVar(Op op, Reg rd, Reg rt, Reg rs);
    void multDiv(Op op, Reg rs, Reg rt);
    void mfhi(Reg rd);
    void mflo(Reg rd);
    void syscall();
    void jr(Reg rs);        ///< + delay-slot nop
    void jalr(Reg rs);      ///< + delay-slot nop

    // --- I-type -----------------------------------------------------------
    void itype(Op op, Reg rt, Reg rs, int16_t imm);
    void lui(Reg rt, uint16_t imm);
    void loadStore(Op op, Reg rt, int16_t offset, Reg base);

    // --- branches and jumps (delay slot auto-filled with nop) --------------
    void branch(Op op, Reg rs, Reg rt, Label label);
    void j(Label label);
    void jal(Label label);

    // --- pseudo-instructions ----------------------------------------------
    void nop();
    void move(Reg rd, Reg rs);
    void li(Reg rt, int32_t value);
    void la(Reg rt, uint32_t address);

    // --- data directives ---------------------------------------------------
    /** Align the data cursor to @p align bytes. */
    void dataAlign(uint32_t align);
    /** Append a 32-bit little-endian word; returns its address. */
    uint32_t dataWord(uint32_t value);
    /** Append raw bytes; returns the start address. */
    uint32_t dataBytes(std::string_view bytes);
    /** Append a NUL-terminated string; returns the start address. */
    uint32_t dataAsciiz(std::string_view text_);
    /** Reserve @p n zero bytes; returns the start address. */
    uint32_t dataSpace(uint32_t n);
    /** Record @p name at data @p address in the symbol table. */
    void dataSymbol(const std::string &name, uint32_t address);

    /** Resolve all fixups and produce the image. */
    Image link();

  private:
    enum class FixKind { Branch, Jump };

    struct Fixup
    {
        uint32_t textIndex;
        Label label;
        FixKind kind;
    };

    uint32_t labelAddress(Label label) const;

    std::vector<uint32_t> text;
    std::vector<uint8_t> data;
    std::vector<int64_t> labels;  ///< text index or -1 if unbound
    std::vector<Fixup> fixups;
    std::vector<std::pair<std::string, Label>> namedLabels;
    std::vector<std::pair<std::string, uint32_t>> dataSymbols;
};

} // namespace interp::mips

#endif // INTERP_MIPS_ASM_BUILDER_HH
