#include "mips/asm_builder.hh"

#include "support/logging.hh"

namespace interp::mips {

AsmBuilder::Label
AsmBuilder::newLabel()
{
    labels.push_back(-1);
    return (Label)(labels.size() - 1);
}

void
AsmBuilder::bind(Label label)
{
    if (labels[label] != -1)
        panic("label %u bound twice", label);
    labels[label] = (int64_t)text.size();
}

AsmBuilder::Label
AsmBuilder::here(const std::string &name)
{
    Label l = newLabel();
    bind(l);
    namedLabels.emplace_back(name, l);
    return l;
}

void
AsmBuilder::rtype(Op op, Reg rd, Reg rs, Reg rt)
{
    Inst i;
    i.op = op;
    i.rd = rd;
    i.rs = rs;
    i.rt = rt;
    emit(i);
}

void
AsmBuilder::shift(Op op, Reg rd, Reg rt, uint8_t shamt)
{
    Inst i;
    i.op = op;
    i.rd = rd;
    i.rt = rt;
    i.shamt = shamt;
    emit(i);
}

void
AsmBuilder::shiftVar(Op op, Reg rd, Reg rt, Reg rs)
{
    Inst i;
    i.op = op;
    i.rd = rd;
    i.rt = rt;
    i.rs = rs;
    emit(i);
}

void
AsmBuilder::multDiv(Op op, Reg rs, Reg rt)
{
    Inst i;
    i.op = op;
    i.rs = rs;
    i.rt = rt;
    emit(i);
}

void
AsmBuilder::mfhi(Reg rd)
{
    Inst i;
    i.op = Op::Mfhi;
    i.rd = rd;
    emit(i);
}

void
AsmBuilder::mflo(Reg rd)
{
    Inst i;
    i.op = Op::Mflo;
    i.rd = rd;
    emit(i);
}

void
AsmBuilder::syscall()
{
    Inst i;
    i.op = Op::Syscall;
    emit(i);
}

void
AsmBuilder::jr(Reg rs)
{
    Inst i;
    i.op = Op::Jr;
    i.rs = rs;
    emit(i);
    nop();
}

void
AsmBuilder::jalr(Reg rs)
{
    Inst i;
    i.op = Op::Jalr;
    i.rs = rs;
    i.rd = RA;
    emit(i);
    nop();
}

void
AsmBuilder::itype(Op op, Reg rt, Reg rs, int16_t imm)
{
    Inst i;
    i.op = op;
    i.rt = rt;
    i.rs = rs;
    i.imm = imm;
    emit(i);
}

void
AsmBuilder::lui(Reg rt, uint16_t imm)
{
    Inst i;
    i.op = Op::Lui;
    i.rt = rt;
    i.imm = (int16_t)imm;
    emit(i);
}

void
AsmBuilder::loadStore(Op op, Reg rt, int16_t offset, Reg base)
{
    Inst i;
    i.op = op;
    i.rt = rt;
    i.rs = base;
    i.imm = offset;
    emit(i);
}

void
AsmBuilder::branch(Op op, Reg rs, Reg rt, Label label)
{
    fixups.push_back({(uint32_t)text.size(), label, FixKind::Branch});
    Inst i;
    i.op = op;
    i.rs = rs;
    i.rt = rt;
    emit(i);
    nop(); // delay slot
}

void
AsmBuilder::j(Label label)
{
    fixups.push_back({(uint32_t)text.size(), label, FixKind::Jump});
    Inst i;
    i.op = Op::J;
    emit(i);
    nop(); // delay slot
}

void
AsmBuilder::jal(Label label)
{
    fixups.push_back({(uint32_t)text.size(), label, FixKind::Jump});
    Inst i;
    i.op = Op::Jal;
    emit(i);
    nop(); // delay slot
}

void
AsmBuilder::nop()
{
    emitWord(kNopWord);
}

void
AsmBuilder::move(Reg rd, Reg rs)
{
    rtype(Op::Addu, rd, rs, ZERO);
}

void
AsmBuilder::li(Reg rt, int32_t value)
{
    if (value >= -32768 && value <= 32767) {
        itype(Op::Addiu, rt, ZERO, (int16_t)value);
    } else {
        lui(rt, (uint16_t)((uint32_t)value >> 16));
        if ((value & 0xffff) != 0)
            itype(Op::Ori, rt, rt, (int16_t)(value & 0xffff));
    }
}

void
AsmBuilder::la(Reg rt, uint32_t address)
{
    li(rt, (int32_t)address);
}

void
AsmBuilder::dataAlign(uint32_t align)
{
    while (data.size() % align != 0)
        data.push_back(0);
}

uint32_t
AsmBuilder::dataWord(uint32_t value)
{
    dataAlign(4);
    uint32_t addr = kDataBase + (uint32_t)data.size();
    for (int i = 0; i < 4; ++i)
        data.push_back((uint8_t)(value >> (8 * i)));
    return addr;
}

uint32_t
AsmBuilder::dataBytes(std::string_view bytes)
{
    uint32_t addr = kDataBase + (uint32_t)data.size();
    data.insert(data.end(), bytes.begin(), bytes.end());
    return addr;
}

uint32_t
AsmBuilder::dataAsciiz(std::string_view text_)
{
    uint32_t addr = dataBytes(text_);
    data.push_back(0);
    return addr;
}

uint32_t
AsmBuilder::dataSpace(uint32_t n)
{
    uint32_t addr = kDataBase + (uint32_t)data.size();
    data.insert(data.end(), n, 0);
    return addr;
}

void
AsmBuilder::dataSymbol(const std::string &name, uint32_t address)
{
    dataSymbols.emplace_back(name, address);
}

uint32_t
AsmBuilder::labelAddress(Label label) const
{
    if (labels[label] < 0)
        panic("label %u never bound", label);
    return kTextBase + (uint32_t)labels[label] * 4;
}

Image
AsmBuilder::link()
{
    for (const Fixup &fix : fixups) {
        uint32_t word = text[fix.textIndex];
        uint32_t target = labelAddress(fix.label);
        if (fix.kind == FixKind::Branch) {
            uint32_t branch_pc = kTextBase + fix.textIndex * 4;
            int64_t delta = ((int64_t)target - (int64_t)(branch_pc + 4)) / 4;
            if (delta < -32768 || delta > 32767)
                panic("branch at %u out of range (%lld)", fix.textIndex,
                      (long long)delta);
            word = (word & 0xffff0000u) | ((uint32_t)delta & 0xffffu);
        } else {
            word = (word & 0xfc000000u) | ((target >> 2) & 0x03ffffffu);
        }
        text[fix.textIndex] = word;
    }

    Image image;
    image.text = text;
    image.data = data;
    image.entry = kTextBase;
    for (const auto &[name, label] : namedLabels)
        image.symbols[name] = labelAddress(label);
    for (const auto &[name, addr] : dataSymbols)
        image.symbols[name] = addr;
    return image;
}

} // namespace interp::mips
