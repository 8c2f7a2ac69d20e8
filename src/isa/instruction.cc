/**
 * @file
 * Instruction printing and operand def/use.
 */

#include "isa/instruction.hh"

#include "common/logging.hh"

namespace bvf::isa
{

std::string
Instruction::toString() const
{
    std::string out = opcodeName(op);
    if (readsGuard(*this)) {
        out = strFormat("@%sP%d %s", predNegate ? "!" : "", pred,
                        out.c_str());
    }
    if (writesRegister(op))
        out += strFormat(" R%d", dst);
    if (op == Opcode::SetP)
        out += strFormat(" P%d", dst);
    if (readsSrcA(op))
        out += strFormat(", R%d", srcA);
    if (readsSrcB(op)) {
        if (immB)
            out += strFormat(", %d", imm);
        else
            out += strFormat(", R%d", srcB);
    }
    if (isMemoryOp(op))
        out += strFormat(" [R%d + %d]", srcA, imm);
    if (op == Opcode::Bra)
        out += strFormat(" -> %d (join %d)", imm, reconv);
    return out;
}

namespace
{

std::uint64_t
regBit(std::uint8_t r)
{
    return r < numRegisters ? std::uint64_t(1) << r : 0;
}

std::uint8_t
predBit(std::uint8_t p)
{
    return p < numPredicates ? static_cast<std::uint8_t>(1u << p) : 0;
}

} // namespace

std::uint64_t
regUses(const Instruction &instr)
{
    std::uint64_t uses = 0;
    if (readsSrcA(instr.op))
        uses |= regBit(instr.srcA);
    if (readsSrcB(instr.op) && !instr.immB)
        uses |= regBit(instr.srcB);
    if (readsDst(instr.op))
        uses |= regBit(instr.dst);
    return uses;
}

std::uint8_t
predUses(const Instruction &instr)
{
    return readsGuard(instr) ? predBit(instr.pred) : 0;
}

std::uint64_t
regKills(const Instruction &instr)
{
    return !readsGuard(instr) && writesRegister(instr.op) ? regBit(instr.dst)
                                                          : 0;
}

std::uint8_t
predKills(const Instruction &instr)
{
    return !readsGuard(instr) && instr.op == Opcode::SetP
               ? predBit(instr.dst)
               : 0;
}

} // namespace bvf::isa
