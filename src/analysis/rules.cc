#include "analysis/rules.hh"

#include "common/logging.hh"

namespace bvf::analysis
{

using isa::Instruction;
using isa::Opcode;

namespace
{

void
checkCanonical(const Instruction &instr, std::vector<RuleViolation> &out)
{
    const auto bad = [&](std::string message) {
        out.push_back({Rule::NonCanonical, std::move(message)});
    };
    if (static_cast<unsigned>(instr.op)
        >= static_cast<unsigned>(Opcode::NumOpcodes)) {
        bad(strFormat("opcode %u unknown", unsigned(instr.op)));
        return; // classification helpers need a valid opcode
    }

    const Opcode op = instr.op;
    const std::string name = opcodeName(op);
    const bool reads_b = isa::readsSrcB(op);

    if (instr.pred >= isa::numPredicates)
        bad(strFormat("predicate %d out of range", int(instr.pred)));
    else if (instr.pred == isa::predTrue && instr.predNegate)
        bad("guard reads the PT sentinel predicate (p0 with negate)");

    if (op == Opcode::SetP) {
        if (instr.dst >= isa::numPredicates)
            bad(strFormat("SetP predicate destination %d out of range",
                          int(instr.dst)));
    } else if (isa::writesRegister(op)) {
        if (instr.dst >= isa::numRegisters)
            bad(strFormat("destination register %d out of range",
                          int(instr.dst)));
    } else if (instr.dst != 0) {
        bad(strFormat("%s ignores dst but dst=%d", name.c_str(),
                      int(instr.dst)));
    }

    if (isa::readsSrcA(op)) {
        if (instr.srcA >= isa::numRegisters)
            bad(strFormat("srcA register %d out of range", int(instr.srcA)));
    } else if (instr.srcA != 0) {
        bad(strFormat("%s ignores srcA but srcA=%d", name.c_str(),
                      int(instr.srcA)));
    }

    if (reads_b && !instr.immB) {
        if (instr.srcB >= isa::numRegisters)
            bad(strFormat("srcB register %d out of range", int(instr.srcB)));
    } else if (instr.srcB != 0) {
        bad(strFormat("%s ignores srcB but srcB=%d", name.c_str(),
                      int(instr.srcB)));
    }

    // Stores read srcB from the register file unconditionally, so an
    // immediate-B store would silently use the register anyway.
    if (instr.immB && (!reads_b || isa::isMemoryOp(op)))
        bad(strFormat("%s does not take an immediate srcB", name.c_str()));

    if (op == Opcode::SetP || op == Opcode::S2R) {
        if (instr.flags >= 6)
            bad(strFormat("%s selector flags=%d out of range", name.c_str(),
                          int(instr.flags)));
    } else if (instr.flags != 0) {
        bad(strFormat("%s ignores flags but flags=%d", name.c_str(),
                      int(instr.flags)));
    }

    const bool uses_imm =
        instr.immB || isa::isMemoryOp(op) || op == Opcode::Bra;
    if (!uses_imm && instr.imm != 0)
        bad(strFormat("%s ignores imm but imm=%d", name.c_str(), instr.imm));
    if (instr.imm < -32768 || instr.imm > 32767)
        bad(strFormat("imm=%d exceeds the 16-bit encoding", instr.imm));

    if (op != Opcode::Bra && instr.reconv != 0)
        bad(strFormat("%s ignores reconv but reconv=%d", name.c_str(),
                      instr.reconv));
}

} // namespace

void
checkStructure(const Instruction &instr, int pc, int bodySize,
               std::vector<RuleViolation> &out)
{
    checkCanonical(instr, out);
    if (instr.op != Opcode::Bra)
        return;
    const int target = instr.imm;
    const int reconv = instr.reconv;
    // Forward branch: reconvergence at or past the target; backward
    // branch (loop): reconvergence strictly past the branch.
    const bool forward = pc < target && target <= reconv && reconv < bodySize;
    const bool backward =
        0 <= target && target <= pc && pc < reconv && reconv < bodySize;
    if (!forward && !backward) {
        out.push_back({Rule::BadBranch,
                       strFormat("branch target %d / reconv %d malformed "
                                 "(body size %d)",
                                 target, reconv, bodySize)});
    }
}

void
checkUninit(const Instruction &instr, const AbsState &in,
            std::vector<RuleViolation> &out)
{
    const auto reg_read = [&](std::uint8_t r, const char *role) {
        if (r < isa::numRegisters && !((in.regWritten >> r) & 1u)) {
            out.push_back({Rule::UninitRegRead,
                           strFormat("r%d read as %s before any write on "
                                     "some path",
                                     int(r), role)});
        }
    };
    if (isa::readsSrcA(instr.op))
        reg_read(instr.srcA, "srcA");
    if (isa::readsSrcB(instr.op) && !instr.immB)
        reg_read(instr.srcB, "srcB");
    if (isa::readsDst(instr.op))
        reg_read(instr.dst, "accumulator");

    if (isa::predUses(instr) & ~in.predWritten) {
        out.push_back({Rule::UninitPredRead,
                       strFormat("p%d guards before any SetP on some path",
                                 int(instr.pred))});
    }
}

std::optional<RuleViolation>
checkSegment(const isa::Program &program, const Instruction &instr,
             const KnownBits &addr)
{
    switch (instr.op) {
      case Opcode::Lds:
      case Opcode::Sts: {
        const std::uint32_t bytes = program.sharedBytesPerBlock;
        if (bytes == 0) {
            return RuleViolation{
                Rule::SharedOob,
                "shared access but the block has no shared segment"};
        }
        if (addr.hi >= bytes) {
            return RuleViolation{
                Rule::SharedOob,
                strFormat("shared offset may reach %u of a %u-byte segment",
                          addr.hi, bytes),
                true};
        }
        return std::nullopt;
      }
      case Opcode::Ldc:
      case Opcode::Ldt: {
        const bool tex = instr.op == Opcode::Ldt;
        const auto &image = tex ? program.texture : program.constants;
        const Rule rule = tex ? Rule::TexOob : Rule::ConstOob;
        const char *space = tex ? "texture" : "constant";
        const auto bytes = static_cast<std::uint32_t>(image.size() * 4);
        if (bytes == 0) {
            return RuleViolation{
                rule, strFormat("%s load but the image is empty", space)};
        }
        if (addr.hi >= bytes) {
            return RuleViolation{
                rule,
                strFormat("%s offset may reach %u of a %u-byte image", space,
                          addr.hi, bytes),
                true};
        }
        return std::nullopt;
      }
      case Opcode::Ldg:
      case Opcode::Stg: {
        const std::uint32_t bytes = program.globalBytes();
        if (bytes == 0) {
            return RuleViolation{
                Rule::GlobalOob,
                "global access but the global image is empty"};
        }
        const std::uint32_t base = isa::globalSegmentBase;
        if (addr.lo < base || addr.hi >= base + bytes) {
            return RuleViolation{
                Rule::GlobalOob,
                strFormat("global address hull [%u, %u] escapes the "
                          "segment [%u, %u)",
                          addr.lo, addr.hi, base, base + bytes)};
        }
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
}

} // namespace bvf::analysis
