#include "analysis/lint.hh"

#include <algorithm>

#include "analysis/rules.hh"
#include "common/logging.hh"

namespace bvf::analysis
{

using isa::Instruction;
using isa::Opcode;

namespace
{

class Linter
{
  public:
    explicit Linter(const isa::Program &program)
        : program_(program), analysis_(analyzeProgram(program))
    {
    }

    std::vector<LintFinding> run();

  private:
    void add(LintCode code, int pc, std::string message);
    void report(int pc, std::vector<RuleViolation> &violations);
    void checkFallsOffEnd();
    void checkDeadWrites();

    const isa::Program &program_;
    AnalysisResult analysis_;
    std::vector<LintFinding> findings_;
};

void
Linter::add(LintCode code, int pc, std::string message)
{
    findings_.push_back({code, pc, std::move(message)});
}

/**
 * Each violated rule as a finding (and clear @p violations). Global
 * accesses stay with admission: out of the segment they read zero
 * instead of wrapping.
 */
void
Linter::report(int pc, std::vector<RuleViolation> &violations)
{
    for (const RuleViolation &v : violations) {
        LintCode code = LintCode::NonCanonical;
        switch (v.rule) {
          case Rule::NonCanonical: code = LintCode::NonCanonical; break;
          case Rule::BadBranch: code = LintCode::BadReconv; break;
          case Rule::UninitRegRead: code = LintCode::UninitRegRead; break;
          case Rule::UninitPredRead: code = LintCode::UninitPredRead; break;
          case Rule::SharedOob: code = LintCode::SharedOob; break;
          case Rule::ConstOob: code = LintCode::ConstOob; break;
          case Rule::TexOob: code = LintCode::TexOob; break;
          case Rule::GlobalOob: continue;
        }
        add(code, pc, v.wraps ? v.message + " (wraps)" : v.message);
    }
    violations.clear();
}

void
Linter::checkFallsOffEnd()
{
    const int size = static_cast<int>(program_.body.size());
    if (size == 0) {
        add(LintCode::FallsOffEnd, 0, "empty kernel body");
        return;
    }
    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        if (!analysis_.in[idx].reachable)
            continue;
        const Instruction &instr = program_.body[idx];
        if (instr.op == Opcode::Exit)
            continue;
        const Bool3 guard = guardValue(analysis_.in[idx], instr);
        const bool falls_through =
            instr.op != Opcode::Bra || guard != Bool3::True;
        const bool takes_branch =
            instr.op == Opcode::Bra && guard != Bool3::False;
        if ((falls_through && pc + 1 >= size)
            || (takes_branch && (instr.imm < 0 || instr.imm >= size))) {
            add(LintCode::FallsOffEnd, pc,
                "execution can run past the last instruction");
        }
    }
}

void
Linter::checkDeadWrites()
{
    const int size = static_cast<int>(program_.body.size());

    // Backward liveness over the syntactic CFG (both branch edges kept,
    // so "dead" means dead on every path).
    std::vector<std::uint64_t> live_regs(static_cast<std::size_t>(size), 0);
    std::vector<std::uint8_t> live_preds(static_cast<std::size_t>(size), 0);

    auto live_out = [&](int pc) {
        const Instruction &instr =
            program_.body[static_cast<std::size_t>(pc)];
        std::uint64_t regs = 0;
        std::uint8_t preds = 0;
        if (instr.op != Opcode::Exit) {
            if (pc + 1 < size) {
                regs |= live_regs[static_cast<std::size_t>(pc + 1)];
                preds |= live_preds[static_cast<std::size_t>(pc + 1)];
            }
            if (instr.op == Opcode::Bra && instr.imm >= 0
                && instr.imm < size) {
                regs |= live_regs[static_cast<std::size_t>(instr.imm)];
                preds |= live_preds[static_cast<std::size_t>(instr.imm)];
            }
        }
        return std::pair{regs, preds};
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int pc = size - 1; pc >= 0; --pc) {
            const auto idx = static_cast<std::size_t>(pc);
            const Instruction &instr = program_.body[idx];
            // Kill what an unpredicated write certainly overwrites; gen
            // every read.
            auto [regs, preds] = live_out(pc);
            regs = (regs & ~isa::regKills(instr)) | isa::regUses(instr);
            preds = static_cast<std::uint8_t>(
                (preds & ~isa::predKills(instr)) | isa::predUses(instr));
            if (regs != live_regs[idx] || preds != live_preds[idx]) {
                live_regs[idx] = regs;
                live_preds[idx] = preds;
                changed = true;
            }
        }
    }

    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        if (!analysis_.in[idx].reachable)
            continue;
        const Instruction &instr = program_.body[idx];
        const auto [regs, preds] = live_out(pc);
        if (isa::writesRegister(instr.op) && instr.dst < isa::numRegisters
            && !((regs >> instr.dst) & 1u)) {
            add(LintCode::DeadWrite, pc,
                strFormat("r%d written but never read afterwards",
                          int(instr.dst)));
        }
        if (instr.op == Opcode::SetP && instr.dst < isa::numPredicates
            && !((preds >> instr.dst) & 1u)) {
            add(LintCode::DeadWrite, pc,
                strFormat("p%d set but never read afterwards",
                          int(instr.dst)));
        }
    }
}

std::vector<LintFinding>
Linter::run()
{
    const int size = static_cast<int>(program_.body.size());
    std::vector<RuleViolation> violations;
    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        const Instruction &instr = program_.body[idx];
        const AbsState &in = analysis_.in[idx];
        checkStructure(instr, pc, size, violations);
        if (!in.reachable) {
            report(pc, violations);
            add(LintCode::Unreachable, pc,
                strFormat("%s is unreachable", opcodeName(instr.op).c_str()));
            continue;
        }
        checkUninit(instr, in, violations);
        // A provably-false guard means the access never happens.
        if (isa::isMemoryOp(instr.op)
            && guardValue(in, instr) != Bool3::False) {
            if (auto v = checkSegment(program_, instr,
                                      memoryAddress(in, instr))) {
                violations.push_back(std::move(*v));
            }
        }
        report(pc, violations);
    }
    checkFallsOffEnd();
    checkDeadWrites();

    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const LintFinding &a, const LintFinding &b) {
                         return a.pc < b.pc;
                     });
    return std::move(findings_);
}

} // namespace

std::string
lintCodeName(LintCode code)
{
    switch (code) {
      case LintCode::UninitRegRead: return "uninit-reg-read";
      case LintCode::UninitPredRead: return "uninit-pred-read";
      case LintCode::DeadWrite: return "dead-write";
      case LintCode::Unreachable: return "unreachable";
      case LintCode::SharedOob: return "shared-oob";
      case LintCode::ConstOob: return "const-oob";
      case LintCode::TexOob: return "tex-oob";
      case LintCode::NonCanonical: return "non-canonical";
      case LintCode::BadReconv: return "bad-reconv";
      case LintCode::FallsOffEnd: return "falls-off-end";
    }
    return "unknown";
}

std::string
LintFinding::toString() const
{
    return "pc " + std::to_string(pc) + ": " + lintCodeName(code) + ": "
           + message;
}

std::vector<LintFinding>
lintProgram(const isa::Program &program)
{
    return Linter(program).run();
}

} // namespace bvf::analysis
