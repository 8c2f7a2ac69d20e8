#include "analysis/interpreter.hh"

#include <algorithm>
#include <deque>

namespace bvf::analysis
{

using isa::Instruction;
using isa::Opcode;

namespace
{

/** Interval-join count per pc before the intervals widen to top. */
constexpr int widenThreshold = 256;

/** Outer load/store iterations before memory summaries widen to top. */
constexpr int memoryIterations = 8;

bool
sameState(const AbsState &a, const AbsState &b)
{
    return a.reachable == b.reachable && a.regWritten == b.regWritten
           && a.predWritten == b.predWritten && a.regs == b.regs
           && a.preds == b.preds;
}

KnownBits
joinImage(const std::vector<Word> &image)
{
    KnownBits kb = KnownBits::constant(image.empty() ? 0 : image.front());
    for (Word w : image)
        kb = join(kb, KnownBits::constant(w));
    return kb;
}

/** SignedInterval transfer; top where the reduction from kb does better. */
SignedInterval
siAluResult(const Instruction &instr, const AbsState &s)
{
    const SignedInterval a = s.regs[regIndex(instr.srcA)].si();
    const SignedInterval b =
        instr.immB ? SignedInterval::constant(static_cast<Word>(instr.imm))
                   : s.regs[regIndex(instr.srcB)].si();
    switch (instr.op) {
      case Opcode::IAdd:
        return siAdd(a, b);
      case Opcode::ISub:
        return siSub(a, b);
      case Opcode::IMul:
        return siMul(a, b);
      case Opcode::IMad:
        return siAdd(siMul(a, b), s.regs[regIndex(instr.dst)].si());
      case Opcode::Mov:
        return b;
      case Opcode::Min:
        return siMinSigned(a, b);
      case Opcode::Max:
        return siMaxSigned(a, b);
      default:
        return SignedInterval::top();
    }
}

/** LaneAffine transfer over the full product state. */
LaneAffine
laAluResult(const Instruction &instr, const AbsState &s)
{
    const LaneAffine a = s.regs[regIndex(instr.srcA)].affine();
    const LaneAffine b =
        instr.immB ? LaneAffine::uniform()
                   : s.regs[regIndex(instr.srcB)].affine();
    const KnownBits &akb = s.regs[regIndex(instr.srcA)].kb();
    const KnownBits bkb =
        instr.immB ? KnownBits::constant(static_cast<Word>(instr.imm))
                   : s.regs[regIndex(instr.srcB)].kb();

    // (base_a + s_a*i) * c is affine again only when c is the same
    // known constant in every lane; a merely *uniform* factor keeps a
    // uniform product but an unknown stride otherwise.
    auto mul = [&]() -> LaneAffine {
        if (a.isUniform() && b.isUniform())
            return LaneAffine::uniform();
        if (a.known && b.isUniform() && bkb.isConstant())
            return laScale(a, bkb.lo);
        if (b.known && a.isUniform() && akb.isConstant())
            return laScale(b, akb.lo);
        return LaneAffine::top();
    };

    switch (instr.op) {
      case Opcode::IAdd:
        return laAdd(a, b);
      case Opcode::ISub:
        return laSub(a, b);
      case Opcode::IMul:
        return mul();
      case Opcode::IMad:
        return laAdd(mul(), s.regs[regIndex(instr.dst)].affine());
      case Opcode::Mov:
        return b;
      case Opcode::Shl:
        if (a.known && b.isUniform() && bkb.isConstant())
            return laScale(a, Word(1) << (bkb.lo & 31));
        if (a.isUniform() && b.isUniform())
            return LaneAffine::uniform();
        return LaneAffine::top();
      case Opcode::S2R:
        switch (static_cast<isa::SpecialReg>(instr.flags)) {
          case isa::SpecialReg::LaneId:
          case isa::SpecialReg::TidX:
            // tid = warp base + lane, so both are stride 1 in the lane.
            return LaneAffine::strided(1);
          case isa::SpecialReg::WarpId:
          case isa::SpecialReg::CtaIdX:
          case isa::SpecialReg::NTidX:
          case isa::SpecialReg::GridDimX:
            return LaneAffine::uniform();
        }
        return LaneAffine::top();
      default: {
        // Every remaining data-path op computes each lane as a pure
        // function of that lane's operands, so uniform inputs give a
        // uniform output -- floats included.
        const bool uniA = !isa::readsSrcA(instr.op) || a.isUniform();
        const bool uniB =
            !isa::readsSrcB(instr.op) || instr.immB || b.isUniform();
        const bool uniD = !isa::readsDst(instr.op)
                          || s.regs[regIndex(instr.dst)].affine().isUniform();
        return uniA && uniB && uniD ? LaneAffine::uniform()
                                    : LaneAffine::top();
      }
    }
}

struct Successor
{
    int pc;
    AbsState state;
};

/**
 * One abstract instruction step: returns the successor program points
 * with their OUT states and reports stored values / written results to
 * the caller (for the memory fixpoint and regAnywhere accumulation).
 */
class Stepper
{
  public:
    Stepper(const isa::Program &program, const MemorySummaries &memory,
            const std::vector<std::uint8_t> &divergentRegion)
        : program_(program), memory_(memory),
          divergentRegion_(divergentRegion)
    {
    }

    /** Joined abstraction of every value stored by Stg this pass. */
    const KnownBits &storedGlobal() const { return storedGlobal_; }
    bool anyGlobalStore() const { return anyGlobalStore_; }

    /** Joined abstraction of every value stored by Sts this pass. */
    const KnownBits &storedShared() const { return storedShared_; }
    bool anySharedStore() const { return anySharedStore_; }

    /** Join of every register-write result, indexed by register. */
    const std::array<KnownBits, isa::numRegisters> &written() const
    {
        return written_;
    }
    std::uint64_t writtenMask() const { return writtenMask_; }

    std::vector<Successor> step(int pc, const AbsState &in);

  private:
    void
    noteWrite(int reg, const KnownBits &value)
    {
        const auto idx = static_cast<std::size_t>(reg);
        written_[idx] = (writtenMask_ >> reg) & 1u
                            ? join(written_[idx], value)
                            : value;
        writtenMask_ |= std::uint64_t(1) << reg;
    }

    const isa::Program &program_;
    const MemorySummaries &memory_;
    const std::vector<std::uint8_t> &divergentRegion_;
    KnownBits storedGlobal_;
    KnownBits storedShared_;
    bool anyGlobalStore_ = false;
    bool anySharedStore_ = false;
    std::array<KnownBits, isa::numRegisters> written_{};
    std::uint64_t writtenMask_ = 0;
};

std::vector<Successor>
Stepper::step(int pc, const AbsState &in)
{
    const Instruction &instr = program_.body[static_cast<std::size_t>(pc)];
    const Bool3 guard = guardValue(in, instr);

    switch (instr.op) {
      case Opcode::Exit:
        // The SM retires the warp regardless of the guard predicate.
        return {};
      case Opcode::Bar:
      case Opcode::Nop:
        return {{pc + 1, in}};
      case Opcode::Bra: {
        std::vector<Successor> succs;
        if (guard != Bool3::False)
            succs.push_back({instr.imm, in});
        if (guard != Bool3::True)
            succs.push_back({pc + 1, in});
        return succs;
      }
      default:
        break;
    }

    if (guard == Bool3::False)
        return {{pc + 1, in}};

    if (isa::isStoreOp(instr.op)) {
        const KnownBits value = in.regs[regIndex(instr.srcB)].kb();
        if (instr.op == Opcode::Stg) {
            storedGlobal_ = anyGlobalStore_ ? join(storedGlobal_, value)
                                            : value;
            anyGlobalStore_ = true;
        } else {
            storedShared_ = anySharedStore_ ? join(storedShared_, value)
                                            : value;
            anySharedStore_ = true;
        }
        return {{pc + 1, in}};
    }

    AbsState out = in;
    transferWrite(instr, divergentRegion_[static_cast<std::size_t>(pc)],
                  program_.launch, memory_, out);
    if (isa::writesRegister(instr.op)) {
        const std::size_t idx = regIndex(instr.dst);
        noteWrite(static_cast<int>(idx), out.regs[idx].kb());
    }
    return {{pc + 1, out}};
}

/**
 * Mark every pc a warp might execute with a partial mask after the
 * divergent branch at @p entry's arm: the syntactic CFG closure from
 * the arm entry, stopping (exclusively) at the reconvergence point,
 * where Warp::reconvergeIfNeeded restores the full mask before issue.
 * Out-of-range targets simply end the walk (the SM never issues them).
 * Returns whether any new pc was marked.
 */
bool
contaminate(std::vector<std::uint8_t> &region, const isa::Program &program,
            int entry, int reconv)
{
    const int size = static_cast<int>(program.body.size());
    bool grew = false;
    std::vector<int> stack{entry};
    while (!stack.empty()) {
        const int pc = stack.back();
        stack.pop_back();
        if (pc < 0 || pc >= size || pc == reconv)
            continue;
        auto &mark = region[static_cast<std::size_t>(pc)];
        if (mark)
            continue;
        mark = 1;
        grew = true;
        const Instruction &instr = program.body[static_cast<std::size_t>(pc)];
        if (instr.op == Opcode::Exit)
            continue;
        if (instr.op == Opcode::Bra) {
            stack.push_back(instr.imm);
            // An unconditional branch never falls through.
            if (isa::readsGuard(instr))
                stack.push_back(pc + 1);
            continue;
        }
        stack.push_back(pc + 1);
    }
    return grew;
}

} // namespace

AbsState
entryState()
{
    AbsState s;
    s.regs.fill(AbsValue::constant(0));
    s.preds.fill(PredValue{Bool3::False, Uniformity::Uniform});
    s.reachable = true;
    return s;
}

AbsState
joinState(const AbsState &into, const AbsState &next, bool doWiden)
{
    AbsState r;
    r.reachable = true;
    r.regWritten = into.regWritten & next.regWritten;
    r.predWritten = into.predWritten & next.predWritten;
    for (int i = 0; i < isa::numRegisters; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        AbsValue j = join(into.regs[idx], next.regs[idx]);
        if (doWiden)
            j = widen(into.regs[idx], j);
        r.regs[idx] = j;
    }
    for (int i = 0; i < isa::numPredicates; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        r.preds[idx] = join(into.preds[idx], next.preds[idx]);
    }
    return r;
}

bool
constantOf(const AbsValue &v, Word &out)
{
    if (v.kb().isConstant()) {
        out = v.kb().knownOne;
        return true;
    }
    if (v.si().slo == v.si().shi) {
        out = static_cast<Word>(v.si().slo);
        return true;
    }
    return false;
}

std::vector<char>
blockLeaders(const isa::Program &program)
{
    const int size = static_cast<int>(program.body.size());
    std::vector<char> leader(static_cast<std::size_t>(size), 0);
    if (size > 0)
        leader[0] = 1;
    auto mark = [&](int pc) {
        if (pc >= 0 && pc < size)
            leader[static_cast<std::size_t>(pc)] = 1;
    };
    for (int pc = 0; pc < size; ++pc) {
        const Instruction &instr = program.body[static_cast<std::size_t>(pc)];
        if (instr.op == Opcode::Bra) {
            mark(instr.imm);
            mark(instr.reconv);
            mark(pc + 1);
        } else if (instr.op == Opcode::Exit) {
            mark(pc + 1);
        }
    }
    return leader;
}

AbsValue
reduceValue(AbsValue v)
{
    KnownBits &kb = v.kb();
    SignedInterval &si = v.si();
    if (kb.empty())
        return v;

    // kb -> si: the unsigned interval maps monotonically onto signed
    // values whenever it stays on one side of the 2^31 wrap point.
    if (kb.hi <= 0x7fffffffu || kb.lo >= 0x80000000u) {
        const SignedInterval fromKb{static_cast<std::int32_t>(kb.lo),
                                    static_cast<std::int32_t>(kb.hi)};
        const SignedInterval meet{std::max(si.slo, fromKb.slo),
                                  std::min(si.shi, fromKb.shi)};
        if (meet.slo <= meet.shi)
            si = meet;
    }

    // si -> kb: same one-sidedness condition, in signed terms.
    Word ulo = 0;
    Word uhi = 0;
    bool haveU = false;
    if (si.slo >= 0) {
        ulo = static_cast<Word>(si.slo);
        uhi = static_cast<Word>(si.shi);
        haveU = true;
    } else if (si.shi < 0) {
        ulo = static_cast<Word>(si.slo);
        uhi = static_cast<Word>(si.shi);
        haveU = true;
    }
    if (haveU) {
        KnownBits refined = kb;
        refined.lo = std::max(kb.lo, ulo);
        refined.hi = std::min(kb.hi, uhi);
        refined = refined.normalized();
        if (!refined.empty())
            kb = refined;
    }
    return v;
}

Bool3
guardValue(const AbsState &s, const Instruction &instr)
{
    if (!isa::readsGuard(instr))
        return Bool3::True;
    const Bool3 v = s.preds[instr.pred % isa::numPredicates].value;
    return instr.predNegate ? not3(v) : v;
}

Uniformity
guardUniformity(const AbsState &s, const Instruction &instr)
{
    if (!isa::readsGuard(instr))
        return Uniformity::Uniform;
    // Negation is lanewise; it cannot create divergence.
    return s.preds[instr.pred % isa::numPredicates].uni;
}

KnownBits
operandA(const AbsState &s, const Instruction &instr)
{
    return s.regs[instr.srcA % isa::numRegisters].kb();
}

KnownBits
operandB(const AbsState &s, const Instruction &instr)
{
    if (instr.immB)
        return KnownBits::constant(static_cast<Word>(instr.imm));
    return s.regs[instr.srcB % isa::numRegisters].kb();
}

AbsValue
valueA(const AbsState &s, const Instruction &instr)
{
    return s.regs[instr.srcA % isa::numRegisters];
}

AbsValue
valueB(const AbsState &s, const Instruction &instr)
{
    if (instr.immB)
        return AbsValue::constant(static_cast<Word>(instr.imm));
    return s.regs[instr.srcB % isa::numRegisters];
}

KnownBits
aluResult(const Instruction &instr, const AbsState &s,
          const isa::LaunchDims &launch)
{
    const KnownBits a = operandA(s, instr);
    const KnownBits b = operandB(s, instr);
    switch (instr.op) {
      case Opcode::IAdd:
        return kbAdd(a, b);
      case Opcode::ISub:
        return kbSub(a, b);
      case Opcode::IMul:
        return kbMul(a, b);
      case Opcode::IMad:
        return kbAdd(kbMul(a, b),
                     s.regs[instr.dst % isa::numRegisters].kb());
      case Opcode::Mov:
        return b;
      case Opcode::Shl:
        return kbShl(a, b);
      case Opcode::Shr:
        return kbShr(a, b);
      case Opcode::And:
        return kbAnd(a, b);
      case Opcode::Or:
        return kbOr(a, b);
      case Opcode::Xor:
        return kbXor(a, b);
      case Opcode::Clz:
        return kbClz(a);
      case Opcode::Min:
        return kbMinSigned(a, b);
      case Opcode::Max:
        return kbMaxSigned(a, b);
      case Opcode::S2R:
        switch (static_cast<isa::SpecialReg>(instr.flags)) {
          case isa::SpecialReg::LaneId:
            return KnownBits::range(0, 31);
          case isa::SpecialReg::WarpId:
            return KnownBits::range(
                0, static_cast<Word>(launch.warpsPerBlock() - 1));
          case isa::SpecialReg::TidX:
            return KnownBits::range(
                0, static_cast<Word>(launch.blockThreads - 1));
          case isa::SpecialReg::CtaIdX:
            return KnownBits::range(
                0, static_cast<Word>(launch.gridBlocks - 1));
          case isa::SpecialReg::NTidX:
            return KnownBits::constant(
                static_cast<Word>(launch.blockThreads));
          case isa::SpecialReg::GridDimX:
            return KnownBits::constant(
                static_cast<Word>(launch.gridBlocks));
        }
        return KnownBits::top();
      case Opcode::Ffma:
      case Opcode::Fadd:
      case Opcode::Fmul:
      case Opcode::I2F:
      case Opcode::F2I:
      default:
        // Floating-point bit patterns are not tracked.
        return KnownBits::top();
    }
}

AbsValue
aluValue(const Instruction &instr, const AbsState &s,
         const isa::LaunchDims &launch)
{
    AbsValue v;
    v.kb() = aluResult(instr, s, launch);
    v.si() = siAluResult(instr, s);
    v.affine() = laAluResult(instr, s);
    return reduceValue(v);
}

KnownBits
loadResult(const Instruction &instr, const MemorySummaries &memory)
{
    switch (instr.op) {
      case Opcode::Ldg:
        return memory.global;
      case Opcode::Lds:
        return memory.shared;
      case Opcode::Ldc:
        return memory.constant;
      case Opcode::Ldt:
        return memory.texture;
      default:
        return KnownBits::top();
    }
}

AbsValue
loadValue(const Instruction &instr, const AbsState &s,
          const MemorySummaries &memory)
{
    AbsValue v;
    v.kb() = loadResult(instr, memory);
    v.si() = SignedInterval::top();
    // A lane-uniform address reads one location; memory does not change
    // during the access, so every lane receives the same word.
    v.affine() = s.regs[instr.srcA % isa::numRegisters].affine().isUniform()
                     ? LaneAffine::uniform()
                     : LaneAffine::top();
    return reduceValue(v);
}

KnownBits
memoryAddress(const AbsState &s, const Instruction &instr)
{
    return kbAdd(s.regs[instr.srcA % isa::numRegisters].kb(),
                 KnownBits::constant(static_cast<Word>(instr.imm)));
}

void
transferWrite(const Instruction &instr, bool divergent,
              const isa::LaunchDims &launch, const MemorySummaries &memory,
              AbsState &state)
{
    const Bool3 guard = guardValue(state, instr);
    if (guard == Bool3::False)
        return;
    const bool certain = guard == Bool3::True;

    // Whole-warp write: when this instruction executes at all, every
    // lane of the warp executes it.
    const bool wholeWarp =
        !divergent && guardUniformity(state, instr) == Uniformity::Uniform;

    if (instr.op == Opcode::SetP) {
        const isa::CmpOp cmp = static_cast<isa::CmpOp>(instr.flags);
        Bool3 v =
            kbCompare(cmp, operandA(state, instr), operandB(state, instr));
        const AbsValue &a = state.regs[regIndex(instr.srcA)];
        const AbsValue &b = state.regs[regIndex(instr.srcB)];
        if (v == Bool3::Unknown) {
            v = siCompare(cmp, a.si(),
                          instr.immB ? SignedInterval::constant(
                                           static_cast<Word>(instr.imm))
                                     : b.si());
        }
        const bool lanesAgree =
            a.affine().isUniform() && (instr.immB || b.affine().isUniform());
        const Uniformity uni = wholeWarp && lanesAgree
                                   ? Uniformity::Uniform
                                   : Uniformity::MayDiverge;
        const std::size_t idx = predIndex(instr.dst);
        PredValue &pred = state.preds[idx];
        if (certain) {
            pred = {v, uni};
            state.predWritten |= static_cast<std::uint8_t>(1u << idx);
        } else {
            pred.value = join(pred.value, v);
            pred.uni = wholeWarp ? join(pred.uni, uni)
                                 : Uniformity::MayDiverge;
        }
        return;
    }

    if (!isa::writesRegister(instr.op))
        return;
    AbsValue result = isa::isLoadOp(instr.op)
                          ? loadValue(instr, state, memory)
                          : aluValue(instr, state, launch);
    if (!wholeWarp) {
        // A partial-mask write leaves stale values in the sat-out
        // lanes; the vector is a mixture with no affine structure.
        result.affine() = LaneAffine::top();
    }
    const std::size_t idx = regIndex(instr.dst);
    state.regs[idx] = certain ? result : join(state.regs[idx], result);
    if (certain)
        state.regWritten |= std::uint64_t(1) << idx;
}

AnalysisResult
analyzeProgram(const isa::Program &program)
{
    AnalysisResult result;
    const int size = static_cast<int>(program.body.size());
    result.in.assign(static_cast<std::size_t>(size), AbsState{});
    result.regAnywhere.fill(KnownBits::constant(0));
    result.divergentRegion.assign(static_cast<std::size_t>(size), 0);
    if (size == 0) {
        result.fellOffEnd = true;
        return result;
    }

    // Summaries without store feedback: image words plus the zero every
    // out-of-range or uninitialized location yields.
    MemorySummaries base;
    base.global = join(joinImage(program.global), KnownBits::constant(0));
    base.shared = KnownBits::constant(0);
    base.constant = joinImage(program.constants);
    base.texture = joinImage(program.texture);

    // Outer divergence fixpoint: run the whole analysis, find branches
    // that can split a warp, grow the divergent-region set, repeat. The
    // set only grows (and only weakens lane facts, never per-thread
    // ones), so the loop terminates within |body| rounds.
    std::vector<std::uint8_t> region(static_cast<std::size_t>(size), 0);
    for (;;) {
        result.regAnywhere.fill(KnownBits::constant(0));
        MemorySummaries memory = base;
        for (int iter = 0;; ++iter) {
            Stepper stepper(program, memory, region);

            for (AbsState &s : result.in)
                s = AbsState{};
            result.in[0] = entryState();
            result.fellOffEnd = false;

            std::vector<int> updates(static_cast<std::size_t>(size), 0);
            std::deque<int> worklist{0};
            std::vector<bool> queued(static_cast<std::size_t>(size), false);
            queued[0] = true;
            while (!worklist.empty()) {
                const int pc = worklist.front();
                worklist.pop_front();
                queued[static_cast<std::size_t>(pc)] = false;

                const AbsState in = result.in[static_cast<std::size_t>(pc)];
                for (const Successor &succ : stepper.step(pc, in)) {
                    if (succ.pc < 0 || succ.pc >= size) {
                        result.fellOffEnd = true;
                        continue;
                    }
                    const auto sidx = static_cast<std::size_t>(succ.pc);
                    AbsState &old = result.in[sidx];
                    AbsState merged =
                        old.reachable
                            ? joinState(old, succ.state,
                                        updates[sidx] >= widenThreshold)
                            : succ.state;
                    merged.reachable = true;
                    if (!old.reachable || !sameState(merged, old)) {
                        old = merged;
                        ++updates[sidx];
                        if (!queued[sidx]) {
                            queued[sidx] = true;
                            worklist.push_back(succ.pc);
                        }
                    }
                }
            }

            // Feed stored values back into the load summaries.
            MemorySummaries next = base;
            if (stepper.anyGlobalStore())
                next.global = join(next.global, stepper.storedGlobal());
            if (stepper.anySharedStore())
                next.shared = join(next.shared, stepper.storedShared());
            // Monotone ascent so the outer loop cannot oscillate.
            next.global = join(next.global, memory.global);
            next.shared = join(next.shared, memory.shared);

            if (next == memory) {
                for (int r = 0; r < isa::numRegisters; ++r) {
                    const auto idx = static_cast<std::size_t>(r);
                    for (const AbsState &s : result.in) {
                        if (s.reachable)
                            result.regAnywhere[idx] =
                                join(result.regAnywhere[idx],
                                     s.regs[idx].kb());
                    }
                    if ((stepper.writtenMask() >> r) & 1u) {
                        result.regAnywhere[idx] =
                            join(result.regAnywhere[idx],
                                 stepper.written()[idx]);
                    }
                }
                result.memory = memory;
                break;
            }
            memory = iter < memoryIterations
                         ? next
                         : MemorySummaries{KnownBits::top(),
                                           KnownBits::top(),
                                           next.constant, next.texture};
        }

        // Find branches whose guard is both unknown and possibly
        // non-uniform: only those can split a warp.
        bool grew = false;
        for (int pc = 0; pc < size; ++pc) {
            const auto idx = static_cast<std::size_t>(pc);
            const Instruction &instr = program.body[idx];
            if (instr.op != Opcode::Bra || !result.in[idx].reachable)
                continue;
            if (guardValue(result.in[idx], instr) != Bool3::Unknown)
                continue;
            if (guardUniformity(result.in[idx], instr)
                == Uniformity::Uniform)
                continue;
            grew |= contaminate(region, program, pc + 1, instr.reconv);
            grew |= contaminate(region, program, instr.imm, instr.reconv);
        }
        if (!grew) {
            result.divergentRegion = region;
            return result;
        }
    }
}

} // namespace bvf::analysis
