/**
 * @file
 * Translation validator implementation.
 *
 * Layer 1 re-derives every fact from the *original* program: the
 * reduced-product analysis justifies constant folds, identity
 * reductions and branch unpredications; a deletion-restricted backward
 * liveness justifies dead-write removal (gens and kills come only from
 * kept instructions, so a cascade of deletions is checked as the set it
 * is, not one edit at a time); and copy propagation is justified by a
 * direct backward scan for the reaching unpredicated MOV -- a different
 * algorithm from the optimizer's forward tracking on purpose.
 *
 * Layer 2 is the reference interpreter: a functional mirror of
 * gpu/sm.cc (same per-lane ALU results, the same shared-memory index
 * wrap, the same constant/texture modulo-and-align, the same
 * out-of-bounds global behavior, the same SIMT stack discipline and
 * barrier release rule) without any timing model. Both programs run
 * under the same deterministic schedule and must produce the same
 * store sequence and final memory.
 */

#include "analysis/equiv.hh"

#include <algorithm>
#include <array>

#include "analysis/interpreter.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/bytecode.hh"
#include "isa/opcode.hh"
#include "isa/semantics.hh"

namespace bvf::analysis
{

namespace
{

using isa::Instruction;
using isa::Opcode;

constexpr int kWarpSize = 32;
constexpr std::uint32_t kFullMask = 0xffffffffu;

/** Is the guard a real predicate-register read (not the PT sentinel)? */
bool
readsGuard(const Instruction &instr)
{
    return instr.pred != isa::predTrue || instr.predNegate;
}

/** Is the product value pinned to a single word? */
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

// ---------------------------------------------------------------------
// Reference interpreter
// ---------------------------------------------------------------------

struct SimtFrame
{
    int pc;
    std::uint32_t mask;
    int rpc;
};

struct RefWarp
{
    std::array<std::array<Word, isa::numRegisters>, kWarpSize> regs{};
    std::array<std::array<bool, isa::numPredicates>, kWarpSize> preds{};
    std::vector<SimtFrame> stack;
    std::uint32_t existMask = kFullMask;
    int warpIdInBlock = 0;
    int blockId = 0;
    bool done = false;
    bool atBarrier = false;
    bool aborted = false;
};

class RefMachine
{
  public:
    RefMachine(const isa::Program &program, std::uint64_t maxSteps)
        : program_(program), global_(program.global), budget_(maxSteps)
    {
    }

    RefObservation
    run()
    {
        RefObservation obs;
        obs.finished = true;
        for (int block = 0; block < program_.launch.gridBlocks; ++block) {
            if (!runBlock(block, obs)) {
                obs.finished = false;
                break;
            }
        }
        obs.globalFinal = global_;
        std::swap(obs.stores, stores_);
        std::swap(obs.sharedFinal, sharedFinal_);
        return obs;
    }

  private:
    bool
    runBlock(int blockId, RefObservation &obs)
    {
        const int threads = program_.launch.blockThreads;
        const int num_warps = program_.launch.warpsPerBlock();
        shared_.assign(program_.sharedBytesPerBlock / 4, 0);

        std::vector<RefWarp> warps(static_cast<std::size_t>(num_warps));
        for (int w = 0; w < num_warps; ++w) {
            RefWarp &warp = warps[static_cast<std::size_t>(w)];
            const int live = std::min(kWarpSize, threads - w * kWarpSize);
            warp.existMask = live == kWarpSize
                                 ? kFullMask
                                 : ((1u << live) - 1u);
            warp.warpIdInBlock = w;
            warp.blockId = blockId;
            warp.stack.push_back(
                SimtFrame{0, warp.existMask, -1});
        }

        for (;;) {
            bool progressed = false;
            for (RefWarp &warp : warps) {
                while (!warp.done && !warp.atBarrier) {
                    if (budget_ == 0)
                        return false;
                    --budget_;
                    stepWarp(warp);
                    if (warp.aborted)
                        return false;
                    progressed = true;
                }
            }
            bool all_done = true;
            bool any_waiting = false;
            for (const RefWarp &warp : warps) {
                all_done = all_done && warp.done;
                any_waiting = any_waiting || warp.atBarrier;
            }
            if (all_done)
                break;
            if (!any_waiting && !progressed)
                return false; // wedged; cannot happen on admitted code
            // Every live warp is waiting: release the barrier, exactly
            // as Sm::handleBarrierRelease does.
            for (RefWarp &warp : warps)
                warp.atBarrier = false;
        }
        (void)obs;
        sharedFinal_.push_back(shared_);
        return true;
    }

    std::uint32_t
    guardMaskOf(const RefWarp &warp, const Instruction &instr) const
    {
        const std::uint32_t mask = warp.stack.back().mask;
        if (instr.pred == isa::predTrue && !instr.predNegate)
            return mask;
        std::uint32_t pass = 0;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!((mask >> lane) & 1u))
                continue;
            bool p = warp.preds[static_cast<std::size_t>(lane)]
                               [instr.pred];
            if (instr.predNegate)
                p = !p;
            if (p)
                pass |= 1u << lane;
        }
        return pass;
    }

    Word
    readGlobal(std::uint32_t addr) const
    {
        if (addr < isa::globalSegmentBase)
            return 0;
        const std::size_t idx = (addr - isa::globalSegmentBase) / 4;
        return idx < global_.size() ? global_[idx] : 0;
    }

    void
    writeGlobal(std::uint32_t addr, Word v)
    {
        if (addr < isa::globalSegmentBase)
            return;
        const std::size_t idx = (addr - isa::globalSegmentBase) / 4;
        if (idx < global_.size())
            global_[idx] = v;
    }

    Word
    specialValue(const RefWarp &warp, int lane, isa::SpecialReg sr) const
    {
        switch (sr) {
          case isa::SpecialReg::LaneId:
            return static_cast<Word>(lane);
          case isa::SpecialReg::WarpId:
            return static_cast<Word>(warp.warpIdInBlock);
          case isa::SpecialReg::TidX:
            return static_cast<Word>(warp.warpIdInBlock * kWarpSize
                                     + lane);
          case isa::SpecialReg::CtaIdX:
            return static_cast<Word>(warp.blockId);
          case isa::SpecialReg::NTidX:
            return static_cast<Word>(program_.launch.blockThreads);
          case isa::SpecialReg::GridDimX:
            return static_cast<Word>(program_.launch.gridBlocks);
        }
        return 0;
    }

    void
    stepWarp(RefWarp &warp)
    {
        while (warp.stack.size() > 1
               && warp.stack.back().pc == warp.stack.back().rpc) {
            warp.stack.pop_back();
        }
        const int pc = warp.stack.back().pc;
        const int size = static_cast<int>(program_.body.size());
        if (pc < 0 || pc >= size) {
            warp.aborted = true;
            return;
        }
        const Instruction &instr =
            program_.body[static_cast<std::size_t>(pc)];
        const std::uint32_t guard = guardMaskOf(warp, instr);
        auto advance = [&] { ++warp.stack.back().pc; };

        switch (instr.op) {
          case Opcode::Bra: {
            const std::uint32_t active = warp.stack.back().mask;
            if (guard == 0) {
                advance();
            } else if (guard == active) {
                warp.stack.back().pc = instr.imm;
            } else {
                SimtFrame &top = warp.stack.back();
                const std::uint32_t not_taken = top.mask & ~guard;
                top.pc = instr.reconv;
                warp.stack.push_back(
                    SimtFrame{pc + 1, not_taken, instr.reconv});
                warp.stack.push_back(
                    SimtFrame{instr.imm, guard, instr.reconv});
            }
            return;
          }
          case Opcode::Exit:
            warp.done = true;
            return;
          case Opcode::Bar:
            warp.atBarrier = true;
            advance();
            return;
          case Opcode::Nop:
            advance();
            return;
          default:
            break;
        }

        if (isa::isMemoryOp(instr.op)) {
            if (guard != 0)
                executeMemory(warp, instr, guard);
            advance();
            return;
        }

        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!((guard >> lane) & 1u))
                continue;
            auto &regs = warp.regs[static_cast<std::size_t>(lane)];
            if (instr.op == Opcode::S2R) {
                regs[instr.dst] = specialValue(
                    warp, lane, static_cast<isa::SpecialReg>(instr.flags));
                continue;
            }
            const Word b = instr.immB ? static_cast<Word>(instr.imm)
                                      : regs[instr.srcB];
            const Word result = isa::evalLane(instr.op, regs[instr.srcA],
                                              b, regs[instr.dst],
                                              instr.flags);
            if (instr.op == Opcode::SetP) {
                warp.preds[static_cast<std::size_t>(lane)][instr.dst] =
                    result != 0;
                continue;
            }
            regs[instr.dst] = result;
        }
        advance();
    }

    void
    executeMemory(RefWarp &warp, const Instruction &instr,
                  std::uint32_t guard)
    {
        switch (instr.op) {
          case Opcode::Ldg:
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (!((guard >> lane) & 1u))
                    continue;
                auto &regs = warp.regs[static_cast<std::size_t>(lane)];
                const std::uint32_t a =
                    regs[instr.srcA]
                    + static_cast<std::uint32_t>(instr.imm);
                regs[instr.dst] = readGlobal(a);
            }
            return;
          case Opcode::Stg: {
            RefStore store;
            store.space = 'g';
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (!((guard >> lane) & 1u))
                    continue;
                auto &regs = warp.regs[static_cast<std::size_t>(lane)];
                const std::uint32_t a =
                    regs[instr.srcA]
                    + static_cast<std::uint32_t>(instr.imm);
                const Word v = regs[instr.srcB];
                writeGlobal(a, v);
                store.writes.emplace_back(a, v);
            }
            stores_.push_back(std::move(store));
            return;
          }
          case Opcode::Lds:
          case Opcode::Sts: {
            const bool is_store = instr.op == Opcode::Sts;
            const std::size_t shared_words = shared_.size();
            RefStore store;
            store.space = 's';
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (!((guard >> lane) & 1u))
                    continue;
                auto &regs = warp.regs[static_cast<std::size_t>(lane)];
                const std::uint32_t a =
                    regs[instr.srcA]
                    + static_cast<std::uint32_t>(instr.imm);
                const std::size_t idx =
                    shared_words ? (a / 4) % shared_words : 0;
                if (is_store) {
                    const Word v = regs[instr.srcB];
                    if (shared_words)
                        shared_[idx] = v;
                    store.writes.emplace_back(
                        static_cast<std::uint32_t>(idx), v);
                } else {
                    regs[instr.dst] =
                        shared_words ? shared_[idx] : 0;
                }
            }
            if (is_store)
                stores_.push_back(std::move(store));
            return;
          }
          case Opcode::Ldc:
          case Opcode::Ldt: {
            const auto &image = instr.op == Opcode::Ldt
                                    ? program_.texture
                                    : program_.constants;
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (!((guard >> lane) & 1u))
                    continue;
                auto &regs = warp.regs[static_cast<std::size_t>(lane)];
                std::uint32_t a =
                    regs[instr.srcA]
                    + static_cast<std::uint32_t>(instr.imm);
                if (!image.empty())
                    a %= static_cast<std::uint32_t>(image.size() * 4);
                a &= ~3u;
                const std::size_t idx = a / 4;
                regs[instr.dst] =
                    idx < image.size() ? image[idx] : Word(0);
            }
            return;
          }
          default:
            warp.aborted = true;
            return;
        }
    }

    const isa::Program &program_;
    std::vector<Word> global_;
    std::vector<Word> shared_;
    std::vector<RefStore> stores_;
    std::vector<std::vector<Word>> sharedFinal_;
    std::uint64_t budget_;
};

// ---------------------------------------------------------------------
// Justification layer
// ---------------------------------------------------------------------

/** Block leaders: pc 0, branch targets / reconv points, post-control. */
std::vector<char>
blockLeaders(const isa::Program &p)
{
    const int size = static_cast<int>(p.body.size());
    std::vector<char> leader(static_cast<std::size_t>(size), 0);
    if (size > 0)
        leader[0] = 1;
    auto mark = [&](int pc) {
        if (pc >= 0 && pc < size)
            leader[static_cast<std::size_t>(pc)] = 1;
    };
    for (int pc = 0; pc < size; ++pc) {
        const Instruction &instr = p.body[static_cast<std::size_t>(pc)];
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

/**
 * Is "register r holds a copy of register s" established at original
 * pc @p use? True iff a backward scan inside use's basic block finds an
 * unpredicated reg-reg `MOV r, s` before any write to r or s.
 */
bool
copyAvailable(const isa::Program &p, const std::vector<char> &leader,
              int use, std::uint8_t r, std::uint8_t s)
{
    if (r == s)
        return false;
    for (int q = use - 1; q >= 0; --q) {
        const Instruction &instr = p.body[static_cast<std::size_t>(q)];
        if (instr.op == Opcode::Mov && !instr.immB && !readsGuard(instr)
            && instr.dst == r && instr.srcB == s) {
            return true;
        }
        if (isa::writesRegister(instr.op)
            && (instr.dst == r || instr.dst == s)) {
            return false;
        }
        if (leader[static_cast<std::size_t>(q)])
            return false;
    }
    return false;
}

/** Deletion-restricted backward liveness (see file comment). */
struct Liveness
{
    std::vector<std::uint64_t> regs;
    std::vector<std::uint8_t> preds;
};

/**
 * CFG edges come from the *original* body shape; gens and kills come
 * from the *effective* instructions (the optimized instruction for
 * kept pcs via @p effective, nothing for deleted pcs). Using the
 * optimized gens is what lets a fold's no-longer-read operands and a
 * propagated copy's source MOV die in the same validated edit set.
 */
Liveness
restrictedLiveness(const isa::Program &p, const std::vector<char> &kept,
                   const std::vector<const Instruction *> &effective,
                   const AnalysisResult &ar)
{
    const int size = static_cast<int>(p.body.size());
    Liveness live;
    live.regs.assign(static_cast<std::size_t>(size), 0);
    live.preds.assign(static_cast<std::size_t>(size), 0);

    auto out_of = [&](int pc) {
        const Instruction &instr = p.body[static_cast<std::size_t>(pc)];
        std::uint64_t regs = 0;
        std::uint8_t preds = 0;
        if (instr.op != Opcode::Exit) {
            if (pc + 1 < size) {
                regs |= live.regs[static_cast<std::size_t>(pc + 1)];
                preds |= live.preds[static_cast<std::size_t>(pc + 1)];
            }
            // A deleted never-taken branch contributes no target edge;
            // everything else keeps both edges (conservative).
            const bool taken_edge =
                instr.op == Opcode::Bra && instr.imm >= 0
                && instr.imm < size
                && (kept[static_cast<std::size_t>(pc)]
                    || guardValue(ar.in[static_cast<std::size_t>(pc)],
                                  instr)
                           != Bool3::False);
            if (taken_edge) {
                regs |= live.regs[static_cast<std::size_t>(instr.imm)];
                preds |=
                    live.preds[static_cast<std::size_t>(instr.imm)];
            }
        }
        return std::pair{regs, preds};
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int pc = size - 1; pc >= 0; --pc) {
            auto [regs, preds] = out_of(pc);
            if (kept[static_cast<std::size_t>(pc)]) {
                const Instruction &instr =
                    *effective[static_cast<std::size_t>(pc)];
                const bool certain = !readsGuard(instr);
                if (certain && isa::writesRegister(instr.op)
                    && instr.dst < isa::numRegisters) {
                    regs &= ~(std::uint64_t(1) << instr.dst);
                }
                if (certain && instr.op == Opcode::SetP
                    && instr.dst < isa::numPredicates) {
                    preds &= static_cast<std::uint8_t>(
                        ~(1u << instr.dst));
                }
                if (isa::readsSrcA(instr.op)
                    && instr.srcA < isa::numRegisters)
                    regs |= std::uint64_t(1) << instr.srcA;
                if (isa::readsSrcB(instr.op) && !instr.immB
                    && instr.srcB < isa::numRegisters) {
                    regs |= std::uint64_t(1) << instr.srcB;
                }
                if (isa::readsDst(instr.op)
                    && instr.dst < isa::numRegisters)
                    regs |= std::uint64_t(1) << instr.dst;
                if (readsGuard(instr)
                    && instr.pred < isa::numPredicates) {
                    preds |= static_cast<std::uint8_t>(1u
                                                       << instr.pred);
                }
            }
            const auto idx = static_cast<std::size_t>(pc);
            if (regs != live.regs[idx] || preds != live.preds[idx]) {
                live.regs[idx] = regs;
                live.preds[idx] = preds;
                changed = true;
            }
        }
    }
    return live;
}

/** Context shared by the per-edit justification checks. */
struct Justifier
{
    const isa::Program &orig;
    const AnalysisResult &ar;
    const std::vector<char> &kept;
    const std::vector<char> &leader;
    const Liveness &live;
    std::vector<int> newPos; //!< kept-prefix count per original pc

    int
    posOf(int pc) const
    {
        const int size = static_cast<int>(orig.body.size());
        if (pc < 0)
            return -1;
        if (pc >= size)
            return newPos[static_cast<std::size_t>(size)];
        return newPos[static_cast<std::size_t>(pc)];
    }

    /** Live-out of original pc under the restricted liveness. */
    std::pair<std::uint64_t, std::uint8_t>
    liveOut(int pc) const
    {
        const int size = static_cast<int>(orig.body.size());
        const Instruction &instr =
            orig.body[static_cast<std::size_t>(pc)];
        std::uint64_t regs = 0;
        std::uint8_t preds = 0;
        if (instr.op == Opcode::Exit)
            return {regs, preds};
        if (pc + 1 < size) {
            regs |= live.regs[static_cast<std::size_t>(pc + 1)];
            preds |= live.preds[static_cast<std::size_t>(pc + 1)];
        }
        if (instr.op == Opcode::Bra && instr.imm >= 0
            && instr.imm < size
            && (kept[static_cast<std::size_t>(pc)]
                || guardValue(ar.in[static_cast<std::size_t>(pc)],
                              instr)
                       != Bool3::False)) {
            regs |= live.regs[static_cast<std::size_t>(instr.imm)];
            preds |= live.preds[static_cast<std::size_t>(instr.imm)];
        }
        return {regs, preds};
    }
};

bool
sameGuard(const Instruction &a, const Instruction &b)
{
    return a.pred == b.pred && a.predNegate == b.predNegate;
}

/** The constant value of an operand, if the analysis pins one. */
bool
constOperandA(const Justifier &jx, int pc, const Instruction &o,
              Word &out)
{
    if (!isa::readsSrcA(o.op))
        return false;
    return constantOf(valueA(jx.ar.in[static_cast<std::size_t>(pc)], o),
                      out);
}

bool
constOperandB(const Justifier &jx, int pc, const Instruction &o,
              Word &out)
{
    if (!isa::readsSrcB(o.op))
        return false;
    return constantOf(valueB(jx.ar.in[static_cast<std::size_t>(pc)], o),
                      out);
}

/** Canonical `MOV dst, #imm` shape check. */
bool
isImmMov(const Instruction &n)
{
    return n.op == Opcode::Mov && n.immB && n.srcA == 0 && n.srcB == 0
           && n.flags == 0 && n.reconv == 0;
}

/** Canonical reg-reg `MOV dst, src` shape check. */
bool
isRegMov(const Instruction &n)
{
    return n.op == Opcode::Mov && !n.immB && n.srcA == 0 && n.flags == 0
           && n.imm == 0 && n.reconv == 0;
}

/**
 * Justify kept instruction: optimized @p n at new index derived from
 * original @p o at original pc @p j. Returns "" when justified.
 */
std::string
justifyKept(const Justifier &jx, int j, const Instruction &o,
            const Instruction &n)
{
    const AbsState &in = jx.ar.in[static_cast<std::size_t>(j)];

    if (o.op == Opcode::Bra && n.op == Opcode::Bra) {
        if (n.dst != o.dst || n.srcA != o.srcA || n.srcB != o.srcB
            || n.immB != o.immB || n.flags != o.flags) {
            return strFormat("pc %d: branch fields edited", j);
        }
        if (n.imm != jx.posOf(o.imm))
            return strFormat("pc %d: branch target not the remap of "
                             "the original target",
                             j);
        if (n.reconv != jx.posOf(o.reconv))
            return strFormat("pc %d: reconvergence point not the remap "
                             "of the original",
                             j);
        if (sameGuard(o, n))
            return "";
        if (!readsGuard(n) && guardValue(in, o) == Bool3::True)
            return ""; // proven-taken branch unpredicated
        return strFormat("pc %d: branch guard edited without a "
                         "provably-true original guard",
                         j);
    }

    if (n.op == Opcode::Bra || o.op == Opcode::Bra)
        return strFormat("pc %d: branch exchanged with non-branch", j);

    if (n == o)
        return "";

    // Constant fold: MOV #c justified by the original's abstract result.
    if (isImmMov(n) && isa::writesRegister(o.op) && n.dst == o.dst
        && sameGuard(o, n)) {
        if (isa::isLoadOp(o.op)) {
            // A load's abstract value is derived from the program's
            // initial data images, but the equivalence contract
            // quantifies over all images (layer 2 scrambles them), so
            // folding a load is never a justified edit.
            return strFormat("pc %d: load folded from the initial "
                             "data image",
                             j);
        }
        const AbsValue result = aluValue(o, in, jx.orig.launch);
        Word c = 0;
        if (constantOf(result, c)
            && c == static_cast<Word>(
                   static_cast<std::int32_t>(n.imm))) {
            return "";
        }
        return strFormat("pc %d: folded constant %d not proven by the "
                         "original analysis",
                         j, n.imm);
    }

    // Identity strength reduction: MOV dst, src.
    if (isRegMov(n) && n.dst == o.dst && sameGuard(o, n)
        && !isa::readsDst(o.op)) {
        const std::uint8_t s = n.srcB;
        Word ca = 0;
        Word cb = 0;
        const bool hasA = constOperandA(jx, j, o, ca);
        const bool hasB = constOperandB(jx, j, o, cb);
        const bool survivesA = s == o.srcA && isa::readsSrcA(o.op);
        const bool survivesB =
            s == o.srcB && isa::readsSrcB(o.op) && !o.immB;
        switch (o.op) {
          case Opcode::IAdd:
          case Opcode::Or:
          case Opcode::Xor:
            if ((survivesA && hasB && cb == 0)
                || (survivesB && hasA && ca == 0))
                return "";
            break;
          case Opcode::ISub:
            if (survivesA && hasB && cb == 0)
                return "";
            break;
          case Opcode::Shl:
          case Opcode::Shr:
            if (survivesA && hasB && (cb & 31u) == 0)
                return "";
            break;
          case Opcode::IMul:
            if ((survivesA && hasB && cb == 1)
                || (survivesB && hasA && ca == 1))
                return "";
            break;
          case Opcode::And:
            if ((survivesA && hasB && cb == kFullMask)
                || (survivesB && hasA && ca == kFullMask))
                return "";
            break;
          default:
            break;
        }
        return strFormat("pc %d: identity reduction to MOV not proven",
                         j);
    }

    // Multiply by a proven power of two: SHL dst, src, #k.
    if (n.op == Opcode::Shl && n.immB && o.op == Opcode::IMul
        && n.dst == o.dst && sameGuard(o, n) && n.srcB == 0
        && n.flags == 0 && n.reconv == 0 && n.imm >= 0 && n.imm < 32) {
        const Word factor = Word(1) << n.imm;
        Word ca = 0;
        Word cb = 0;
        if (n.srcA == o.srcA && constOperandB(jx, j, o, cb)
            && cb == factor)
            return "";
        if (!o.immB && n.srcA == o.srcB && constOperandA(jx, j, o, ca)
            && ca == factor)
            return "";
        return strFormat("pc %d: power-of-two factor not proven", j);
    }

    // Copy-propagated operands: same instruction modulo srcA/srcB.
    {
        Instruction probe = n;
        probe.srcA = o.srcA;
        probe.srcB = o.srcB;
        if (probe == o) {
            if (n.srcA != o.srcA) {
                if (!isa::readsSrcA(o.op)
                    || !copyAvailable(jx.orig, jx.leader, j, o.srcA,
                                      n.srcA)) {
                    return strFormat(
                        "pc %d: srcA substitution R%u -> R%u has no "
                        "reaching copy",
                        j, unsigned(o.srcA), unsigned(n.srcA));
                }
            }
            if (n.srcB != o.srcB) {
                if (!isa::readsSrcB(o.op) || o.immB
                    || !copyAvailable(jx.orig, jx.leader, j, o.srcB,
                                      n.srcB)) {
                    return strFormat(
                        "pc %d: srcB substitution R%u -> R%u has no "
                        "reaching copy",
                        j, unsigned(o.srcB), unsigned(n.srcB));
                }
            }
            return "";
        }
    }

    return strFormat("pc %d: rewrite matches no justified pattern", j);
}

/** Justify the deletion of original pc @p j. Returns "" when sound. */
std::string
justifyDeletion(const Justifier &jx, int j)
{
    const Instruction &o = jx.orig.body[static_cast<std::size_t>(j)];
    const AbsState &in = jx.ar.in[static_cast<std::size_t>(j)];

    if (!in.reachable)
        return "";
    if (o.op == Opcode::Nop)
        return "";

    const Bool3 guard = guardValue(in, o);
    if (guard == Bool3::False && o.op != Opcode::Exit
        && o.op != Opcode::Bar) {
        return "";
    }

    if (o.op == Opcode::Mov && !o.immB && o.dst == o.srcB)
        return ""; // self-move

    if (o.op == Opcode::Bra) {
        const int size = static_cast<int>(jx.orig.body.size());
        // A provably-taken branch needs no reconvergence collapse:
        // every active lane takes the jump, so the reconv frame is
        // never pushed.
        if (o.imm >= 0 && o.imm <= size && o.reconv >= 0
            && o.reconv <= size
            && jx.posOf(o.imm) == jx.posOf(j + 1)
            && (!readsGuard(o) || guard == Bool3::True
                || jx.posOf(o.reconv) == jx.posOf(j + 1))) {
            return ""; // both arms collapse onto the fallthrough
        }
        return strFormat("pc %d: deleted branch does not collapse", j);
    }

    const auto [out_regs, out_preds] = jx.liveOut(j);
    if (isa::writesRegister(o.op) && o.dst < isa::numRegisters
        && !((out_regs >> o.dst) & 1u)) {
        return ""; // dead register write (loads included)
    }
    if (o.op == Opcode::SetP && o.dst < isa::numPredicates
        && !((out_preds >> o.dst) & 1u)) {
        return ""; // dead predicate write
    }

    return strFormat("pc %d: deletion of a live effect (%s)", j,
                     isa::opcodeName(o.op).c_str());
}

} // namespace

RefObservation
runReference(const isa::Program &program, std::uint64_t maxSteps)
{
    return RefMachine(program, maxSteps).run();
}

EquivVerdict
validateTranslation(const isa::Program &original,
                    const isa::Program &optimized,
                    std::span<const int> sourcePc,
                    const EquivOptions &options)
{
    EquivVerdict v;
    auto fail = [&](std::string reason) {
        v.equivalent = false;
        v.reason = std::move(reason);
        return v;
    };

    const int size = static_cast<int>(original.body.size());
    if (size == 0 || optimized.body.empty())
        return fail("empty body");
    if (sourcePc.size() != optimized.body.size())
        return fail("sourcePc does not cover the optimized body");
    if (optimized.name != original.name
        || optimized.launch.gridBlocks != original.launch.gridBlocks
        || optimized.launch.blockThreads
               != original.launch.blockThreads
        || optimized.global != original.global
        || optimized.constants != original.constants
        || optimized.texture != original.texture
        || optimized.sharedBytesPerBlock
               != original.sharedBytesPerBlock) {
        return fail("launch geometry or memory images edited");
    }

    // Strictly increasing, in-range source map; derive the kept set.
    std::vector<char> kept(static_cast<std::size_t>(size), 0);
    int prev = -1;
    for (const int j : sourcePc) {
        if (j <= prev || j >= size)
            return fail("sourcePc is not strictly increasing in range");
        kept[static_cast<std::size_t>(j)] = 1;
        prev = j;
    }

    // Optimized output must be canonical encoder output: the strict
    // decoder only accepts encoder-producible bytes.
    {
        const std::string bytes = isa::encodeProgram(optimized);
        auto back = isa::decodeProgram(bytes);
        if (!back.ok()) {
            return fail("optimized program is not canonical: "
                        + back.error().message);
        }
    }

    // Layer 1: symbolic matching against the original's own facts.
    const AnalysisResult ar = analyzeProgram(original);
    const std::vector<char> leader = blockLeaders(original);
    std::vector<const Instruction *> effective(
        static_cast<std::size_t>(size), nullptr);
    for (std::size_t i = 0; i < optimized.body.size(); ++i) {
        effective[static_cast<std::size_t>(sourcePc[i])] =
            &optimized.body[i];
    }
    const Liveness live =
        restrictedLiveness(original, kept, effective, ar);

    Justifier jx{original, ar, kept, leader, live, {}};
    jx.newPos.resize(static_cast<std::size_t>(size) + 1, 0);
    int count = 0;
    for (int pc = 0; pc < size; ++pc) {
        jx.newPos[static_cast<std::size_t>(pc)] = count;
        if (kept[static_cast<std::size_t>(pc)])
            ++count;
    }
    jx.newPos[static_cast<std::size_t>(size)] = count;

    for (std::size_t i = 0; i < optimized.body.size(); ++i) {
        const std::string why =
            justifyKept(jx, sourcePc[i], original.body[static_cast<
                            std::size_t>(sourcePc[i])],
                        optimized.body[i]);
        if (!why.empty())
            return fail(why);
    }
    for (int j = 0; j < size; ++j) {
        if (kept[static_cast<std::size_t>(j)])
            continue;
        const std::string why = justifyDeletion(jx, j);
        if (!why.empty())
            return fail(why);
    }

    // Layer 2: differential concrete simulation on seeded inputs.
    for (int seed = 0; seed < options.seeds; ++seed) {
        isa::Program a = original;
        isa::Program b = optimized;
        if (seed > 0) {
            Rng rng(options.baseSeed + static_cast<std::uint64_t>(seed));
            auto scramble = [&rng](std::vector<Word> &image) {
                for (Word &w : image)
                    w = static_cast<Word>(rng());
            };
            scramble(a.global);
            scramble(a.constants);
            scramble(a.texture);
            b.global = a.global;
            b.constants = a.constants;
            b.texture = a.texture;
        }
        const RefObservation oa = runReference(a, options.maxSteps);
        const RefObservation ob = runReference(b, options.maxSteps);
        if (!oa.finished || !ob.finished) {
            return fail(strFormat("seed %d: reference run exceeded the "
                                  "step budget",
                                  seed));
        }
        if (!(oa == ob)) {
            return fail(strFormat("seed %d: differential observation "
                                  "mismatch",
                                  seed));
        }
        ++v.simulatedSeeds;
    }

    v.equivalent = true;
    return v;
}

} // namespace bvf::analysis
