/**
 * @file
 * Optimizer implementation.
 *
 * Structure: the working body keeps the original program's length and
 * branch coordinates throughout -- rewrites edit instructions in
 * place, deletions only clear a kept-flag -- and the optimized program
 * is materialized at the end by filtering and remapping branches
 * through the kept-prefix map. That makes every intermediate decision
 * expressible in original coordinates, which is exactly the language
 * the translation validator re-checks it in.
 *
 * Phase 1 (single pass): branch unpredication, constant folds,
 * identity/power-of-two strength reduction, block-local copy
 * propagation. Every rewrite is justified by the *original* analysis
 * only, so rewrites never need re-analysis and compose trivially.
 *
 * Phase 2 (fixpoint): deletion rounds under a deletion-restricted
 * backward liveness whose gens/kills come from the *rewritten*
 * instructions (a folded MOV no longer reads its old operands, so
 * their defs can die) while CFG edges keep the original shape.
 * Collapsed branches are deleted one per round because their
 * justification depends on the kept set itself.
 *
 * The final program is only preferred when the translation validator
 * accepts it and it re-admits with a certificate no weaker than the
 * original's; otherwise every caller gets the original back.
 */

#include "analysis/optimizer.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "analysis/interpreter.hh"
#include "common/logging.hh"
#include "isa/opcode.hh"

namespace bvf::analysis
{

namespace
{

using isa::Instruction;
using isa::Opcode;

/** Canonical `MOV dst, #imm` under @p guard_of. */
Instruction
immMov(std::uint8_t dst, int imm, const Instruction &guard_of)
{
    Instruction m;
    m.op = Opcode::Mov;
    m.dst = dst;
    m.immB = true;
    m.imm = imm;
    m.pred = guard_of.pred;
    m.predNegate = guard_of.predNegate;
    return m;
}

/** Canonical reg-reg `MOV dst, src` under @p guard_of. */
Instruction
regMov(std::uint8_t dst, std::uint8_t src, const Instruction &guard_of)
{
    Instruction m;
    m.op = Opcode::Mov;
    m.dst = dst;
    m.srcB = src;
    m.pred = guard_of.pred;
    m.predNegate = guard_of.predNegate;
    return m;
}

/**
 * Deletion-restricted backward liveness in original coordinates:
 * edges from the original body, gens/kills from the rewritten
 * instructions of kept slots, identity through deleted slots. The
 * validator recomputes the same fixpoint independently.
 */
struct Liveness
{
    std::vector<std::uint64_t> regs;
    std::vector<std::uint8_t> preds;
};

/** Live-out of pc under @p live (same edge rule as the fixpoint). */
std::pair<std::uint64_t, std::uint8_t>
liveOutOf(const isa::Program &orig, const std::vector<char> &kept,
          const AnalysisResult &ar, const Liveness &live, int pc)
{
    const int size = static_cast<int>(orig.body.size());
    const Instruction &shape = orig.body[static_cast<std::size_t>(pc)];
    std::uint64_t regs = 0;
    std::uint8_t preds = 0;
    if (shape.op == Opcode::Exit)
        return {regs, preds};
    if (pc + 1 < size) {
        regs |= live.regs[static_cast<std::size_t>(pc + 1)];
        preds |= live.preds[static_cast<std::size_t>(pc + 1)];
    }
    if (shape.op == Opcode::Bra && shape.imm >= 0 && shape.imm < size
        && (kept[static_cast<std::size_t>(pc)]
            || guardValue(ar.in[static_cast<std::size_t>(pc)], shape)
                   != Bool3::False)) {
        regs |= live.regs[static_cast<std::size_t>(shape.imm)];
        preds |= live.preds[static_cast<std::size_t>(shape.imm)];
    }
    return {regs, preds};
}

Liveness
deletionLiveness(const isa::Program &orig,
                 const std::vector<Instruction> &work,
                 const std::vector<char> &kept, const AnalysisResult &ar)
{
    const int size = static_cast<int>(orig.body.size());
    Liveness live;
    live.regs.assign(static_cast<std::size_t>(size), 0);
    live.preds.assign(static_cast<std::size_t>(size), 0);

    bool changed = true;
    while (changed) {
        changed = false;
        for (int pc = size - 1; pc >= 0; --pc) {
            const auto idx = static_cast<std::size_t>(pc);
            auto [regs, preds] = liveOutOf(orig, kept, ar, live, pc);
            if (kept[idx]) {
                const Instruction &instr = work[idx];
                regs = (regs & ~isa::regKills(instr)) | isa::regUses(instr);
                preds = static_cast<std::uint8_t>(
                    (preds & ~isa::predKills(instr))
                    | isa::predUses(instr));
            }
            if (regs != live.regs[idx] || preds != live.preds[idx]) {
                live.regs[idx] = regs;
                live.preds[idx] = preds;
                changed = true;
            }
        }
    }
    return live;
}

/** Phase 1: in-place rewrites justified by the original analysis. */
void
rewritePass(const isa::Program &orig, const AnalysisResult &ar,
            std::vector<Instruction> &work, OptStats &stats)
{
    const int size = static_cast<int>(orig.body.size());
    const std::vector<char> leader = blockLeaders(orig);

    std::array<int, isa::numRegisters> copies{};
    copies.fill(-1);
    auto clobber = [&copies](int reg) {
        copies[static_cast<std::size_t>(reg)] = -1;
        for (int r = 0; r < isa::numRegisters; ++r) {
            if (copies[static_cast<std::size_t>(r)] == reg)
                copies[static_cast<std::size_t>(r)] = -1;
        }
    };

    for (int pc = 0; pc < size; ++pc) {
        if (leader[static_cast<std::size_t>(pc)])
            copies.fill(-1);
        const Instruction &o = orig.body[static_cast<std::size_t>(pc)];
        Instruction &cur = work[static_cast<std::size_t>(pc)];
        const AbsState &in = ar.in[static_cast<std::size_t>(pc)];

        // Copy-map maintenance always runs (from the *original*
        // instruction -- the validator's backward scan sees only
        // original MOVs), rewrites only on reachable code.
        auto maintain = [&] {
            if (!isa::writesRegister(o.op)
                || o.dst >= isa::numRegisters)
                return;
            if (o.op == Opcode::Mov && !o.immB && !isa::readsGuard(o)
                && o.srcB < isa::numRegisters && o.dst != o.srcB) {
                clobber(o.dst);
                copies[o.dst] = o.srcB;
            } else {
                clobber(o.dst);
            }
        };

        if (!in.reachable) {
            maintain();
            continue;
        }

        const Bool3 guard = guardValue(in, o);

        if (o.op == Opcode::Bra) {
            if (isa::readsGuard(cur) && guard == Bool3::True) {
                cur.pred = isa::predTrue;
                cur.predNegate = false;
                ++stats.flattenedBranches;
            }
            maintain();
            continue;
        }

        if (isa::writesRegister(o.op) && guard != Bool3::False
            && !isa::isLoadOp(o.op)) {
            // Constant fold. Loads are never folded: their abstract
            // value is derived from the initial data images, and the
            // translation-equivalence contract quantifies over all
            // images (the validator's differential layer scrambles
            // them), so such a fold can never be accepted.
            const AbsValue result = aluValue(o, in, orig.launch);
            Word c = 0;
            if (constantOf(result, c)) {
                const auto sc = static_cast<std::int32_t>(c);
                if (sc >= -32768 && sc <= 32767) {
                    const Instruction m = immMov(o.dst, sc, o);
                    if (!(m == cur)) {
                        cur = m;
                        ++stats.foldedConstants;
                    }
                    maintain();
                    continue;
                }
            }

            // Identity strength reduction.
            if (!isa::readsDst(o.op)) {
                Word ca = 0;
                Word cb = 0;
                const bool hasA =
                    isa::readsSrcA(o.op) && constantOf(valueA(in, o), ca);
                const bool hasB =
                    isa::readsSrcB(o.op) && constantOf(valueB(in, o), cb);
                int survivor = -1;
                switch (o.op) {
                  case Opcode::IAdd:
                  case Opcode::Or:
                  case Opcode::Xor:
                    if (hasB && cb == 0)
                        survivor = o.srcA;
                    else if (hasA && ca == 0 && !o.immB)
                        survivor = o.srcB;
                    break;
                  case Opcode::ISub:
                    if (hasB && cb == 0)
                        survivor = o.srcA;
                    break;
                  case Opcode::Shl:
                  case Opcode::Shr:
                    if (hasB && (cb & 31u) == 0)
                        survivor = o.srcA;
                    break;
                  case Opcode::IMul:
                    if (hasB && cb == 1)
                        survivor = o.srcA;
                    else if (hasA && ca == 1 && !o.immB)
                        survivor = o.srcB;
                    break;
                  case Opcode::And:
                    if (hasB && cb == 0xffffffffu)
                        survivor = o.srcA;
                    else if (hasA && ca == 0xffffffffu && !o.immB)
                        survivor = o.srcB;
                    break;
                  default:
                    break;
                }
                if (survivor >= 0) {
                    cur = regMov(o.dst,
                                 static_cast<std::uint8_t>(survivor), o);
                    ++stats.reducedStrength;
                    maintain();
                    continue;
                }

                // Multiply by a proven power of two becomes a shift.
                if (o.op == Opcode::IMul) {
                    int shifted = -1;
                    Word factor = 0;
                    if (hasB && std::has_single_bit(cb) && cb >= 2) {
                        shifted = o.srcA;
                        factor = cb;
                    } else if (hasA && std::has_single_bit(ca)
                               && ca >= 2 && !o.immB) {
                        shifted = o.srcB;
                        factor = ca;
                    }
                    if (shifted >= 0) {
                        Instruction s;
                        s.op = Opcode::Shl;
                        s.dst = o.dst;
                        s.srcA = static_cast<std::uint8_t>(shifted);
                        s.immB = true;
                        s.imm = std::countr_zero(factor);
                        s.pred = o.pred;
                        s.predNegate = o.predNegate;
                        cur = s;
                        ++stats.reducedStrength;
                        maintain();
                        continue;
                    }
                }
            }
        }

        // Block-local copy propagation on the surviving instruction.
        if (isa::readsSrcA(cur.op) && cur.srcA < isa::numRegisters
            && copies[cur.srcA] >= 0) {
            cur.srcA = static_cast<std::uint8_t>(copies[cur.srcA]);
            ++stats.propagatedCopies;
        }
        if (isa::readsSrcB(cur.op) && !cur.immB
            && cur.srcB < isa::numRegisters
            && copies[cur.srcB] >= 0) {
            const auto s = static_cast<std::uint8_t>(copies[cur.srcB]);
            // Never synthesize a self-move the validator cannot tie
            // back to an original one.
            if (!(cur.op == Opcode::Mov && s == cur.dst)) {
                cur.srcB = s;
                ++stats.propagatedCopies;
            }
        }
        maintain();
    }
}

/** Kept-prefix position of original pc @p p given @p kept. */
int
posOf(const std::vector<int> &prefix, int p)
{
    const int size = static_cast<int>(prefix.size()) - 1;
    if (p < 0)
        return -1;
    if (p >= size)
        return prefix[static_cast<std::size_t>(size)];
    return prefix[static_cast<std::size_t>(p)];
}

std::vector<int>
keptPrefix(const std::vector<char> &kept)
{
    std::vector<int> prefix(kept.size() + 1, 0);
    int count = 0;
    for (std::size_t j = 0; j < kept.size(); ++j) {
        prefix[j] = count;
        if (kept[j])
            ++count;
    }
    prefix[kept.size()] = count;
    return prefix;
}

/** Phase 2: deletion fixpoint. Returns true if anything was deleted. */
bool
deletionPass(const isa::Program &orig, const AnalysisResult &ar,
             const std::vector<Instruction> &work,
             std::vector<char> &kept, OptStats &stats, int maxRounds)
{
    const int size = static_cast<int>(orig.body.size());
    bool any = false;

    for (int round = 0; round < maxRounds; ++round) {
        bool changed = false;
        const Liveness live = deletionLiveness(orig, work, kept, ar);

        for (int j = 0; j < size; ++j) {
            if (!kept[static_cast<std::size_t>(j)])
                continue;
            const Instruction &o =
                orig.body[static_cast<std::size_t>(j)];
            const Instruction &w =
                work[static_cast<std::size_t>(j)];
            const AbsState &in = ar.in[static_cast<std::size_t>(j)];

            std::uint32_t *counter = nullptr;
            if (!in.reachable) {
                counter = &stats.removedUnreachable;
            } else if (w.op == Opcode::Nop) {
                counter = &stats.removedNops;
            } else if (guardValue(in, o) == Bool3::False
                       && o.op != Opcode::Exit && o.op != Opcode::Bar) {
                counter = &stats.removedGuardFalse;
            } else if (o.op == Opcode::Mov && !o.immB
                       && o.dst == o.srcB) {
                counter = &stats.removedNops; // original self-move
            } else if (o.op != Opcode::Bra) {
                const auto [out_regs, out_preds] =
                    liveOutOf(orig, kept, ar, live, j);
                if (isa::writesRegister(w.op)
                    && w.dst < isa::numRegisters
                    && !((out_regs >> w.dst) & 1u)) {
                    counter = &stats.removedDead;
                } else if (w.op == Opcode::SetP
                           && w.dst < isa::numPredicates
                           && !((out_preds >> w.dst) & 1u)) {
                    counter = &stats.removedDead;
                }
            }
            if (counter) {
                kept[static_cast<std::size_t>(j)] = 0;
                ++*counter;
                changed = true;
                any = true;
            }
        }

        // Collapsed branches: one per round -- the justification
        // depends on the kept set the deletion itself produces.
        const std::vector<int> prefix = keptPrefix(kept);
        for (int j = 0; j < size; ++j) {
            if (!kept[static_cast<std::size_t>(j)])
                continue;
            const Instruction &o =
                orig.body[static_cast<std::size_t>(j)];
            if (o.op != Opcode::Bra)
                continue;
            if (o.imm < 0 || o.imm > size || o.reconv < 0
                || o.reconv > size)
                continue;
            // Positions as if j itself were already deleted.
            auto pos = [&](int p) {
                return posOf(prefix, p) - (p > j ? 1 : 0);
            };
            const AbsState &in = ar.in[static_cast<std::size_t>(j)];
            const bool straight =
                !isa::readsGuard(o) || guardValue(in, o) == Bool3::True
                || pos(o.reconv) == pos(j + 1);
            if (pos(o.imm) == pos(j + 1) && straight) {
                kept[static_cast<std::size_t>(j)] = 0;
                ++stats.removedBranches;
                changed = true;
                any = true;
                break;
            }
        }

        if (!changed)
            break;
    }
    return any;
}

/** Is @p opt's certificate at least as strong as @p base's? */
bool
noWeakerThan(const Certificate &opt, const Certificate &base)
{
    if (opt.warpTripBound > base.warpTripBound)
        return false;
    auto contained = [](const FootprintBounds &a,
                        const FootprintBounds &b) {
        if (!a.accessed)
            return true; // empty footprint is the strongest claim
        return b.accessed && a.lo >= b.lo && a.hi <= b.hi;
    };
    return contained(opt.global, base.global)
           && contained(opt.shared, base.shared)
           && contained(opt.constant, base.constant)
           && contained(opt.texture, base.texture);
}

} // namespace

OptimizeResult
optimizeProgram(const isa::Program &program,
                const OptimizeOptions &options)
{
    OptimizeResult res;
    res.program = program;
    res.sourcePc.resize(program.body.size());
    for (std::size_t j = 0; j < program.body.size(); ++j)
        res.sourcePc[static_cast<std::size_t>(j)] =
            static_cast<int>(j);

    const Verdict orig_verdict = verifyProgram(program, options.verify);
    if (!orig_verdict.admitted) {
        res.note = "original program is not admitted";
        return res;
    }
    res.originalAdmitted = true;
    res.certificate = orig_verdict.certificate;

    const int size = static_cast<int>(program.body.size());
    const AnalysisResult ar = analyzeProgram(program);
    if (static_cast<int>(ar.in.size()) != size) {
        res.note = "analysis did not cover the body";
        return res;
    }

    std::vector<Instruction> work = program.body;
    std::vector<char> kept(static_cast<std::size_t>(size), 1);

    rewritePass(program, ar, work, res.stats);
    deletionPass(program, ar, work, kept, res.stats,
                 options.maxRounds);

    if (res.stats.total() == 0)
        return res; // nothing to do: the original is already optimal

    // Materialize: filter kept slots, remap branches through the
    // kept-prefix map.
    const std::vector<int> prefix = keptPrefix(kept);
    isa::Program opt = program;
    opt.body.clear();
    std::vector<int> source;
    for (int j = 0; j < size; ++j) {
        if (!kept[static_cast<std::size_t>(j)])
            continue;
        Instruction instr = work[static_cast<std::size_t>(j)];
        if (instr.op == Opcode::Bra) {
            instr.imm = posOf(prefix, instr.imm);
            instr.reconv = posOf(prefix, instr.reconv);
        }
        opt.body.push_back(instr);
        source.push_back(j);
    }

    if (options.validate) {
        const EquivVerdict eq = validateTranslation(
            program, opt, source, options.equiv);
        if (!eq.equivalent) {
            res.note = "translation validation failed: " + eq.reason;
            return res;
        }
        const Verdict opt_verdict =
            verifyProgram(opt, options.verify);
        if (!opt_verdict.admitted) {
            res.note =
                "re-admission failed: "
                + (opt_verdict.rejections.empty()
                       ? std::string("no rejection recorded")
                       : opt_verdict.rejections.front().toString());
            return res;
        }
        if (!noWeakerThan(opt_verdict.certificate,
                          orig_verdict.certificate)) {
            res.note = "optimized certificate is weaker than the "
                       "original's";
            return res;
        }
        res.certificate = opt_verdict.certificate;
        res.accepted = true;
    } else {
        res.note = "validation skipped";
    }

    res.program = std::move(opt);
    res.sourcePc = std::move(source);
    res.changed = true;
    return res;
}

} // namespace bvf::analysis
