/**
 * @file
 * SM implementation.
 */

#include "gpu/sm.hh"

#include "coder/vs_coder.hh"

#include <algorithm>

#include "common/logging.hh"

namespace bvf::gpu
{

using isa::Instruction;
using isa::Opcode;
using coder::UnitId;
using sram::AccessType;

Sm::Sm(int smId, const GpuConfig &config, const isa::Program &program,
       sram::AccessSink &sink, ChipInterface &chip)
    : smId_(smId), config_(config), program_(program), sink_(sink),
      chip_(chip),
      l1d_("L1D", config.l1dBytes, config.l1dAssoc, config.lineBytes,
           config.mshrsPerSm),
      l1i_("L1I", config.l1iBytes, 2, config.lineBytes, 4),
      l1c_("L1C", config.l1cBytes, 2, 64, 4),
      l1t_("L1T", config.l1tBytes, 2, config.lineBytes, 8)
{
    warps_.resize(static_cast<std::size_t>(config.maxWarpsPerSm));
    slotUsed_.assign(static_cast<std::size_t>(config.maxWarpsPerSm), false);
    slotBlock_.assign(static_cast<std::size_t>(config.maxWarpsPerSm), -1);
    ifbGroup_.assign(static_cast<std::size_t>(config.maxWarpsPerSm), -1);
    ifetchPending_.assign(static_cast<std::size_t>(config.maxWarpsPerSm),
                          false);
    scheduler_ = makeScheduler(config.scheduler, config.maxWarpsPerSm);
}

int
Sm::freeWarpSlots() const
{
    int free_slots = 0;
    for (bool used : slotUsed_) {
        if (!used)
            ++free_slots;
    }
    return free_slots;
}

bool
Sm::assignBlock(int blockId)
{
    const int warps_needed = program_.launch.warpsPerBlock();
    // Find a contiguous run of free slots (hardware allocates per block).
    int run_start = -1;
    int run_len = 0;
    for (int s = 0; s < config_.maxWarpsPerSm; ++s) {
        if (!slotUsed_[static_cast<std::size_t>(s)]) {
            if (run_len == 0)
                run_start = s;
            if (++run_len == warps_needed)
                break;
        } else {
            run_len = 0;
        }
    }
    if (run_len < warps_needed)
        return false;

    ResidentBlock block;
    block.blockId = blockId;
    block.firstWarp = run_start;
    block.numWarps = warps_needed;
    block.shared.assign(program_.sharedBytesPerBlock / 4, 0);
    blocks_.push_back(std::move(block));
    const int block_idx = static_cast<int>(blocks_.size()) - 1;

    for (int w = 0; w < warps_needed; ++w) {
        const int slot = run_start + w;
        slotUsed_[static_cast<std::size_t>(slot)] = true;
        slotBlock_[static_cast<std::size_t>(slot)] = block_idx;
        warps_[static_cast<std::size_t>(slot)].init(
            w, blockId, program_.launch.blockThreads);
        ifbGroup_[static_cast<std::size_t>(slot)] = -1;
        ifetchPending_[static_cast<std::size_t>(slot)] = false;
    }
    return true;
}

bool
Sm::idle() const
{
    for (int s = 0; s < config_.maxWarpsPerSm; ++s) {
        if (slotUsed_[static_cast<std::size_t>(s)]
            && !warps_[static_cast<std::size_t>(s)].done()) {
            return false;
        }
    }
    return waitingData_.empty() && waitingInstr_.empty()
           && localFills_.empty();
}

Sm::ResidentBlock &
Sm::blockOf(int slot)
{
    const int idx = slotBlock_[static_cast<std::size_t>(slot)];
    panic_if(idx < 0, "slot %d has no block", slot);
    return blocks_[static_cast<std::size_t>(idx)];
}

// ---------------------------------------------------------------------
// Accounting helpers
// ---------------------------------------------------------------------

void
Sm::accountRegRead(const Warp &warp, int reg, std::uint32_t guard,
                   std::uint64_t cycle)
{
    sink_.onAccess(UnitId::Reg, AccessType::Read, warp.regBlock(reg),
                   guard, cycle);
}

void
Sm::accountRegWrite(const Warp &warp, int reg, std::uint32_t guard,
                    std::uint64_t cycle)
{
    // A divergent write that skips the pivot lane forces the VS coder's
    // dummy-mov re-encode (Section 4.2.2 B); count those events.
    constexpr int pivot = coder::VsCoder::defaultRegisterPivot;
    if (guard != 0 && !((guard >> pivot) & 1u))
        ++stats_.pivotDivergentWrites;
    sink_.onAccess(UnitId::Reg, AccessType::Write, warp.regBlock(reg),
                   guard, cycle);
}

// ---------------------------------------------------------------------
// Fetch / readiness
// ---------------------------------------------------------------------

bool
Sm::fetchReady(int slot, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    const int pc = warp.pc();
    const int group = pc / ifbInstrs;
    if (ifbGroup_[static_cast<std::size_t>(slot)] == group)
        return true;
    if (ifetchPending_[static_cast<std::size_t>(slot)])
        return false;

    // Refill the IFB from L1I.
    const std::uint32_t line_addr =
        static_cast<std::uint32_t>(pc) * 8u
        & ~(config_.lineBytes - 1u);
    const auto outcome = l1i_.access(line_addr);
    if (outcome == CacheOutcome::Hit) {
        // L1I read + IFB fill of the fetch group.
        const int group_start = group * ifbInstrs;
        std::vector<Word64> instrs;
        for (int i = 0; i < ifbInstrs
                        && group_start + i
                               < static_cast<int>(program_.body.size());
             ++i) {
            instrs.push_back(chip_.instrBinary(group_start + i));
        }
        sink_.onFetch(UnitId::L1I, AccessType::Read, instrs, cycle);
        sink_.onFetch(UnitId::Ifb, AccessType::Write, instrs, cycle);
        ifbGroup_[static_cast<std::size_t>(slot)] = group;
        return true;
    }
    if (outcome == CacheOutcome::MshrFull)
        return false;

    ifetchPending_[static_cast<std::size_t>(slot)] = true;
    waitingInstr_[line_addr].push_back(slot);
    if (outcome == CacheOutcome::Miss)
        chip_.sendReadRequest(smId_, line_addr, true, cycle);
    return false;
}

bool
Sm::warpReady(int slot, std::uint64_t cycle)
{
    if (!slotUsed_[static_cast<std::size_t>(slot)])
        return false;
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    if (warp.done() || warp.atBarrier)
        return false;

    // Under the uniform-dispatch contract the SIMT stack provably never
    // grows past its initial frame, so reconvergence maintenance is
    // dead work.
    if (!uniformDispatch_)
        warp.reconvergeIfNeeded();
    if (!fetchReady(slot, cycle))
        return false;

    const Instruction &instr =
        program_.body[static_cast<std::size_t>(warp.pc())];

    // Scoreboard: guard predicate and all sources (and the destination,
    // which FFMA/IMAD also read and loads must not overwrite early).
    if (instr.pred != isa::predTrue
        && warp.predReadyCycle(instr.pred) > cycle) {
        return false;
    }
    if (isa::readsSrcA(instr.op)
        && warp.regReadyCycle(instr.srcA) > cycle) {
        return false;
    }
    if (isa::readsSrcB(instr.op) && !instr.immB
        && warp.regReadyCycle(instr.srcB) > cycle) {
        return false;
    }
    if ((isa::writesRegister(instr.op) || isa::readsDst(instr.op))
        && warp.regReadyCycle(instr.dst) > cycle) {
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------

void
Sm::step(std::uint64_t cycle)
{
    checkLocalFills(cycle);

    std::vector<bool> &ready = readyScratch_;
    std::vector<std::uint64_t> &last = lastScratch_;
    ready.assign(static_cast<std::size_t>(config_.maxWarpsPerSm), false);
    last.assign(static_cast<std::size_t>(config_.maxWarpsPerSm), 0);
    bool any = false;
    for (int s = 0; s < config_.maxWarpsPerSm; ++s) {
        const bool r = warpReady(s, cycle);
        ready[static_cast<std::size_t>(s)] = r;
        last[static_cast<std::size_t>(s)] =
            warps_[static_cast<std::size_t>(s)].lastIssueCycle;
        any = any || r;
    }
    if (!any) {
        ++stats_.idleCycles;
        return;
    }
    const int slot = scheduler_->pick(ready, last, cycle);
    if (slot < 0) {
        ++stats_.idleCycles;
        return;
    }
    issueWarp(slot, cycle);
}

void
Sm::issueWarp(int slot, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    const int pc = warp.pc();
    const Instruction &instr = program_.body[static_cast<std::size_t>(pc)];
    const std::uint32_t guard = warp.guardMask(instr);

    if (probe_)
        probe_->onIssue(smId_, pc, instr, warp, guard, cycle);

    // Memory instructions can stall structurally; bail before any
    // architectural effect or accounting.
    if (isa::isMemoryOp(instr.op)) {
        if (guard != 0 && !executeMemory(slot, instr, guard, cycle))
            return;
        if (guard == 0)
            warp.advancePc();
    }

    // Every issued instruction consumes an IFB read slot.
    const Word64 bin = chip_.instrBinary(pc);
    sink_.onFetch(UnitId::Ifb, AccessType::Read, {&bin, 1}, cycle);

    ++stats_.issued;
    warp.lastIssueCycle = cycle;
    scheduler_->issued(slot, cycle);

    if (!isa::isMemoryOp(instr.op))
        executeAlu(slot, instr, guard, cycle);
}

void
Sm::executeAlu(int slot, const Instruction &instr, std::uint32_t guard,
               std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];

    // Operand collection (register file reads); same-bank source
    // registers serialize inside the collector.
    int sources[3];
    int num_sources = 0;
    if (isa::readsSrcA(instr.op)) {
        accountRegRead(warp, instr.srcA, guard, cycle);
        sources[num_sources++] = instr.srcA;
    }
    if (isa::readsSrcB(instr.op) && !instr.immB) {
        accountRegRead(warp, instr.srcB, guard, cycle);
        sources[num_sources++] = instr.srcB;
    }
    if (isa::readsDst(instr.op)) {
        accountRegRead(warp, instr.dst, guard, cycle);
        sources[num_sources++] = instr.dst;
    }
    const auto collect = regFile_.record(
        std::span<const int>(sources,
                             static_cast<std::size_t>(num_sources)));
    stats_.regBankConflictCycles +=
        static_cast<std::uint64_t>(collect.conflictCycles);

    switch (instr.op) {
      case Opcode::Bra: {
        ++stats_.controlOps;
        const int pc = warp.pc();
        const bool split = warp.branch(instr, guard);
        panic_if(split && uniformDispatch_,
                 "certified-uniform branch diverged at pc %d "
                 "(verifier soundness bug)",
                 pc);
        return;
      }
      case Opcode::Exit: {
        ++stats_.controlOps;
        warp.setDone();
        const int block_idx = slotBlock_[static_cast<std::size_t>(slot)];
        ++blocks_[static_cast<std::size_t>(block_idx)].warpsDone;
        // A warp at a barrier must not wait for an exited sibling.
        handleBarrierRelease(block_idx);
        maybeRetireBlock(block_idx);
        return;
      }
      case Opcode::Bar: {
        ++stats_.controlOps;
        warp.atBarrier = true;
        warp.advancePc();
        handleBarrier(slot);
        return;
      }
      case Opcode::Nop:
        ++stats_.controlOps;
        warp.advancePc();
        return;
      default:
        break;
    }

    // Data-path instructions.
    const bool is_fp = instr.op == Opcode::Ffma || instr.op == Opcode::Fadd
                       || instr.op == Opcode::Fmul
                       || instr.op == Opcode::I2F
                       || instr.op == Opcode::F2I;
    if (is_fp)
        ++stats_.fpOps;
    else
        ++stats_.intOps;

    warp.executeAlu(instr, guard, program_.launch);

    const int latency =
        isa::opcodeLatency(instr.op) + collect.conflictCycles;
    if (instr.op == Opcode::SetP) {
        warp.setPredReadyCycle(instr.dst,
                               cycle + static_cast<std::uint64_t>(latency));
    } else if (isa::writesRegister(instr.op)) {
        if (guard != 0)
            accountRegWrite(warp, instr.dst, guard, cycle);
        warp.setRegReadyCycle(instr.dst,
                              cycle + static_cast<std::uint64_t>(latency));
    }
    warp.advancePc();
}

// ---------------------------------------------------------------------
// Memory instructions
// ---------------------------------------------------------------------

bool
Sm::executeMemory(int slot, const Instruction &instr, std::uint32_t guard,
                  std::uint64_t cycle)
{
    switch (instr.op) {
      case Opcode::Ldg:
        return executeGlobalLoad(slot, instr, guard, cycle);
      case Opcode::Stg:
        executeGlobalStore(slot, instr, guard, cycle);
        return true;
      case Opcode::Lds:
      case Opcode::Sts:
        executeShared(slot, instr, guard, cycle);
        return true;
      case Opcode::Ldc:
      case Opcode::Ldt:
        return executeConstOrTex(slot, instr, guard, cycle);
      default:
        panic("not a memory opcode");
    }
}

bool
Sm::executeGlobalLoad(int slot, const Instruction &instr,
                      std::uint32_t guard, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];

    // Resolve per-lane addresses (memory divergence: lanes may touch
    // several lines).
    std::array<std::uint32_t, warpSize> addr{};
    std::vector<std::uint32_t> lines;
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t a = warp.laneAddress(lane, instr);
        addr[static_cast<std::size_t>(lane)] = a;
        const std::uint32_t line = l1d_.lineAddr(a);
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }

    // Tag phase: resolve every line's outcome before committing any
    // architectural effect, so a structural stall can abort cleanly.
    std::vector<std::uint32_t> hit_lines;
    std::vector<std::uint32_t> missed;
    std::vector<std::uint32_t> new_requests;
    bool stalled = false;
    for (std::uint32_t line : lines) {
        const auto outcome = l1d_.access(line);
        switch (outcome) {
          case CacheOutcome::Hit:
            hit_lines.push_back(line);
            break;
          case CacheOutcome::Miss:
            missed.push_back(line);
            new_requests.push_back(line);
            break;
          case CacheOutcome::MissMerged:
            missed.push_back(line);
            break;
          case CacheOutcome::MshrFull:
            stalled = true;
            break;
        }
        if (stalled)
            break;
    }
    if (stalled) {
        // Any MSHR we just allocated must still be serviced or it would
        // deadlock the retry (which will see MissMerged, not Miss).
        for (std::uint32_t line : new_requests)
            chip_.sendReadRequest(smId_, line, false, cycle);
        return false;
    }

    // Commit phase. Operand-collector read of the address register.
    ++stats_.loads;
    accountRegRead(warp, instr.srcA, guard, cycle);

    for (std::uint32_t line : hit_lines) {
        // Account the words these lanes read out of L1D.
        std::vector<Word> words;
        for (int lane = 0; lane < warpSize; ++lane) {
            if (((guard >> lane) & 1u)
                && l1d_.lineAddr(addr[static_cast<std::size_t>(lane)])
                       == line) {
                words.push_back(chip_.readGlobalWord(
                    addr[static_cast<std::size_t>(lane)]));
            }
        }
        sink_.onAccess(UnitId::L1D, AccessType::Read, words, fullMask,
                       cycle);
    }
    const int outstanding = static_cast<int>(missed.size());

    // Create the pending-load record.
    int load_id;
    if (!freeLoadIds_.empty()) {
        load_id = freeLoadIds_.back();
        freeLoadIds_.pop_back();
        loads_[static_cast<std::size_t>(load_id)] = PendingLoad{};
    } else {
        loads_.emplace_back();
        load_id = static_cast<int>(loads_.size()) - 1;
    }
    PendingLoad &load = loads_[static_cast<std::size_t>(load_id)];
    load.warpSlot = slot;
    load.dstReg = instr.dst;
    load.guard = guard;
    load.laneAddr = addr;
    load.outstandingLines = outstanding;

    if (outstanding == 0) {
        // Full hit: deliver after the L1 hit latency.
        completeLoad(load_id, cycle
                               + static_cast<std::uint64_t>(
                                   config_.l1HitLatency));
    } else {
        warp.setRegReadyCycle(instr.dst, ~std::uint64_t(0));
        ++warp.pendingLoads;
        for (std::uint32_t line : missed)
            waitingData_[line].push_back(load_id);
        for (std::uint32_t line : new_requests)
            chip_.sendReadRequest(smId_, line, false, cycle);
    }
    warp.advancePc();
    return true;
}

void
Sm::completeLoad(int loadId, std::uint64_t cycle)
{
    PendingLoad &load = loads_[static_cast<std::size_t>(loadId)];
    Warp &warp = warps_[static_cast<std::size_t>(load.warpSlot)];

    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((load.guard >> lane) & 1u))
            continue;
        warp.setReg(lane, load.dstReg,
                    chip_.readGlobalWord(
                        load.laneAddr[static_cast<std::size_t>(lane)]));
    }
    accountRegWrite(warp, load.dstReg, load.guard, cycle);
    warp.setRegReadyCycle(load.dstReg, cycle + 2);
    freeLoadIds_.push_back(loadId);
}

void
Sm::executeGlobalStore(int slot, const Instruction &instr,
                       std::uint32_t guard, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    ++stats_.stores;

    accountRegRead(warp, instr.srcA, guard, cycle);
    accountRegRead(warp, instr.srcB, guard, cycle);

    // Coalesce active lanes per line; write-evict: invalidate the local
    // copy and push the data to L2.
    std::vector<std::uint32_t> lines;
    std::array<std::uint32_t, warpSize> addr{};
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t a = warp.laneAddress(lane, instr);
        addr[static_cast<std::size_t>(lane)] = a;
        const std::uint32_t line = l1d_.lineAddr(a);
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }

    for (std::uint32_t line : lines) {
        l1d_.invalidate(line);
        std::vector<Word> payload;
        for (int lane = 0; lane < warpSize; ++lane) {
            if (!((guard >> lane) & 1u))
                continue;
            if (l1d_.lineAddr(addr[static_cast<std::size_t>(lane)])
                != line) {
                continue;
            }
            const Word value = warp.reg(lane, instr.srcB);
            chip_.writeGlobalWord(addr[static_cast<std::size_t>(lane)],
                                  value);
            payload.push_back(value);
        }
        chip_.sendWriteRequest(smId_, line, std::move(payload), cycle);
    }
    warp.advancePc();
}

void
Sm::executeShared(int slot, const Instruction &instr, std::uint32_t guard,
                  std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    ResidentBlock &block = blockOf(slot);
    ++stats_.sharedAccesses;

    accountRegRead(warp, instr.srcA, guard, cycle);
    const bool is_store = instr.op == Opcode::Sts;
    if (is_store)
        accountRegRead(warp, instr.srcB, guard, cycle);

    // Bank-conflict model: 32 banks, word-interleaved.
    std::array<int, 32> bank_load{};
    std::vector<Word> words;
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t a = warp.laneAddress(lane, instr);
        ++bank_load[isa::sharedIndex(a, block.shared.size()) % 32];
        if (is_store) {
            const Word v = warp.reg(lane, instr.srcB);
            isa::writeShared(block.shared, a, v);
            words.push_back(v);
        } else {
            const Word v = isa::readShared(block.shared, a);
            warp.setReg(lane, instr.dst, v);
            words.push_back(v);
        }
    }

    int conflicts = 0;
    for (int b = 0; b < 32; ++b)
        conflicts = std::max(conflicts, bank_load[static_cast<std::size_t>(b)]);
    if (conflicts > 1) {
        stats_.bankConflictCycles +=
            static_cast<std::uint64_t>(conflicts - 1);
    }

    sink_.onAccess(UnitId::Sme,
                   is_store ? AccessType::Write : AccessType::Read, words,
                   fullMask, cycle);

    if (!is_store) {
        accountRegWrite(warp, instr.dst, guard, cycle);
        warp.setRegReadyCycle(
            instr.dst, cycle
                           + static_cast<std::uint64_t>(
                               config_.sharedMemLatency + conflicts));
    }
    warp.advancePc();
}

bool
Sm::executeConstOrTex(int slot, const Instruction &instr,
                      std::uint32_t guard, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    const bool is_tex = instr.op == Opcode::Ldt;
    TagCache &cache = is_tex ? l1t_ : l1c_;
    const auto &image = is_tex ? program_.texture : program_.constants;
    const UnitId unit = is_tex ? UnitId::L1T : UnitId::L1C;
    ++stats_.loads;

    accountRegRead(warp, instr.srcA, guard, cycle);

    // Unique word addresses touched (constant loads broadcast).
    std::array<std::uint32_t, warpSize> addr{};
    std::vector<std::uint32_t> unique_words;
    std::vector<std::uint32_t> lines;
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t a =
            isa::imageAddress(warp.laneAddress(lane, instr), image.size());
        addr[static_cast<std::size_t>(lane)] = a;
        if (std::find(unique_words.begin(), unique_words.end(), a)
            == unique_words.end()) {
            unique_words.push_back(a);
        }
        const std::uint32_t line = cache.lineAddr(a);
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }

    // Constant/texture misses resolve locally, so a full MSHR file just
    // costs miss latency here instead of stalling the issue slot.
    bool all_hit = true;
    std::vector<std::uint32_t> missed;
    for (std::uint32_t line : lines) {
        const auto outcome = cache.access(line);
        if (outcome != CacheOutcome::Hit) {
            all_hit = false;
            if (outcome == CacheOutcome::Miss)
                missed.push_back(line);
        }
    }

    // Account the read words.
    std::vector<Word> words;
    for (std::uint32_t a : unique_words)
        words.push_back(isa::imageWord(image, a));
    sink_.onAccess(unit, AccessType::Read, words, fullMask, cycle);

    // Deliver values functionally now; latency via the scoreboard.
    for (int lane = 0; lane < warpSize; ++lane) {
        if (((guard >> lane) & 1u)) {
            warp.setReg(lane, instr.dst,
                        isa::imageWord(
                            image, addr[static_cast<std::size_t>(lane)]));
        }
    }
    accountRegWrite(warp, instr.dst, guard, cycle);

    const int hit_lat = is_tex ? config_.texHitLatency
                               : config_.constHitLatency;
    const int miss_lat = is_tex ? config_.texMissLatency
                                : config_.constMissLatency;
    warp.setRegReadyCycle(
        instr.dst,
        cycle + static_cast<std::uint64_t>(all_hit ? hit_lat : miss_lat));

    // Schedule local fills for missed lines (accounted at fill time).
    for (std::uint32_t line : missed) {
        LocalFill fill;
        fill.readyCycle = cycle + static_cast<std::uint64_t>(miss_lat);
        fill.lineAddr = line;
        fill.isTexture = is_tex;
        localFills_.push_back(fill);
    }
    warp.advancePc();
    return true;
}

void
Sm::checkLocalFills(std::uint64_t cycle)
{
    for (auto it = localFills_.begin(); it != localFills_.end();) {
        if (it->readyCycle > cycle) {
            ++it;
            continue;
        }
        TagCache &cache = it->isTexture ? l1t_ : l1c_;
        const auto &image = it->isTexture ? program_.texture
                                          : program_.constants;
        cache.fill(it->lineAddr);
        // Account the fill write with the line's words.
        std::vector<Word> words;
        const std::uint32_t line_bytes = cache.lineBytes();
        for (std::uint32_t off = 0; off < line_bytes; off += 4)
            words.push_back(isa::imageWord(image, it->lineAddr + off));
        sink_.onAccess(it->isTexture ? UnitId::L1T : UnitId::L1C,
                       AccessType::Write, words, fullMask, cycle);
        it = localFills_.erase(it);
    }
}

// ---------------------------------------------------------------------
// Fill handling
// ---------------------------------------------------------------------

void
Sm::onDataFill(std::uint32_t lineAddr, std::uint64_t cycle)
{
    l1d_.fill(lineAddr);

    // Account the L1D fill with the line's current contents.
    std::vector<Word> words;
    for (std::uint32_t off = 0; off < config_.lineBytes; off += 4)
        words.push_back(chip_.readGlobalWord(lineAddr + off));
    sink_.onAccess(UnitId::L1D, AccessType::Write, words, fullMask, cycle);

    auto it = waitingData_.find(lineAddr);
    if (it == waitingData_.end())
        return;
    std::vector<int> waiters = std::move(it->second);
    waitingData_.erase(it);

    for (int load_id : waiters) {
        PendingLoad &load = loads_[static_cast<std::size_t>(load_id)];
        // The words these lanes requested are read out of the fill.
        std::vector<Word> requested;
        for (int lane = 0; lane < warpSize; ++lane) {
            if (((load.guard >> lane) & 1u)
                && l1d_.lineAddr(
                       load.laneAddr[static_cast<std::size_t>(lane)])
                       == lineAddr) {
                requested.push_back(chip_.readGlobalWord(
                    load.laneAddr[static_cast<std::size_t>(lane)]));
            }
        }
        if (!requested.empty()) {
            sink_.onAccess(UnitId::L1D, AccessType::Read, requested,
                           fullMask, cycle);
        }
        if (--load.outstandingLines == 0) {
            Warp &warp = warps_[static_cast<std::size_t>(load.warpSlot)];
            --warp.pendingLoads;
            const int slot = load.warpSlot;
            completeLoad(load_id, cycle);
            // The last completion for an exited warp may unblock its
            // block's retirement.
            if (warp.done() && warp.pendingLoads == 0) {
                maybeRetireBlock(
                    slotBlock_[static_cast<std::size_t>(slot)]);
            }
        }
    }
}

void
Sm::onInstrFill(std::uint32_t lineAddr, std::uint64_t cycle)
{
    l1i_.fill(lineAddr);

    // Account the L1I line fill with the instruction words.
    std::vector<Word64> instrs;
    const int first_pc = static_cast<int>(lineAddr / 8);
    const int per_line = static_cast<int>(config_.lineBytes / 8);
    for (int i = 0; i < per_line; ++i) {
        if (first_pc + i < static_cast<int>(program_.body.size()))
            instrs.push_back(chip_.instrBinary(first_pc + i));
    }
    sink_.onFetch(UnitId::L1I, AccessType::Write, instrs, cycle);

    auto it = waitingInstr_.find(lineAddr);
    if (it == waitingInstr_.end())
        return;
    for (int slot : it->second)
        ifetchPending_[static_cast<std::size_t>(slot)] = false;
    waitingInstr_.erase(it);
}

// ---------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------

void
Sm::handleBarrier(int slot)
{
    handleBarrierRelease(slotBlock_[static_cast<std::size_t>(slot)]);
}

void
Sm::handleBarrierRelease(int blockIdx)
{
    ResidentBlock &block = blocks_[static_cast<std::size_t>(blockIdx)];
    // Release when every live warp of the block is waiting.
    for (int w = 0; w < block.numWarps; ++w) {
        const Warp &warp =
            warps_[static_cast<std::size_t>(block.firstWarp + w)];
        if (!warp.done() && !warp.atBarrier)
            return;
    }
    for (int w = 0; w < block.numWarps; ++w) {
        warps_[static_cast<std::size_t>(block.firstWarp + w)].atBarrier =
            false;
    }
}

void
Sm::maybeRetireBlock(int blockIdx)
{
    ResidentBlock &block = blocks_[static_cast<std::size_t>(blockIdx)];
    if (block.retired || block.warpsDone < block.numWarps)
        return;
    for (int w = 0; w < block.numWarps; ++w) {
        if (warps_[static_cast<std::size_t>(block.firstWarp + w)]
                .pendingLoads
            > 0) {
            return; // a completion still targets these slots
        }
    }
    for (int w = 0; w < block.numWarps; ++w) {
        const int slot = block.firstWarp + w;
        slotUsed_[static_cast<std::size_t>(slot)] = false;
        slotBlock_[static_cast<std::size_t>(slot)] = -1;
        ifbGroup_[static_cast<std::size_t>(slot)] = -1;
    }
    block.retired = true;
    block.shared.clear();
    block.shared.shrink_to_fit();
}

} // namespace bvf::gpu
