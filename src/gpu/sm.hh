/**
 * @file
 * Streaming multiprocessor model.
 *
 * Each SM hosts resident thread blocks, schedules one instruction per
 * cycle from a ready warp (GTO/LRR/two-level), executes it functionally
 * on per-lane register values, and models the per-SM storage: register
 * file, shared memory, L1 data / instruction / constant / texture
 * caches with MSHRs. Every storage access is reported to the
 * AccessSink with its raw data so the accounting layer can evaluate all
 * coding scenarios simultaneously.
 *
 * Stores follow the GPU write-evict / write-no-allocate policy the
 * paper's VS coder relies on: store data goes straight to L2 (through
 * the NoC), invalidating any local copy.
 */

#ifndef BVF_GPU_SM_HH
#define BVF_GPU_SM_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "gpu/cache.hh"
#include "gpu/gpu_config.hh"
#include "gpu/regfile.hh"
#include "gpu/scheduler.hh"
#include "gpu/warp.hh"
#include "isa/program.hh"
#include "sram/access_sink.hh"

namespace bvf::gpu
{

/** Services the SM needs from the chip (implemented by Gpu). */
class ChipInterface
{
  public:
    virtual ~ChipInterface() = default;

    /** Send a line read request into the NoC (data or instruction). */
    virtual void sendReadRequest(int smId, std::uint32_t lineAddr,
                                 bool instr, std::uint64_t cycle) = 0;

    /** Send store data for @p lineAddr into the NoC. */
    virtual void sendWriteRequest(int smId, std::uint32_t lineAddr,
                                  std::vector<Word> payload,
                                  std::uint64_t cycle) = 0;

    /** Functional read of a global word (byte address). */
    virtual Word readGlobalWord(std::uint32_t addr) const = 0;

    /** Functional write of a global word (byte address). */
    virtual void writeGlobalWord(std::uint32_t addr, Word value) = 0;

    /** Program binary word for instruction index @p pc. */
    virtual Word64 instrBinary(int pc) const = 0;
};

/**
 * Validation hook observing every instruction the SM tries to issue,
 * with the issuing warp's full architectural state. Used by the static
 * analyzer's soundness tests to compare abstract facts against every
 * concrete lane value at the matching pc. A memory instruction that
 * stalls structurally re-fires the probe on its retry; observers state
 * facts about the pre-issue state, which the stall does not change.
 *
 * The register file a probe sees is the microarchitectural one: a load
 * that is still in flight has not yet written its destination, so that
 * register holds the previous value until the response lands. The
 * scoreboard guarantees no consumer can read it meanwhile -- probes
 * asserting architectural facts must apply the same gate by skipping
 * registers with Warp::regReadyCycle past the issue cycle.
 */
class ExecProbe
{
  public:
    virtual ~ExecProbe() = default;

    /**
     * @param smId issuing SM
     * @param pc program counter of the issued instruction
     * @param instr the instruction at @p pc
     * @param warp the issuing warp, pre-execution
     * @param guard active lanes passing the instruction's guard
     * @param cycle issue cycle, for scoreboard (readiness) queries
     */
    virtual void onIssue(int smId, int pc, const isa::Instruction &instr,
                         const Warp &warp, std::uint32_t guard,
                         std::uint64_t cycle) = 0;
};

/** Per-SM dynamic instruction statistics (feeds the power model). */
struct SmStats
{
    std::uint64_t issued = 0;
    std::uint64_t fpOps = 0;
    std::uint64_t intOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t controlOps = 0;
    std::uint64_t sharedAccesses = 0;
    std::uint64_t bankConflictCycles = 0;    //!< shared-memory banks
    std::uint64_t regBankConflictCycles = 0; //!< operand collection
    std::uint64_t idleCycles = 0;

    /**
     * Register writes whose guard mask excludes the VS pivot lane while
     * writing other lanes -- the case where the paper's VS coder must
     * insert a dummy mov to re-encode against the new pivot (Section
     * 4.2.2, branch divergence). Counted so the claimed "negligible
     * overhead" is measurable.
     */
    std::uint64_t pivotDivergentWrites = 0;
};

/**
 * One streaming multiprocessor.
 */
class Sm
{
  public:
    Sm(int smId, const GpuConfig &config, const isa::Program &program,
       sram::AccessSink &sink, ChipInterface &chip);

    /** Try to make @p blockId resident; false if out of warp slots. */
    bool assignBlock(int blockId);

    /** All resident warps finished and no pending work. */
    bool idle() const;

    /** Number of free warp slots. */
    int freeWarpSlots() const;

    /** Advance one core cycle. */
    void step(std::uint64_t cycle);

    /** A data line arrived from L2. */
    void onDataFill(std::uint32_t lineAddr, std::uint64_t cycle);

    /** An instruction line arrived from L2. */
    void onInstrFill(std::uint32_t lineAddr, std::uint64_t cycle);

    const SmStats &stats() const { return stats_; }
    int smId() const { return smId_; }

    /** Install (or clear, with nullptr) the issue-observation probe. */
    void setExecProbe(ExecProbe *probe) { probe_ = probe; }

    /**
     * Run the dispatch loop specialized for programs whose admission
     * certificate proves uniform control flow (Certificate::
     * uniformControlFlow): per-issue reconvergence-stack maintenance is
     * skipped, and Warp::diverge firing becomes a hard contract
     * violation. Purely a fast path -- issue order, statistics and
     * energy accounting are byte-identical to the general loop.
     */
    void setUniformDispatch(bool on) { uniformDispatch_ = on; }

  private:
    /** Instructions per IFB refill. */
    static constexpr int ifbInstrs = 8;

    struct ResidentBlock
    {
        int blockId = 0;
        int firstWarp = 0; //!< slot of its first warp
        int numWarps = 0;
        int warpsDone = 0;
        bool retired = false;
        std::vector<Word> shared; //!< shared-memory contents
    };

    struct PendingLoad
    {
        int warpSlot = 0;
        int dstReg = 0;
        std::uint32_t guard = 0;
        std::array<std::uint32_t, warpSize> laneAddr{};
        int outstandingLines = 0;
    };

    struct LocalFill
    {
        std::uint64_t readyCycle = 0;
        std::uint32_t lineAddr = 0;
        bool isTexture = false;
        std::vector<int> waitingLoads;
    };

    // --- pipeline stages ----------------------------------------------
    bool warpReady(int slot, std::uint64_t cycle);
    bool fetchReady(int slot, std::uint64_t cycle);
    void issueWarp(int slot, std::uint64_t cycle);

    /** Execute a non-memory instruction functionally. */
    void executeAlu(int slot, const isa::Instruction &instr,
                    std::uint32_t guard, std::uint64_t cycle);

    /** Try to issue a memory instruction; false on structural stall. */
    bool executeMemory(int slot, const isa::Instruction &instr,
                       std::uint32_t guard, std::uint64_t cycle);

    bool executeGlobalLoad(int slot, const isa::Instruction &instr,
                           std::uint32_t guard, std::uint64_t cycle);
    void executeGlobalStore(int slot, const isa::Instruction &instr,
                            std::uint32_t guard, std::uint64_t cycle);
    void executeShared(int slot, const isa::Instruction &instr,
                       std::uint32_t guard, std::uint64_t cycle);
    bool executeConstOrTex(int slot, const isa::Instruction &instr,
                           std::uint32_t guard, std::uint64_t cycle);

    void completeLoad(int loadId, std::uint64_t cycle);
    void handleBarrier(int slot);
    void handleBarrierRelease(int blockIdx);
    void checkLocalFills(std::uint64_t cycle);

    /**
     * Free a finished block's warp slots so queued blocks can launch.
     * Deferred while any of its warps still has loads in flight (their
     * completions must not write a re-assigned slot).
     */
    void maybeRetireBlock(int blockIdx);

    // --- accounting helpers -------------------------------------------
    void accountRegRead(const Warp &warp, int reg, std::uint32_t guard,
                        std::uint64_t cycle);
    void accountRegWrite(const Warp &warp, int reg, std::uint32_t guard,
                         std::uint64_t cycle);

    ResidentBlock &blockOf(int slot);

    int smId_;
    const GpuConfig &config_;
    const isa::Program &program_;
    sram::AccessSink &sink_;
    ChipInterface &chip_;
    ExecProbe *probe_ = nullptr;
    bool uniformDispatch_ = false;

    std::vector<Warp> warps_;
    std::vector<bool> slotUsed_;
    std::vector<int> slotBlock_; //!< resident-block index per slot
    std::vector<ResidentBlock> blocks_;
    std::unique_ptr<WarpScheduler> scheduler_;

    TagCache l1d_;
    TagCache l1i_;
    TagCache l1c_;
    TagCache l1t_;
    RegFileModel regFile_;

    // Per-warp IFB state: which instruction group is buffered.
    std::vector<int> ifbGroup_;
    std::vector<bool> ifetchPending_;

    std::vector<PendingLoad> loads_;
    std::vector<int> freeLoadIds_;
    std::unordered_map<std::uint32_t, std::vector<int>> waitingData_;
    std::unordered_map<std::uint32_t, std::vector<int>> waitingInstr_;
    std::vector<LocalFill> localFills_;

    // Per-cycle scheduler scratch, hoisted out of step() so the hot
    // loop does not allocate.
    std::vector<bool> readyScratch_;
    std::vector<std::uint64_t> lastScratch_;

    SmStats stats_;
};

} // namespace bvf::gpu

#endif // BVF_GPU_SM_HH
