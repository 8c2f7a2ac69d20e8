/**
 * @file
 * Kernel pool generator.
 */

#include "kernel_pool.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fleet/ring.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "server/kernel_store.hh"

namespace bvfbench
{

namespace
{

std::string
kernelAsm(bvf::Rng &rng, const std::string &name, const PoolSlot &slot)
{
    std::string text = bvf::strFormat(".kernel %s\n"
                                      ".launch %d %d\n"
                                      ".shared 256\n"
                                      ".global 1\n",
                                      name.c_str(), slot.blocks,
                                      slot.threads);

    // R1 = tid; R2..R5 = small immediates; R8 = in-bounds shared byte
    // offset; R9 = in-bounds absolute global address. Each warp touches
    // one line of the image, so the image size loads the codec, the
    // frames and the validator, not the simulated memory system.
    text += "    S2R R1, SR_TIDX\n";
    for (int r = 2; r <= 5; ++r)
        text += bvf::strFormat("    MOV R%d, #%d\n", r,
                               static_cast<int>(rng.nextRange(-7, 7)));
    text += "    AND R8, R1, #31\n"
            "    SHL R8, R8, #2\n"
            "    MOV R9, #1\n"
            "    SHL R9, R9, #16\n"
            "    IADD R9, R9, R8\n";

    // Optimizer wins: a write nothing reads and a power-of-two multiply.
    text += bvf::strFormat("    MOV R12, #%d\n",
                           static_cast<int>(rng.nextRange(1, 99)));
    text += "    IMUL R3, R3, #4\n";

    for (int i = 0; i < slot.aluOps; ++i) {
        static const char *const kAlu[] = {"IADD", "AND", "XOR", "SHL"};
        const int dst = static_cast<int>(rng.nextRange(2, 5));
        const int srcA = static_cast<int>(rng.nextRange(1, 5));
        const std::string op = kAlu[rng.nextBounded(4)];
        // SHL by a register can shift by >31; keep it immediate.
        if (op == "SHL" || rng.nextBool(0.4)) {
            text += bvf::strFormat("    %s R%d, R%d, #%d\n", op.c_str(), dst,
                                   srcA,
                                   static_cast<int>(rng.nextRange(0, 7)));
        } else {
            text += bvf::strFormat("    %s R%d, R%d, R%d\n", op.c_str(), dst,
                                   srcA,
                                   static_cast<int>(rng.nextRange(1, 5)));
        }
    }

    text += "    LDG R4, [R9 + 0]\n"
            "    STG [R9 + 0], R4\n";
    if (slot.sharedPair) {
        text += "    STS [R8 + 0], R2\n"
                "    BAR\n"
                "    LDS R3, [R8 + 0]\n";
    }
    if (slot.loopTrips > 0) { // a counted loop with a provable bound
        text += bvf::strFormat("    MOV R10, #0\n"
                               "Lloop:\n"
                               "    IADD R10, R10, #1\n"
                               "    IADD R2, R2, R3\n"
                               "    SETP.LT P1, R10, #%d\n"
                               "    @P1 BRA Lloop, join=Ldone\n"
                               "Ldone:\n",
                               slot.loopTrips);
    }
    if (slot.branch) { // a data-dependent forward branch
        text += "    SETP.NE P2, R1, #0\n"
                "    @P2 BRA Lskip, join=Lskip\n"
                "    IADD R2, R2, #1\n"
                "Lskip:\n";
    }

    switch (slot.kind) {
      case KernelKind::Admissible:
        break;
      case KernelKind::UninitRead:
        text += "    IADD R2, R20, R21\n";
        break;
      case KernelKind::SharedOutOfBounds:
        text += "    STS [R8 + 8192], R2\n";
        break;
    }
    // Keep the loaded and computed values live to the end.
    text += "    STG [R9 + 0], R2\n"
            "    EXIT\n";
    return text;
}

/**
 * @p words of mostly narrow values, never zero, so no image chunk
 * compresses and the bytecode is 4 bytes per word.
 */
std::vector<bvf::Word>
globalImage(bvf::Rng &rng, std::size_t words)
{
    std::vector<bvf::Word> image(words);
    for (bvf::Word &w : image) {
        w = rng.nextBool(0.6)
                ? static_cast<bvf::Word>(rng.nextRange(1, 255))
                : (rng.nextU32() | 1u);
    }
    return image;
}

/**
 * The pool's fixed shapes. Slot i takes size stratum i of the
 * [kMinGlobalWords, kMaxGlobalWords] range (jittered inside it by the
 * seed) and goes to worker 0 or 1 in the pattern 0110, which splits the
 * strata evenly; every sixth slot is hostile; the admissible slots cycle
 * through the 12 launch geometries ({32, 64, 96, 128} threads x
 * {1, 2, 3} blocks), a counted loop on half of them (1-5 trips), a
 * data-dependent branch on two in five and a shared-memory pair on
 * half, with 2-12 ALU instructions.
 */
std::vector<PoolSlot>
poolSlots(bvf::Rng &rng)
{
    std::vector<PoolSlot> slots(kPoolSize);
    const double span =
        static_cast<double>(kMaxGlobalWords - kMinGlobalWords);
    constexpr std::size_t kStride = kPoolSize / kHostileKernels;
    int admissible = 0;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        PoolSlot &s = slots[i];
        const double at = (static_cast<double>(i) + rng.nextDouble())
                          / static_cast<double>(kPoolSize);
        s.globalWords = kMinGlobalWords + static_cast<std::size_t>(at * span);
        s.worker = i % 4 == 0 || i % 4 == 3 ? 0 : 1;
        if (i % kStride == kStride / 2) {
            s.kind = (i / kStride) % 2 == 0 ? KernelKind::UninitRead
                                            : KernelKind::SharedOutOfBounds;
            continue;
        }
        const int j = admissible++;
        static const int kThreads[] = {32, 64, 96, 128};
        s.threads = kThreads[j % 4];
        s.blocks = 1 + (j / 4) % 3;
        s.loopTrips = j % 2 == 0 ? 1 + (j / 2) % 5 : 0;
        s.branch = (j / 3) % 5 < 2;
        s.sharedPair = (j / 5) % 2 == 0;
        s.aluOps = 2 + (j * 7) % 11;
    }
    return slots;
}

/** Slot @p i of @p slot's plan, assembled and encoded once. */
PoolKernel
buildKernel(std::size_t i, const PoolSlot &slot)
{
    PoolKernel k;
    k.name = bvf::strFormat("pool-%02zu", i);
    k.kind = slot.kind;
    k.worker = slot.worker;
    bvf::Rng imageRng(slot.imageSeed);
    bvf::Rng asmRng(slot.asmSeed);
    auto program = bvf::isa::parseAsm(kernelAsm(asmRng, k.name, slot));
    panic_if(!program.ok(), "pool kernel %s does not assemble: %s",
             k.name.c_str(), program.error().describe().c_str());
    program.value().global = globalImage(imageRng, slot.globalWords);
    k.bytecode = bvf::isa::encodeProgram(program.value());
    return k;
}

} // namespace

KernelPoolPlan
planKernelPool(std::uint64_t seed)
{
    bvf::Rng rng(seed ^ 0xb7f0c0de5eedull);
    KernelPoolPlan plan;
    plan.slots = poolSlots(rng);
    std::vector<PoolSlot> &slots = plan.slots;
    for (std::size_t i = slots.size() - 1; i > 0; --i)
        std::swap(slots[i], slots[rng.nextBounded(i + 1)]);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        slots[i].imageSeed = rng.nextU64();
        do {
            slots[i].asmSeed = rng.nextU64();
        } while (routedWorker(buildKernel(i, slots[i])) != slots[i].worker);
    }
    return plan;
}

std::vector<PoolKernel>
buildKernelPool(const KernelPoolPlan &plan)
{
    std::vector<PoolKernel> pool;
    pool.reserve(plan.slots.size());
    for (std::size_t i = 0; i < plan.slots.size(); ++i)
        pool.push_back(buildKernel(i, plan.slots[i]));
    return pool;
}

std::vector<PoolKernel>
makeKernelPool(std::uint64_t seed)
{
    return buildKernelPool(planKernelPool(seed));
}

std::string
workerRouteId(std::size_t i)
{
    return bvf::strFormat("127.0.0.1:%zu", i + 1);
}

std::size_t
routedWorker(const PoolKernel &k)
{
    static const bvf::fleet::HashRing ring(
        {workerRouteId(0), workerRouteId(1)});
    return ring.primary(bvf::server::kernelDigest(k.bytecode));
}

std::optional<bvf::analysis::RejectReason>
expectedRejection(KernelKind k)
{
    switch (k) {
      case KernelKind::Admissible:
        return std::nullopt;
      case KernelKind::UninitRead:
        return bvf::analysis::RejectReason::UninitRead;
      case KernelKind::SharedOutOfBounds:
        return bvf::analysis::RejectReason::MemoryOutOfBounds;
    }
    return std::nullopt;
}

std::size_t
plannedResidentKernels(const std::vector<PoolKernel> &pool)
{
    const auto admissible = static_cast<std::size_t>(
        std::count_if(pool.begin(), pool.end(), [](const PoolKernel &k) {
            return k.kind == KernelKind::Admissible;
        }));
    return 2 * admissible;
}

} // namespace bvfbench
