/**
 * @file
 * The run setup: the one definition of the knobs an evaluation run is
 * configured by (Sections 7.1-7.2) -- GPU generation, warp scheduler,
 * VS pivot, dynamic ISA mask, technology node, P-state, memory cell,
 * ECC and cells per bitline -- plus a fault study's soft-error rate and
 * seed.
 *
 * bvf_sim, bvf_fleet and bvf_client parse these flags with
 * parseSetupFlag(). bvfd answers a request with machine(), runOptions()
 * and pricing(); a campaign (bvf_sim's, and the fleet's digest) runs
 * campaignPlan(), which adds the fault model on top. A fleet campaign
 * is bit-identical to `bvf_sim campaign` because both run this code.
 * Each choice has one name table, its spellings in the order the
 * diagnostics list them; on the wire (server::toWire) a choice travels
 * as its enum index.
 */

#ifndef BVF_CORE_SETUP_HH
#define BVF_CORE_SETUP_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/cli.hh"
#include "core/experiment.hh"

namespace bvf::core
{

/** The three DVFS points of Figure 20, in wire order. */
enum class PStateLevel : std::uint8_t
{
    Nominal, //!< 700 MHz, 1.2 V
    Mid,     //!< 500 MHz, 0.9 V
    Low,     //!< 300 MHz, 0.6 V
};

/** One spelling of a choice-valued flag and the value it selects. */
template <typename T>
struct Choice
{
    std::string_view name;
    T value;
};

// The name tables (setup.cc), one spelling per value, in hint order.
extern const std::array<Choice<isa::GpuArch>, 4> kArchChoices;
extern const std::array<Choice<gpu::SchedulerPolicy>, 3> kSchedChoices;
extern const std::array<Choice<circuit::TechNode>, 2> kNodeChoices;
extern const std::array<Choice<PStateLevel>, 3> kPStateChoices;
extern const std::array<Choice<circuit::CellKind>, 5> kCellChoices;

constexpr int kMaxVsPivot = 31;        //!< --pivot range [0, 31]
constexpr int kMaxCellsBitline = 8192; //!< --cells-bitline range [1, 8192]

/** The value @p name spells in @p table, if any. */
template <typename T, std::size_t N>
std::optional<T>
lookupChoice(const std::array<Choice<T>, N> &table, std::string_view name)
{
    for (const Choice<T> &c : table) {
        if (c.name == name)
            return c.value;
    }
    return std::nullopt;
}

/**
 * The value @p value spells for @p flag in @p table; else the
 * bad-choice UsageError, listing the table's spellings in order.
 */
template <typename T, std::size_t N>
T
parseChoice(const std::string &flag, const std::string &value,
            const std::array<Choice<T>, N> &table)
{
    if (const auto found = lookupChoice(table, value))
        return *found;
    std::string hint;
    for (const Choice<T> &c : table)
        hint += (hint.empty() ? "" : ", ") + std::string(c.name);
    cli::badChoice(flag, value, hint.c_str());
}

/** Simulation options and pricing, as one run applies them. */
struct RunPlan
{
    RunOptions run;
    Pricing pricing;
};

/** One evaluation run's configuration; defaults are bvf_sim's. */
struct RunSetup
{
    isa::GpuArch arch = isa::GpuArch::Pascal;
    gpu::SchedulerPolicy sched = gpu::SchedulerPolicy::Gto;
    int vsPivot = coder::VsCoder::defaultRegisterPivot;
    bool dynamicIsa = false;
    circuit::TechNode node = circuit::TechNode::N28;
    PStateLevel pstate = PStateLevel::Nominal;
    circuit::CellKind cell = circuit::CellKind::SramBvf8T;
    bool ecc = false;
    int cellsBitline = 128;
    double softErrorRate = 0.0; //!< per-bit flips per read (--fault-rate)
    std::uint64_t faultSeed = 1; //!< fault-stream seed (--fault-seed)

    bool operator==(const RunSetup &) const = default;

    /** The Table 3 machine with this arch and scheduler. */
    gpu::GpuConfig machine() const;

    /**
     * What the wire carries: dynamic ISA, VS pivot and, with ecc, the
     * accountant's SECDED check-bit accounting. No fault model.
     */
    RunOptions runOptions() const;

    /** What the wire carries: node, P-state, cell, ECC, bitline. */
    Pricing pricing() const;

    /**
     * runOptions() and pricing() plus the fault model a campaign arms:
     * soft errors at softErrorRate and the cell's read-disturb rate
     * (nonzero only for bvf6t), seeded by faultSeed. A modelled read
     * disturb licenses pricing the cell past its reliability limit.
     */
    RunPlan campaignPlan() const;
};

/**
 * If @p arg is one of the nine setup flags (--arch, --sched, --pivot,
 * --dynamic-isa, --node, --pstate, --cell, --ecc, --cells-bitline),
 * consume its value from @p args into @p setup and return true; a bad
 * value throws cli::UsageError. Any other @p arg returns false.
 */
bool parseSetupFlag(const std::string &arg, cli::ArgStream &args,
                    RunSetup &setup);

} // namespace bvf::core

#endif // BVF_CORE_SETUP_HH
