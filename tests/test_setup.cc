/**
 * @file
 * Tests for the run setup (core/setup.hh): the name tables, the wire
 * indices, the shared flag parser and the wire and campaign mappings.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/setup.hh"
#include "server/protocol.hh"

namespace bvf::core
{
namespace
{

/** Every spelling of @p table looks up and parses to its value. */
template <typename T, std::size_t N>
void
expectTable(const std::array<Choice<T>, N> &table,
            const std::vector<Choice<T>> &expected)
{
    ASSERT_EQ(table.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(table[i].name, expected[i].name);
        EXPECT_EQ(table[i].value, expected[i].value);
        EXPECT_EQ(lookupChoice(table, expected[i].name), expected[i].value);
        EXPECT_EQ(parseChoice("--flag", std::string(expected[i].name),
                              table),
                  expected[i].value);
    }
    EXPECT_EQ(lookupChoice(table, "nope"), std::nullopt);
}

TEST(SetupTables, EverySpellingMapsToItsValueInHintOrder)
{
    expectTable(kArchChoices, {{"fermi", isa::GpuArch::Fermi},
                                {"kepler", isa::GpuArch::Kepler},
                                {"maxwell", isa::GpuArch::Maxwell},
                                {"pascal", isa::GpuArch::Pascal}});
    expectTable(kSchedChoices,
                {{"gto", gpu::SchedulerPolicy::Gto},
                 {"lrr", gpu::SchedulerPolicy::Lrr},
                 {"two", gpu::SchedulerPolicy::TwoLevel}});
    expectTable(kNodeChoices, {{"28", circuit::TechNode::N28},
                                {"40", circuit::TechNode::N40}});
    expectTable(kPStateChoices, {{"700", PStateLevel::Nominal},
                                  {"500", PStateLevel::Mid},
                                  {"300", PStateLevel::Low}});
    expectTable(kCellChoices, {{"bvf8t", circuit::CellKind::SramBvf8T},
                                {"bvf6t", circuit::CellKind::SramBvf6T},
                                {"8t", circuit::CellKind::Sram8T},
                                {"6t", circuit::CellKind::Sram6T},
                                {"edram", circuit::CellKind::Edram3T}});
}

TEST(SetupTables, BadSpellingListsTheTableInOrder)
{
    try {
        parseChoice("--cell", "7t", kCellChoices);
        FAIL() << "expected a UsageError";
    } catch (const cli::UsageError &e) {
        EXPECT_STREQ(e.what(), "invalid value '7t' for --cell: expected "
                               "one of bvf8t, bvf6t, 8t, 6t, edram");
    }
}

/**
 * Every value of @p table crosses the wire (an EvalSubmittedRequest
 * carries every wire setting) as a distinct index below the table
 * size, the bound decode checks, and comes back as itself.
 */
template <typename T, std::size_t N>
void
expectWireRoundTrip(const std::array<Choice<T>, N> &table,
                    T RunSetup::*field,
                    std::uint8_t server::EvalSubmittedRequest::*wire)
{
    std::set<unsigned> seen;
    for (const Choice<T> &c : table) {
        RunSetup setup;
        setup.*field = c.value;
        server::EvalSubmittedRequest req;
        req.digest = "d";
        server::toWire(setup, req);
        EXPECT_LT(req.*wire, N) << c.name;
        EXPECT_TRUE(seen.insert(req.*wire).second) << c.name;
        const auto decoded =
            server::EvalSubmittedRequest::decode(req.encode());
        ASSERT_TRUE(decoded.ok()) << c.name;
        EXPECT_EQ(server::fromWire(decoded.value()).*field, c.value)
            << c.name;
    }
}

TEST(SetupTables, EveryWireIndexRoundTripsToItsEnum)
{
    using Req = server::EvalSubmittedRequest;
    expectWireRoundTrip(kArchChoices, &RunSetup::arch, &Req::arch);
    expectWireRoundTrip(kSchedChoices, &RunSetup::sched, &Req::sched);
    expectWireRoundTrip(kNodeChoices, &RunSetup::node, &Req::node);
    expectWireRoundTrip(kPStateChoices, &RunSetup::pstate, &Req::pstate);
    expectWireRoundTrip(kCellChoices, &RunSetup::cell, &Req::cell);

    // The indices the protocol documents: the enum order.
    Req req;
    server::toWire(RunSetup{}, req);
    EXPECT_EQ(req.arch, 3);  // Pascal
    EXPECT_EQ(req.sched, 0); // GTO
    EXPECT_EQ(req.node, 0);  // 28nm
    EXPECT_EQ(req.pstate, 0); // 700MHz
    EXPECT_EQ(req.cell, 2);  // BVF-8T
}

RunSetup
nonDefaultSetup()
{
    RunSetup s;
    s.arch = isa::GpuArch::Kepler;
    s.sched = gpu::SchedulerPolicy::Lrr;
    s.vsPivot = 5;
    s.dynamicIsa = true;
    s.node = circuit::TechNode::N40;
    s.pstate = PStateLevel::Low;
    s.cell = circuit::CellKind::Edram3T;
    s.ecc = true;
    s.cellsBitline = 256;
    return s;
}

TEST(SetupFlags, ParserTakesTheNineFlagsAndNothingElse)
{
    const char *argv[] = {
        "prog",         "--arch",   "kepler", "--sched",       "lrr",
        "--pivot",      "5",        "--dynamic-isa", "--node", "40",
        "--pstate",     "300",      "--cell", "edram",         "--ecc",
        "--cells-bitline", "256",   "--jobs", "4"};
    cli::ArgStream args(static_cast<int>(std::size(argv)),
                        const_cast<char **>(argv));
    RunSetup parsed;
    std::vector<std::string> rest;
    std::string arg;
    while (args.next(arg)) {
        if (!parseSetupFlag(arg, args, parsed))
            rest.push_back(arg);
    }
    EXPECT_EQ(parsed, nonDefaultSetup());
    EXPECT_EQ(rest, (std::vector<std::string>{"--jobs", "4"}));
}

TEST(SetupWire, RequestsCarryEveryWireSetting)
{
    const RunSetup setup = nonDefaultSetup();

    server::ChipEnergyRequest energy;
    server::toWire(setup, energy);
    energy.query.abbr = "GAU";
    const auto e = server::ChipEnergyRequest::decode(energy.encode());
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(server::fromWire(e.value()), setup);

    server::EvalSubmittedRequest eval;
    server::toWire(setup, eval);
    eval.digest = "d";
    const auto v = server::EvalSubmittedRequest::decode(eval.encode());
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(server::fromWire(v.value()), setup);

    // An AppQuery carries the machine only; pricing stays default.
    server::AppQuery query;
    server::toWire(setup, query);
    RunSetup machineOnly;
    machineOnly.arch = setup.arch;
    machineOnly.sched = setup.sched;
    machineOnly.vsPivot = setup.vsPivot;
    machineOnly.dynamicIsa = setup.dynamicIsa;
    EXPECT_EQ(server::fromWire(query), machineOnly);
}

TEST(RunSetup, WireMappingCountsEccButArmsNoFaults)
{
    RunSetup setup = nonDefaultSetup();
    setup.cell = circuit::CellKind::SramBvf6T;
    setup.cellsBitline = 16;
    const RunOptions run = setup.runOptions();
    EXPECT_TRUE(run.dynamicIsa);
    EXPECT_EQ(run.vsRegisterPivot, 5);
    EXPECT_EQ(run.fault.ecc, fault::EccScheme::Secded72_64);
    EXPECT_FALSE(run.fault.enabled);
    const Pricing pricing = setup.pricing();
    EXPECT_EQ(pricing.node, circuit::TechNode::N40);
    EXPECT_EQ(pricing.pstate.name, gpu::pstateLow().name);
    EXPECT_EQ(pricing.cellKind, circuit::CellKind::SramBvf6T);
    EXPECT_TRUE(pricing.ecc);
    EXPECT_EQ(pricing.cellsPerBitline, 16);
    EXPECT_FALSE(pricing.allowUnreliableCells);
    const gpu::GpuConfig machine = setup.machine();
    EXPECT_EQ(machine.arch, isa::GpuArch::Kepler);
    EXPECT_EQ(machine.scheduler, gpu::SchedulerPolicy::Lrr);
}

TEST(RunSetup, PricingNamesThePaperOperatingPoints)
{
    RunSetup setup;
    EXPECT_EQ(setup.pricing().pstate.name, gpu::pstateNominal().name);
    setup.pstate = PStateLevel::Mid;
    EXPECT_EQ(setup.pricing().pstate.name, gpu::pstateMid().name);
    setup.pstate = PStateLevel::Low;
    EXPECT_EQ(setup.pricing().pstate.name, gpu::pstateLow().name);
}

TEST(RunSetup, CampaignPlanArmsReadDisturbOnlyForBvf6t)
{
    RunSetup setup;
    setup.faultSeed = 42;
    const RunPlan clean = setup.campaignPlan();
    EXPECT_FALSE(clean.run.fault.anyFaults());
    EXPECT_FALSE(clean.pricing.allowUnreliableCells);
    EXPECT_EQ(clean.run.fault.seed, 42u);

    setup.cell = circuit::CellKind::SramBvf6T;
    setup.cellsBitline = 16;
    const RunPlan disturbed = setup.campaignPlan();
    EXPECT_GT(disturbed.run.fault.readDisturbRate, 0.0);
    EXPECT_TRUE(disturbed.run.fault.anyFaults());
    EXPECT_TRUE(disturbed.pricing.allowUnreliableCells);

    setup.cell = circuit::CellKind::SramBvf8T;
    setup.softErrorRate = 1e-7;
    const RunPlan soft = setup.campaignPlan();
    EXPECT_TRUE(soft.run.fault.anyFaults());
    EXPECT_EQ(soft.run.fault.readDisturbRate, 0.0);
    EXPECT_FALSE(soft.pricing.allowUnreliableCells);
}

} // namespace
} // namespace bvf::core
