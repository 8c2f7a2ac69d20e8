/**
 * @file
 * Tests for the shared CLI parsing layer: strict whole-token numeric
 * conversion, range checks, the ArgStream cursor, and the canonical
 * diagnostics that bvf_sim and bvf_lint both relied on before the
 * parser was unified; plus bvf_client's transport paths (retries
 * against a refusing port, a resolved host name) against a real
 * in-process daemon.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "server/server.hh"

namespace bvf::cli
{
namespace
{

/** what() of the UsageError @p fn throws; fails the test if none. */
template <typename Fn>
std::string
diagnosticOf(Fn fn)
{
    try {
        fn();
    } catch (const UsageError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a UsageError";
    return "";
}

TEST(Parse, IntegerAcceptsTheWholeRange)
{
    EXPECT_EQ(parseInteger("--jobs", "1", 1, 64), 1);
    EXPECT_EQ(parseInteger("--jobs", "64", 1, 64), 64);
    EXPECT_EQ(parseInteger("--pivot", "-3", -10, 10), -3);
}

TEST(Parse, IntegerRejectsGarbageAndPartialTokens)
{
    EXPECT_THROW(parseInteger("--jobs", "abc", 1, 64), UsageError);
    EXPECT_THROW(parseInteger("--jobs", "4x", 1, 64), UsageError);
    EXPECT_THROW(parseInteger("--jobs", "", 1, 64), UsageError);
    EXPECT_THROW(parseInteger("--jobs", "4.5", 1, 64), UsageError);
    EXPECT_NE(diagnosticOf([] { parseInteger("--jobs", "abc", 1, 64); })
                  .find("expected an integer"),
              std::string::npos);
}

TEST(Parse, IntegerRejectsOutOfRangeWithBothBounds)
{
    EXPECT_THROW(parseInteger("--jobs", "0", 1, 64), UsageError);
    EXPECT_THROW(parseInteger("--jobs", "65", 1, 64), UsageError);
    const std::string msg =
        diagnosticOf([] { parseInteger("--jobs", "65", 1, 64); });
    EXPECT_NE(msg.find("--jobs"), std::string::npos);
    EXPECT_NE(msg.find("[1, 64]"), std::string::npos);
}

TEST(Parse, NumberAcceptsDecimalAndScientific)
{
    EXPECT_DOUBLE_EQ(parseNumber("--vdd", "1.2", 0.0, 2.0), 1.2);
    EXPECT_DOUBLE_EQ(parseNumber("--freq", "7e8", 0.0, 1e10), 7e8);
    EXPECT_THROW(parseNumber("--vdd", "1.2v", 0.0, 2.0), UsageError);
    EXPECT_THROW(parseNumber("--vdd", "9.9", 0.0, 2.0), UsageError);
}

TEST(Parse, U64AcceptsFullWidthAndRejectsNegatives)
{
    EXPECT_EQ(parseU64("--mask", "18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseU64("--mask", "0"), 0u);
    // strtoull silently wraps negatives; the parser must not.
    EXPECT_THROW(parseU64("--mask", "-1"), UsageError);
    EXPECT_THROW(parseU64("--mask", "12 "), UsageError);
}

TEST(Parse, BadChoiceNamesFlagValueAndChoices)
{
    const std::string msg = diagnosticOf(
        [] { badChoice("--sched", "fifo", "gto, lrr, two"); });
    EXPECT_EQ(msg, "invalid value 'fifo' for --sched: "
                   "expected one of gto, lrr, two");
}

TEST(ArgStream, WalksArgvSkippingTheProgramName)
{
    const char *argv[] = {"prog", "--pivot", "21", "all"};
    ArgStream args(4, const_cast<char **>(argv));
    std::string arg;
    std::vector<std::string> seen;
    while (args.next(arg)) {
        if (arg == "--pivot")
            seen.push_back("pivot=" + args.value(arg));
        else
            seen.push_back(arg);
    }
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "pivot=21");
    EXPECT_EQ(seen[1], "all");
    EXPECT_FALSE(args.next(arg)); // stays exhausted
}

TEST(ArgStream, MissingValueIsTheCanonicalDiagnostic)
{
    const char *argv[] = {"prog", "--arch"};
    ArgStream args(2, const_cast<char **>(argv));
    std::string arg;
    ASSERT_TRUE(args.next(arg));
    const std::string msg =
        diagnosticOf([&] { args.value(arg); });
    EXPECT_EQ(msg, "--arch requires a value");
}

TEST(Report, UsageErrorsExitWithStatusTwo)
{
    EXPECT_EQ(kExitUsage, 2);
    EXPECT_EQ(reportUsage("bvf_sim", UsageError("unknown option '--x'")),
              kExitUsage);
}

/**
 * Run an example front end with the given arguments; @return its exit
 * status, with combined stdout+stderr in @p out. -1 if it did not
 * exit normally.
 */
int
runTool(const std::string &tool, const std::string &args,
        std::string &out)
{
    const std::string cmd =
        std::string(BVF_EXAMPLES_DIR) + "/" + tool + " " + args + " 2>&1";
    out.clear();
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        return -1;
    char chunk[512];
    while (std::fgets(chunk, sizeof(chunk), pipe))
        out += chunk;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ExitTwo, PortedFrontEndsRejectUnknownOptions)
{
    for (const char *tool :
         {"pivot_explorer", "chip_power_report", "sram_designer"}) {
        std::string out;
        EXPECT_EQ(runTool(tool, "--bogus", out), kExitUsage) << tool;
        EXPECT_NE(out.find("unknown option '--bogus'"),
                  std::string::npos)
            << tool << ": " << out;
        // The diagnostic leads with the program name.
        EXPECT_EQ(out.rfind(tool, 0), 0u) << tool << ": " << out;
    }
}

TEST(ExitTwo, PortedFrontEndsValidateValues)
{
    std::string out;
    // Flag value outside its range.
    EXPECT_EQ(runTool("pivot_explorer", "--samples 0", out), kExitUsage);
    EXPECT_NE(out.find("--samples"), std::string::npos) << out;

    // Bad choice for the node, flag and positional spellings.
    EXPECT_EQ(runTool("sram_designer", "--node 90", out), kExitUsage);
    EXPECT_NE(out.find("expected one of 28, 40"), std::string::npos)
        << out;
    EXPECT_EQ(runTool("sram_designer", "90nm", out), kExitUsage);

    // A flag that requires a value, given none.
    EXPECT_EQ(runTool("chip_power_report", "--node", out), kExitUsage);
    EXPECT_NE(out.find("--node requires a value"), std::string::npos)
        << out;

    // Excess positional arguments are refused, not silently dropped.
    EXPECT_EQ(runTool("chip_power_report", "KMN TRI", out), kExitUsage);
    EXPECT_NE(out.find("unexpected argument"), std::string::npos) << out;
}

TEST(ExitTwo, ClientValidatesRetryFlags)
{
    std::string out;
    // Each flag rejects non-numeric and out-of-range values before any
    // connection attempt, so these fail fast with the usage status.
    EXPECT_EQ(runTool("bvf_client", "--retries -1 ping", out),
              kExitUsage);
    EXPECT_NE(out.find("--retries"), std::string::npos) << out;
    EXPECT_EQ(runTool("bvf_client", "--retries many ping", out),
              kExitUsage);
    EXPECT_EQ(runTool("bvf_client", "--backoff-ms 999999 ping", out),
              kExitUsage);
    EXPECT_NE(out.find("--backoff-ms"), std::string::npos) << out;
    EXPECT_EQ(runTool("bvf_client", "--deadline-ms 2.5 ping", out),
              kExitUsage);
    EXPECT_NE(out.find("--deadline-ms"), std::string::npos) << out;
    EXPECT_EQ(runTool("bvf_client", "ping --deadline-ms", out),
              kExitUsage);
    EXPECT_NE(out.find("requires a value"), std::string::npos) << out;
}

TEST(ExitTwo, ClientValidatesSubmitAndEvalArguments)
{
    std::string out;
    // All of these fail during argument validation, before any
    // connection attempt.
    EXPECT_EQ(runTool("bvf_client", "submit", out), kExitUsage);
    EXPECT_NE(out.find("submit needs exactly one kernel file"),
              std::string::npos)
        << out;
    EXPECT_EQ(runTool("bvf_client", "submit a.bvfk b.bvfk", out),
              kExitUsage);
    EXPECT_EQ(runTool("bvf_client", "eval", out), kExitUsage);
    EXPECT_NE(out.find("eval needs exactly one kernel digest"),
              std::string::npos)
        << out;
    EXPECT_EQ(runTool("bvf_client", "ping --eval", out), kExitUsage);
    EXPECT_NE(out.find("--eval only applies to the submit command"),
              std::string::npos)
        << out;
}

TEST(Client, RefusedConnectionRetriesThenGivesUp)
{
    // Bound but never listening: every connect is refused.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const int port = ntohs(addr.sin_port);

    std::string out;
    EXPECT_EQ(runTool("bvf_client",
                      strFormat("--port %d --retries 1 --backoff-ms 0 "
                                "ping",
                                port),
                      out),
              1)
        << out;
    EXPECT_NE(out.find("gave up after 2 attempt(s)"), std::string::npos)
        << out;
    ::close(fd);
}

TEST(Client, PipelinedPingsReachADaemonByHostName)
{
    server::ServerOptions options;
    options.workers = 2;
    server::Server daemon(options);
    ASSERT_TRUE(daemon.start().ok());

    std::string out;
    EXPECT_EQ(runTool("bvf_client",
                      strFormat("--host localhost --port %d ping 3",
                                daemon.port()),
                      out),
              0)
        << out;
    EXPECT_NE(out.find("3 ping(s) echoed in order"), std::string::npos)
        << out;
}

TEST(ExitTwo, LintValidatesVerifyAndJsonCombinations)
{
    std::string out;
    EXPECT_EQ(runTool("bvf_lint", "--json", out), kExitUsage);
    EXPECT_NE(out.find("--json requires --advise, --verify or "
                       "--optimize"),
              std::string::npos)
        << out;
    EXPECT_EQ(runTool("bvf_lint", "--json --advise --verify", out),
              kExitUsage);
    EXPECT_NE(out.find("pick one of --advise, --verify, --optimize"),
              std::string::npos)
        << out;
    EXPECT_EQ(runTool("bvf_lint", "--json --optimize --verify", out),
              kExitUsage);
    EXPECT_NE(out.find("pick one of --advise, --verify, --optimize"),
              std::string::npos)
        << out;
}

TEST(ExitTwo, AssemblerValidatesItsCommandLine)
{
    std::string out;
    EXPECT_EQ(runTool("bvf_asm", "", out), kExitUsage);
    EXPECT_EQ(runTool("bvf_asm", "frobnicate x", out), kExitUsage);
    EXPECT_NE(out.find("unknown command"), std::string::npos) << out;
    EXPECT_EQ(runTool("bvf_asm", "asm", out), kExitUsage);
    EXPECT_EQ(runTool("bvf_asm", "dump", out), kExitUsage);
}

} // namespace
} // namespace bvf::cli
