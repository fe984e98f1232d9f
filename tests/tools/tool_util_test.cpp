/**
 * @file
 * The command-line parser shared by the tools: options must be among
 * the tool's declared flags, numeric options accept only wholly
 * numeric values, counts only non-negative ones, negative numbers are
 * values rather than flags, and a malformed command line becomes exit
 * code 2 through runTool().
 */

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/tool_util.h"

namespace
{

using eddie::tools::Args;
using eddie::tools::runTool;
using eddie::tools::UsageError;

/** Parses @p words with every "--name" among them declared, so the
 *  value-parsing tests are not about flag declaration. */
Args
parse(std::vector<std::string> words)
{
    std::vector<std::string> flags;
    for (const std::string &w : words)
        if (w.rfind("--", 0) == 0)
            flags.push_back(w.substr(2));
    words.insert(words.begin(), "tool");
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    return Args(int(argv.size()), argv.data(), flags);
}

TEST(ToolArgs, UndeclaredFlagIsAUsageError)
{
    std::vector<std::string> words = {"tool", "sha", "--scale", "0.5",
                                      "--sacle", "0.1"};
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    const std::vector<std::string> flags = {"scale", "seed"};
    EXPECT_THROW(Args(int(argv.size()), argv.data(), flags), UsageError);
    // The declared subset parses.
    const Args ok(4, argv.data(), flags);
    EXPECT_DOUBLE_EQ(ok.getDouble("scale", 1.0), 0.5);
    testing::internal::CaptureStderr();
    EXPECT_EQ(runTool("tool",
                      [&] {
                          Args(int(argv.size()), argv.data(), flags);
                          return 0;
                      }),
              2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown option --sacle"), std::string::npos)
        << err;
}

TEST(ToolArgs, ParsesWhollyNumericValues)
{
    const Args a = parse({"--threads", "4", "--scale", "0.25", "--snr",
                          "-3.5", "--offset", "-5", "--tiny", "-.5",
                          "--big", "1e3"});
    EXPECT_EQ(a.getLong("threads", 0), 4);
    EXPECT_DOUBLE_EQ(a.getDouble("scale", 1.0), 0.25);
    EXPECT_DOUBLE_EQ(a.getDouble("snr", 0.0), -3.5);
    EXPECT_EQ(a.getLong("offset", 0), -5);
    EXPECT_DOUBLE_EQ(a.getDouble("tiny", 0.0), -0.5);
    EXPECT_DOUBLE_EQ(a.getDouble("big", 0.0), 1000.0);
    EXPECT_TRUE(a.positional().empty());
}

TEST(ToolArgs, AbsentOptionsFallBack)
{
    const Args a = parse({"sha"});
    EXPECT_EQ(a.getLong("threads", 7), 7);
    EXPECT_DOUBLE_EQ(a.getDouble("scale", 0.5), 0.5);
    ASSERT_EQ(a.positional().size(), 1u);
    EXPECT_EQ(a.positional()[0], "sha");
}

TEST(ToolArgs, RejectsValuesThatAreNotWhollyNumeric)
{
    const Args a = parse({"--threads", "4x", "--scale", "abc", "--seed",
                          "1.5", "--runs", " 3", "--snr", "nan",
                          "--gain", "inf", "--huge",
                          "99999999999999999999999"});
    EXPECT_THROW(a.getLong("threads", 0), UsageError);
    EXPECT_THROW(a.getDouble("scale", 1.0), UsageError);
    EXPECT_THROW(a.getLong("seed", 0), UsageError);
    EXPECT_THROW(a.getLong("runs", 0), UsageError);
    EXPECT_THROW(a.getDouble("snr", 0.0), UsageError);
    EXPECT_THROW(a.getDouble("gain", 0.0), UsageError);
    EXPECT_THROW(a.getLong("huge", 0), UsageError);
}

TEST(ToolArgs, CountsRejectNegativeValues)
{
    const Args a = parse({"--runs", "3", "--threads", "0", "--retries",
                          "-1", "--payload", "-5", "--batch", "x",
                          "--seed", "-3"});
    EXPECT_EQ(a.getCount("runs", 8), 3u);
    EXPECT_EQ(a.getCount("threads", 4), 0u);
    EXPECT_EQ(a.getCount("shards", 2), 2u); // absent: the fallback
    // A negative count is refused, not wrapped to 2^64 - k.
    EXPECT_THROW(a.getCount("retries", 8), UsageError);
    EXPECT_THROW(a.getCount("payload", 8), UsageError);
    EXPECT_THROW(a.getCount("batch", 32), UsageError);
    // Seeds are not counts: a negative one stays a valid value.
    EXPECT_EQ(a.getLong("seed", 42), -3);
    testing::internal::CaptureStderr();
    EXPECT_EQ(runTool("tool",
                      [&] { return int(a.getCount("retries", 8)); }),
              2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--retries: '-1' is not a count"),
              std::string::npos)
        << err;
}

TEST(ToolArgs, NumericOptionWithoutValueIsAnError)
{
    // "--threads" is followed by another flag, so it has no value.
    const Args a = parse({"--threads", "--verbose"});
    EXPECT_TRUE(a.has("threads"));
    EXPECT_TRUE(a.has("verbose"));
    EXPECT_THROW(a.getLong("threads", 0), UsageError);
}

TEST(ToolArgs, DashWordsThatAreNotNumbersStayFlags)
{
    const Args a = parse({"--inject", "-x", "--mode", "-", "pos"});
    EXPECT_EQ(a.get("inject", "unset"), "");
    EXPECT_TRUE(a.has("inject"));
    EXPECT_EQ(a.get("mode", "unset"), "");
    ASSERT_EQ(a.positional().size(), 3u);
    EXPECT_EQ(a.positional()[0], "-x");
    EXPECT_EQ(a.positional()[1], "-");
    EXPECT_EQ(a.positional()[2], "pos");
}

TEST(ToolArgs, RunToolMapsUsageErrorsToExitTwo)
{
    testing::internal::CaptureStderr();
    const Args a = parse({"--threads", "4x"});
    EXPECT_EQ(runTool("tool", [&] { return int(a.getLong("threads", 0)); }),
              2);
    EXPECT_EQ(runTool("tool", []() -> int {
                  throw std::runtime_error("boom");
              }),
              1);
    EXPECT_EQ(runTool("tool", [] { return 0; }), 0);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("tool: usage error: --threads: '4x'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("tool: error: boom"), std::string::npos) << err;
}

} // namespace
