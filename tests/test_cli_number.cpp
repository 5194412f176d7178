/**
 * @file
 * Strict numeric command-line values (common/cli_number.hpp): the
 * tokens the CLIs used to cast silently — negatives into unsigned
 * counts, out-of-range ports, garbage and trailing junk — are refused
 * with the target untouched, and in-range plain numbers pass through
 * exactly.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/cli_number.hpp"

using namespace eftvqa;

namespace {

/** Sentinel targets: a refused token must leave them as they are. */
constexpr size_t kCountSentinel = 7;
constexpr double kMsSentinel = 42.0;

bool
countRefused(const char *token, size_t lo = 0, size_t hi = 4096)
{
    size_t out = kCountSentinel;
    return !parseNumber(token, out, lo, hi) && out == kCountSentinel;
}

bool
msRefused(const char *token)
{
    double out = kMsSentinel;
    return !parseNumber(token, out, 0.0, 1e9) && out == kMsSentinel;
}

} // namespace

TEST(CliNumber, AcceptsPlainInRangeValues)
{
    size_t count = kCountSentinel;
    EXPECT_TRUE(parseNumber("0", count, 0, 4096));
    EXPECT_EQ(count, 0u);
    EXPECT_TRUE(parseNumber("4096", count, 0, 4096));
    EXPECT_EQ(count, 4096u);
    uint16_t port = 0;
    EXPECT_TRUE(parseNumber("65535", port, 0, 65535));
    EXPECT_EQ(port, 65535u);
    double ms = kMsSentinel;
    EXPECT_TRUE(parseNumber("600000", ms, 0.0, 1e9));
    EXPECT_EQ(ms, 600000.0);
    EXPECT_TRUE(parseNumber("2.5", ms, 0.0, 1e9));
    EXPECT_EQ(ms, 2.5);
    EXPECT_TRUE(parseNumber("1e3", ms, 0.0, 1e9));
    EXPECT_EQ(ms, 1000.0);
}

TEST(CliNumber, RejectsNegativeTokens)
{
    // atoll("-1") cast to size_t was SIZE_MAX workers.
    EXPECT_TRUE(countRefused("-1"));
    uint16_t port = 9;
    EXPECT_FALSE(parseNumber("-1", port, 0, 65535));
    EXPECT_EQ(port, 9u);
    EXPECT_TRUE(msRefused("-0.5"));
}

TEST(CliNumber, RejectsGarbageAndEmptyTokens)
{
    // atoll("abc") was a silent 0.
    for (const char *token : {"abc", "", " 4", "+4", "0x10", "nan"}) {
        EXPECT_TRUE(countRefused(token)) << "'" << token << "'";
        EXPECT_TRUE(msRefused(token)) << "'" << token << "'";
    }
}

TEST(CliNumber, RejectsTrailingJunk)
{
    for (const char *token : {"4x", "4 ", "12ms", "1.5.2", "8,"}) {
        EXPECT_TRUE(countRefused(token)) << "'" << token << "'";
        EXPECT_TRUE(msRefused(token)) << "'" << token << "'";
    }
}

TEST(CliNumber, RejectsOutOfRangeTokens)
{
    // A uint16_t cast turned port 70000 into 4464.
    uint16_t port = 9;
    EXPECT_FALSE(parseNumber("70000", port, 0, 65535));
    EXPECT_EQ(port, 9u);
    EXPECT_TRUE(countRefused("4097"));
    EXPECT_TRUE(countRefused("0", 1, 64));
    EXPECT_TRUE(countRefused("99999999999999999999999", 0,
                             std::numeric_limits<size_t>::max()));
    EXPECT_TRUE(msRefused("1e10"));
    EXPECT_TRUE(msRefused("inf"));
}
