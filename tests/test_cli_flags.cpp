// The flag table every CLI parses its command line with (tools/flags.hpp):
// the value syntax of each target type, the one-line usage messages, and
// the record of which flags a command line gave.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tools/flags.hpp"

namespace {

using namespace mrsc;

struct Options {
  bool on = false;
  std::string text = "default";
  double number = 1.5;
  std::uint64_t whole = 7;
  std::vector<std::string> names;
  std::vector<double> numbers;

  std::vector<tools::Flag> table() {
    return {{"--on", &on},         {"--text", &text},
            {"--number", &number}, {"--whole", &whole},
            {"--names", &names},   {"--numbers", &numbers}};
  }
};

struct Parsed {
  std::optional<tools::GivenFlags> given;
  std::string stderr_text;
};

// Parses `args` as the arguments after argv[0] and captures what the
// parser prints to stderr.
Parsed parse(Options& options, std::vector<std::string> args,
             std::vector<std::string>* positional = nullptr) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  testing::internal::CaptureStderr();
  Parsed parsed;
  parsed.given =
      tools::parse_flags("tool", static_cast<int>(argv.size()), argv.data(),
                         options.table(), positional);
  parsed.stderr_text = testing::internal::GetCapturedStderr();
  return parsed;
}

// The single stderr line a rejected value produces.
std::string rejection(const char* flag, const std::string& value,
                      const char* what) {
  return std::string("tool: ") + flag + ": '" + value + "' is not a " + what +
         "\n";
}

TEST(CliFlags, StoresEveryTargetType) {
  Options options;
  const Parsed parsed =
      parse(options, {"--on", "--text", "hi", "--number", "-2.5e-1",
                      "--whole", "42", "--names", "a,b", "--numbers",
                      "1,2.5"});
  ASSERT_TRUE(parsed.given);
  EXPECT_EQ(parsed.stderr_text, "");
  EXPECT_TRUE(options.on);
  EXPECT_EQ(options.text, "hi");
  EXPECT_EQ(options.number, -0.25);
  EXPECT_EQ(options.whole, 42u);
  EXPECT_EQ(options.names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(options.numbers, (std::vector<double>{1.0, 2.5}));
}

TEST(CliFlags, RecordsOnlyTheFlagsGiven) {
  Options options;
  const Parsed parsed = parse(options, {"--number", "3", "--on"});
  ASSERT_TRUE(parsed.given);
  EXPECT_EQ(*parsed.given, (tools::GivenFlags{"--number", "--on"}));
  EXPECT_TRUE(parsed.given->contains("--number"));
  EXPECT_FALSE(parsed.given->contains("--whole"));
  // A flag that was not given keeps its default, which is how a scenario
  // budget can still fill it.
  EXPECT_EQ(options.whole, 7u);
  EXPECT_EQ(options.text, "default");
}

TEST(CliFlags, LaterValueReplacesEarlierOne) {
  Options options;
  ASSERT_TRUE(parse(options, {"--text", "a", "--names", "x,y", "--text", "b",
                              "--names", "z"})
                  .given);
  EXPECT_EQ(options.text, "b");
  EXPECT_EQ(options.names, (std::vector<std::string>{"z"}));
}

TEST(CliFlags, UnknownOptionIsOneLine) {
  const std::vector<std::vector<std::string>> cases = {
      {"--banana"}, {"--banana", "1"}, {"--on", "--banana"}, {"-x"}};
  for (const std::vector<std::string>& args : cases) {
    Options options;
    const Parsed parsed = parse(options, args);
    EXPECT_FALSE(parsed.given);
    const std::string& unknown = args.front() == "--on" ? args.back()
                                                        : args.front();
    EXPECT_EQ(parsed.stderr_text, "tool: unknown option " + unknown + "\n");
  }
}

TEST(CliFlags, MissingValueIsOneLine) {
  Options options;
  const Parsed parsed = parse(options, {"--on", "--number"});
  EXPECT_FALSE(parsed.given);
  EXPECT_EQ(parsed.stderr_text, "tool: --number needs a value\n");
}

TEST(CliFlags, ValueMayStartWithADash) {
  Options options;
  ASSERT_TRUE(parse(options, {"--number", "-5", "--text", "--on"}).given);
  EXPECT_EQ(options.number, -5.0);
  EXPECT_EQ(options.text, "--on");
  EXPECT_FALSE(options.on);
}

TEST(CliFlags, MalformedNumberIsOneLine) {
  for (const std::string value : {"banana", "1.5x", "", "1,2"}) {
    Options options;
    const Parsed parsed = parse(options, {"--number", value});
    EXPECT_FALSE(parsed.given) << value;
    EXPECT_EQ(parsed.stderr_text,
              rejection("--number", value, "finite number"));
    EXPECT_EQ(options.number, 1.5);
  }
}

TEST(CliFlags, NonFiniteNumbersAreRejected) {
  for (const std::string value :
       {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    Options options;
    const Parsed parsed = parse(options, {"--number", value});
    EXPECT_FALSE(parsed.given) << value;
    EXPECT_EQ(parsed.stderr_text,
              rejection("--number", value, "finite number"));
  }
  Options options;
  const Parsed parsed = parse(options, {"--numbers", "1,nan,2"});
  EXPECT_FALSE(parsed.given);
  EXPECT_EQ(parsed.stderr_text,
            rejection("--numbers", "nan", "finite number"));
  EXPECT_TRUE(options.numbers.empty());
}

TEST(CliFlags, WholeNumbersAreNonNegativeDecimals) {
  for (const std::string value :
       {"-1", "-0", "+1", " 1", "1 ", "1.0", "1e3", "0x10", "", "banana",
        "18446744073709551616"}) {
    Options options;
    const Parsed parsed = parse(options, {"--whole", value});
    EXPECT_FALSE(parsed.given) << value;
    EXPECT_EQ(parsed.stderr_text,
              rejection("--whole", value, "whole number"));
    EXPECT_EQ(options.whole, 7u);
  }
  Options options;
  ASSERT_TRUE(parse(options, {"--whole", "18446744073709551615"}).given);
  EXPECT_EQ(options.whole, UINT64_MAX);
  ASSERT_TRUE(parse(options, {"--whole", "007"}).given);
  EXPECT_EQ(options.whole, 7u);
}

TEST(CliFlags, ParseWholeNumberMatchesTheFlagSyntax) {
  EXPECT_EQ(tools::parse_whole_number("65535"), 65535u);
  EXPECT_EQ(tools::parse_whole_number("0"), 0u);
  EXPECT_FALSE(tools::parse_whole_number("-1"));
  EXPECT_FALSE(tools::parse_whole_number(""));
  EXPECT_FALSE(tools::parse_whole_number("80a"));
}

TEST(CliFlags, ListsSplitOnEveryComma) {
  Options options;
  ASSERT_TRUE(parse(options, {"--names", "a,,b", "--numbers", "3"}).given);
  EXPECT_EQ(options.names, (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(options.numbers, (std::vector<double>{3.0}));
}

// The one trailing-comma rule for every CLI: the comma still separates two
// items, so the empty last item reaches the flag's own check.
TEST(CliFlags, TrailingCommaKeepsAnEmptyLastItem) {
  Options options;
  ASSERT_TRUE(parse(options, {"--names", "a,"}).given);
  EXPECT_EQ(options.names, (std::vector<std::string>{"a", ""}));
  ASSERT_TRUE(parse(options, {"--names", ""}).given);
  EXPECT_EQ(options.names, (std::vector<std::string>{""}));

  const Parsed parsed = parse(options, {"--numbers", "1,"});
  EXPECT_FALSE(parsed.given);
  EXPECT_EQ(parsed.stderr_text, rejection("--numbers", "", "finite number"));
}

TEST(CliFlags, PositionalArgumentsGoToTheCaller) {
  Options options;
  std::vector<std::string> positional;
  ASSERT_TRUE(
      parse(options, {"a.crn", "--on", "b.crn"}, &positional).given);
  EXPECT_EQ(positional, (std::vector<std::string>{"a.crn", "b.crn"}));
  EXPECT_TRUE(options.on);
}

TEST(CliFlags, StrayArgumentIsOneLineWithoutPositionals) {
  Options options;
  const Parsed parsed = parse(options, {"--on", "a.crn"});
  EXPECT_FALSE(parsed.given);
  EXPECT_EQ(parsed.stderr_text, "tool: unexpected argument a.crn\n");
}

}  // namespace
