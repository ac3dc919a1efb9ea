// The command-line flag table shared by the mrsc CLIs.
//
// Each CLI lists its flags as {name, typed target} entries and makes one
// parse_flags() call. The target's type fixes the value syntax:
//
//   bool                      a switch; takes no value
//   std::string               the next argument, verbatim
//   double                    a finite decimal number ("1e-3", "-5")
//   std::uint64_t             a non-negative decimal whole number ("42")
//   std::vector<std::string>  comma-separated items
//   std::vector<double>       comma-separated finite numbers
//
// Every comma separates two items, so "a," is {"a", ""}: a trailing comma
// leaves an empty last item for the flag's own check to reject instead of
// dropping it silently.
//
// Range and cross-flag checks (">= 1", a choice of modes, one input source)
// stay in each CLI, after the call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace mrsc::tools {

// Counts held in std::size_t fields bind as std::uint64_t targets.
static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "flag targets assume std::size_t is std::uint64_t");

using FlagTarget =
    std::variant<bool*, std::string*, double*, std::uint64_t*,
                 std::vector<std::string>*, std::vector<double>*>;

struct Flag {
  const char* name;  ///< "--t-end"
  FlagTarget target;
};

/// The names of the flags a command line gave, so a CLI can let scenario
/// budgets fill only the values the user did not set.
using GivenFlags = std::set<std::string, std::less<>>;

/// Parses argv[1..argc) against `table`, writing each value into its
/// target. Arguments that do not start with '-' are appended to
/// `positional`; a CLI that takes none passes nullptr. A missing value, an
/// unknown option, a malformed value or a stray argument prints exactly one
/// "tool: ..." line to stderr and returns nullopt.
[[nodiscard]] std::optional<GivenFlags> parse_flags(
    const char* tool, int argc, char** argv, const std::vector<Flag>& table,
    std::vector<std::string>* positional);

/// `text` as a non-negative decimal whole number; nullopt for a sign,
/// whitespace, any other character, or a value above 2^64 - 1.
[[nodiscard]] std::optional<std::uint64_t> parse_whole_number(
    std::string_view text);

}  // namespace mrsc::tools
