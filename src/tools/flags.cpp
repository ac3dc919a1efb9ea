#include "tools/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <utility>

namespace mrsc::tools {
namespace {

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    items.emplace_back(text.substr(start, comma - start));
    if (comma == std::string_view::npos) return items;
    start = comma + 1;
  }
}

std::optional<double> parse_number(const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used == text.size() && std::isfinite(value)) return value;
  } catch (const std::exception&) {
    // Not a number, or out of double range.
  }
  return std::nullopt;
}

std::string not_a(const std::string& text, const char* what) {
  return "'" + text + "' is not a " + what;
}

// Writes `text` into a value-taking target. Returns the reason it is
// malformed, or an empty string once it is stored.
std::string store(const FlagTarget& target, const std::string& text) {
  if (auto* const* out = std::get_if<std::string*>(&target)) {
    **out = text;
  } else if (auto* const* out = std::get_if<double*>(&target)) {
    const std::optional<double> value = parse_number(text);
    if (!value) return not_a(text, "finite number");
    **out = *value;
  } else if (auto* const* out = std::get_if<std::uint64_t*>(&target)) {
    const std::optional<std::uint64_t> value = parse_whole_number(text);
    if (!value) return not_a(text, "whole number");
    **out = *value;
  } else if (auto* const* out =
                 std::get_if<std::vector<std::string>*>(&target)) {
    **out = split_list(text);
  } else if (auto* const* out = std::get_if<std::vector<double>*>(&target)) {
    std::vector<double> values;
    for (const std::string& item : split_list(text)) {
      const std::optional<double> value = parse_number(item);
      if (!value) return not_a(item, "finite number");
      values.push_back(*value);
    }
    **out = std::move(values);
  }
  return {};
}

}  // namespace

std::optional<std::uint64_t> parse_whole_number(std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

std::optional<GivenFlags> parse_flags(const char* tool, int argc, char** argv,
                                      const std::vector<Flag>& table,
                                      std::vector<std::string>* positional) {
  GivenFlags given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (positional == nullptr) {
        std::fprintf(stderr, "%s: unexpected argument %s\n", tool,
                     arg.c_str());
        return std::nullopt;
      }
      positional->push_back(arg);
      continue;
    }
    const auto flag = std::find_if(
        table.begin(), table.end(),
        [&](const Flag& entry) { return arg == entry.name; });
    if (flag == table.end()) {
      std::fprintf(stderr, "%s: unknown option %s\n", tool, arg.c_str());
      return std::nullopt;
    }
    given.insert(arg);
    if (bool* const* on = std::get_if<bool*>(&flag->target)) {
      **on = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", tool, arg.c_str());
      return std::nullopt;
    }
    const std::string malformed = store(flag->target, argv[++i]);
    if (!malformed.empty()) {
      std::fprintf(stderr, "%s: %s: %s\n", tool, arg.c_str(),
                   malformed.c_str());
      return std::nullopt;
    }
  }
  return given;
}

}  // namespace mrsc::tools
