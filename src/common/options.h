// Tiny command-line flag parser used by examples and benchmark binaries.
// Supports --name=value, --name value, and boolean --name.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpfs {

class Options {
 public:
  /// Parses argv; unknown flags are kept and queryable, positional arguments
  /// are collected in order. Returns an error only on malformed input
  /// (e.g. "--" followed by nothing).
  static Result<Options> Parse(int argc, const char* const* argv);

  [[nodiscard]] bool Has(const std::string& name) const;
  [[nodiscard]] std::string GetString(const std::string& name,
                                      const std::string& fallback) const;
  [[nodiscard]] std::int64_t GetInt(const std::string& name,
                                    std::int64_t fallback) const;
  [[nodiscard]] double GetDouble(const std::string& name,
                                 double fallback) const;
  [[nodiscard]] bool GetBool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// A flag a program reads. An integer flag names the largest value its
  /// field holds, and its value must be a whole number in [0, int_max];
  /// other flags leave int_max unset.
  struct Flag {
    std::string name;
    std::optional<std::int64_t> int_max = std::nullopt;
  };

  /// kInvalidArgument naming the first flag given that is not in `known`,
  /// or whose integer value does not parse or does not fit; Ok otherwise.
  /// The tools call it before they open anything, so a misspelled or
  /// retired flag stops them instead of being ignored.
  [[nodiscard]] Status CheckFlags(const std::vector<Flag>& known) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace dpfs
