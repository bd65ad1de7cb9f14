// Tiny command-line flag parser for the bench / example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags, and numeric flags whose value is not a number, abort with a usage
// message so experiment typos never silently run the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rms {

class Flags {
 public:
  /// Parse argv. `spec` maps flag name -> help text; only flags in the spec
  /// are accepted.
  Flags(int argc, const char* const* argv,
        std::map<std::string, std::string> spec);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The flag's value as a number; exits 2 with the usage text when it is
  /// not one ("abc", "2x", "").
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Render the usage text built from the spec.
  std::string usage() const;

 private:
  std::string program_;
  std::map<std::string, std::string> spec_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace rms
