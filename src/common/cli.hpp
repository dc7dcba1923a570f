// cli.hpp — tiny flag parser for examples and bench harnesses.
//
// Supports `--name=value`, `--name value`, and boolean `--name` forms. Every
// bench binary accepts a common set of flags (seed, duration, csv output) so
// a user can resweep experiments without recompiling.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lvrm {

class Cli {
 public:
  /// Parses argv. Flags are looked up by name with the getters below;
  /// positional arguments are kept in positional().
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace lvrm
