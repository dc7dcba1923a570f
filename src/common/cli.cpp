#include "common/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace lvrm {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) {  // bare "--": everything after is positional
      for (int j = i + 1; j < argc; ++j) positional_.push_back(argv[j]);
      break;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" when the next token is not itself a flag; otherwise a
    // boolean "--name".
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::optional<std::string> Cli::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  const auto v = get(name);
  return v && !v->empty() ? *v : fallback;
}

void Cli::reject(const std::string& name, const std::string& value,
                 const char* what) const {
  std::cerr << program_ << ": --" << name << " must be " << what << ", got '"
            << value << "'\n";
  std::exit(2);
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t n = std::strtoll(v->c_str(), &end, 10);
  if (std::isspace(static_cast<unsigned char>(v->front())) || *end != '\0' ||
      errno == ERANGE)
    reject(name, *v, "an integer");
  return n;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  const double x = std::strtod(v->c_str(), &end);
  if (std::isspace(static_cast<unsigned char>(v->front())) || *end != '\0' ||
      !std::isfinite(x))
    reject(name, *v, "a number");
  return x;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (v->empty() || *v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  reject(name, *v, "true/1/yes or false/0/no");
}

}  // namespace lvrm
