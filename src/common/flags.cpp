#include "common/flags.hpp"

#include <cstdio>
#include <cstdlib>

namespace rms {
namespace {

[[noreturn]] void die(const std::string& msg, const std::string& usage) {
  std::fprintf(stderr, "error: %s\n%s", msg.c_str(), usage.c_str());
  std::exit(2);
}

/// Dies with the usage text unless the parse of `text` stopped at `end`,
/// the end of a non-empty string.
void require_number(const std::string& name, const std::string& text,
                    const char* end, const std::string& usage) {
  if (end == text.c_str() || *end != '\0') {
    die("--" + name + " expects a number, got '" + text + "'", usage);
  }
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             std::map<std::string, std::string> spec)
    : program_(argc > 0 ? argv[0] : "prog"), spec_(std::move(spec)) {
  spec_.emplace("help", "show this help");
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--flag value` form: consume the next token if it is not a flag and
      // the spec expects a value (heuristic: next token exists and does not
      // start with --).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (spec_.find(name) == spec_.end()) {
      die("unknown flag --" + name, usage());
    }
    values_[name] = value;
  }
  if (has("help")) {
    std::printf("%s", usage().c_str());
    std::exit(0);
  }
}

bool Flags::has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  require_number(name, it->second, end, usage());
  return v;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  require_number(name, it->second, end, usage());
  return v;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Flags::usage() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  for (const auto& [name, help] : spec_) {
    out += "  --" + name + ": " + help + "\n";
  }
  return out;
}

}  // namespace rms
