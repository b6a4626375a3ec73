#include "common/options.h"

#include <algorithm>

#include "common/strings.h"

namespace dpfs {

Result<Options> Options::Parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      opts.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      // "--" terminator: rest is positional.
      for (int j = i + 1; j < argc; ++j) opts.positional_.emplace_back(argv[j]);
      break;
    }
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      opts.flags_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
      continue;
    }
    // "--name value" if the next token is not itself a flag; else boolean.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      opts.flags_[std::string(arg)] = argv[++i];
    } else {
      opts.flags_[std::string(arg)] = "true";
    }
  }
  return opts;
}

bool Options::Has(const std::string& name) const {
  return flags_.contains(name);
}

std::string Options::GetString(const std::string& name,
                               const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Options::GetInt(const std::string& name,
                             std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const auto parsed = ParseInt64(it->second);
  return parsed.ok() ? parsed.value() : fallback;
}

double Options::GetDouble(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const auto parsed = ParseDouble(it->second);
  return parsed.ok() ? parsed.value() : fallback;
}

bool Options::GetBool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string lower = ToLower(it->second);
  return lower == "true" || lower == "1" || lower == "yes" || lower == "on";
}

Status Options::CheckFlags(const std::vector<Flag>& known) const {
  for (const auto& [name, value] : flags_) {
    const auto flag =
        std::find_if(known.begin(), known.end(),
                     [&name = name](const Flag& f) { return f.name == name; });
    if (flag == known.end()) {
      return InvalidArgumentError("unknown flag --" + name);
    }
    if (!flag->int_max.has_value()) continue;
    const Result<std::int64_t> parsed = ParseInt64(value);
    if (!parsed.ok() || parsed.value() < 0 ||
        parsed.value() > *flag->int_max) {
      return InvalidArgumentError("--" + name + " '" + value +
                                  "' is not a whole number in [0, " +
                                  std::to_string(*flag->int_max) + "]");
    }
  }
  return Status::Ok();
}

}  // namespace dpfs
