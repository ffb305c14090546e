// ffbench entry point.
//
//   ffbench study --workload NAME --seed N --report FILE --work-dir DIR
//                 [--trials T] [--lanes L] [--trace]
//   ffbench probes [--tiny]
//   ffbench host
//
// Every subcommand prints one JSON object on one line and exits 0; any
// error prints a message on stderr and exits 1.

#include "ffbench.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>

namespace ffbench {

namespace {

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void JsonLine::num(const std::string& key, double value) {
  if (!std::isfinite(value)) throw std::domain_error("non-finite value for " + key);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields_.emplace_back(key, buf);
}

void JsonLine::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
}

void JsonLine::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string JsonLine::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace ffbench

namespace {

std::string host_line() {
  ffbench::JsonLine line;
#if defined(__clang__)
  line.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  line.str("compiler", std::string("gcc ") + __VERSION__);
#else
  line.str("compiler", "unknown");
#endif
  line.str("build_type", FFBENCH_BUILD_TYPE);
#if defined(__OPTIMIZE__)
  line.num("optimized", 1);
#else
  line.num("optimized", 0);
#endif
#if defined(NDEBUG)
  line.num("ndebug", 1);
#else
  line.num("ndebug", 0);
#endif
  return line.render();
}

/// `--key value` and bare `--flag` arguments after the subcommand.
std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + arg);
    }
    const std::string key = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "";
    }
  }
  return flags;
}

std::string required(const std::map<std::string, std::string>& flags,
                     const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end() || it->second.empty()) {
    throw std::invalid_argument("missing --" + key);
  }
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: ffbench study|probes|host");
    const std::string command = argv[1];
    const auto flags = parse_flags(argc, argv);
    std::string out;
    if (command == "study") {
      ffbench::StudyArgs args;
      args.workload = required(flags, "workload");
      args.seed = std::strtoull(required(flags, "seed").c_str(), nullptr, 10);
      if (flags.count("trials")) {
        args.trials = static_cast<std::uint32_t>(
            std::strtoul(required(flags, "trials").c_str(), nullptr, 10));
        if (args.trials == 0) throw std::invalid_argument("--trials must be >= 1");
      }
      if (flags.count("lanes")) {
        args.lanes = std::strtoul(required(flags, "lanes").c_str(), nullptr, 10);
      }
      args.trace = flags.count("trace") != 0;
      args.report = required(flags, "report");
      args.work_dir = required(flags, "work-dir");
      out = ffbench::run_study(args);
    } else if (command == "probes") {
      out = ffbench::run_probes(flags.count("tiny") != 0);
    } else if (command == "host") {
      out = host_line();
    } else {
      throw std::invalid_argument("unknown subcommand: " + command);
    }
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ffbench: %s\n", e.what());
    return 1;
  }
}
