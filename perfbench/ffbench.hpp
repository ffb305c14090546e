#pragma once

// ffbench: the study benchmark's measuring binary. Each invocation does
// one thing in a fresh process — one study, or one set of layer probes —
// and prints one JSON object on stdout. perfbench/run.py composes the
// invocations into benchmark runs (see perfbench/README.md).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ffbench {

/// Flat, ordered JSON object of numbers and strings, printed on one line.
class JsonLine {
 public:
  void num(const std::string& key, double value);
  void str(const std::string& key, const std::string& value);
  /// Nested object, already rendered as JSON text.
  void raw(const std::string& key, const std::string& json);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct StudyArgs {
  std::string workload;      ///< a workload name of BENCHMARK.json
  std::uint64_t seed = 1;    ///< campaign seed
  std::uint32_t trials = 0;  ///< 0 = the workload's own trials per point
  std::size_t lanes = 0;     ///< 0 = the workload's own lane count
  bool trace = false;        ///< enable the recorder, emit per-layer data
  std::string report;        ///< where the report JSON is written
  std::string work_dir;      ///< scratch directory (journal lives here)
};

/// Runs one study and returns its JSON line (timings, outputs, health,
/// and with args.trace the per-layer breakdown).
std::string run_study(const StudyArgs& args);

/// Runs every layer probe and returns its JSON line. `tiny` shrinks the
/// operation counts for the self-test.
std::string run_probes(bool tiny);

}  // namespace ffbench
