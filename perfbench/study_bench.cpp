// One study through the public StudyDriver API, timed from outside the
// engine. With --trace the telemetry recorder is on, the benchmark adds
// its own spans around the calls it makes into each layer, and the
// recorded spans are reduced to the per-layer metrics of BENCHMARK.json.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/registry.hpp"
#include "core/export.hpp"
#include "core/study.hpp"
#include "ffbench.hpp"
#include "inject/fault_model.hpp"
#include "telemetry/recorder.hpp"

namespace ffbench {

namespace core = fastfit::core;
namespace tel = fastfit::telemetry;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A study workload: one fixed configuration of the public options. This
/// table is the only place that sets lanes and trials per point; every
/// study reports both on its JSON line.
struct WorkloadSpec {
  const char* name;
  const char* app;     ///< apps::make_workload name, default config
  int nranks;
  bool use_ml;  ///< run the ML stage over the whole point set
  std::size_t lanes;
  std::uint32_t trials;      ///< trials per injection point
  const char* fault_models;  ///< empty = the default single-bit-flip
  core::IsolationMode isolation;
  bool journal;
};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {"lu128-replay", "LU", 128, false, 1, 6, "",
       core::IsolationMode::Thread, false},
      {"minimd32-ml", "miniMD", 32, true, 2, 3, "",
       core::IsolationMode::Thread, false},
      {"cg32-faults-proc", "CG", 32, false, 2, 6,
       "single-bit-flip,message-drop,rank-death,sigsegv",
       core::IsolationMode::Process, true},
  };
  return all;
}

const WorkloadSpec& find_spec(const std::string& name) {
  for (const auto& spec : specs()) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

struct Usage {
  double cpu_s = 0;
  double peak_rss_mb = 0;
};

/// Peak resident set of this process image in KiB (VmHWM). The kernel
/// carries ru_maxrss across execve, so RUSAGE_SELF would report the
/// launcher's footprint when that was larger.
long self_peak_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return self.ru_maxrss;
}

/// User + sys of this process and its reaped children; the larger of the
/// two peak resident set sizes.
Usage read_usage() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  Usage u;
  u.cpu_s = secs(self.ru_utime) + secs(self.ru_stime) +
            secs(children.ru_utime) + secs(children.ru_stime);
  u.peak_rss_mb =
      static_cast<double>(std::max(self_peak_kib(), children.ru_maxrss)) / 1024.0;
  return u;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// ---------------------------------------------------------------- trace

/// A recorded span with its self time: duration minus the part of its
/// interval covered by the spans nested directly inside it.
struct Span {
  std::string_view name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::string_view args;
  std::int64_t covered = 0;
  std::int64_t cover_until = 0;
  std::int64_t dur() const { return end - start; }
  std::int64_t self() const { return dur() - covered; }
};

/// Spans of one thread's timeline, nested by interval containment.
struct Timeline {
  std::vector<Span> spans;
  std::size_t violations = 0;  ///< spans that overlap a parent partially

  void nest() {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Span& s = spans[i];
      while (!stack.empty() && spans[stack.back()].end <= s.start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        Span& p = spans[stack.back()];
        if (s.end > p.end) ++violations;
        const std::int64_t from = std::max(s.start, p.cover_until);
        const std::int64_t to = std::min(s.end, p.end);
        if (to > from) {
          p.covered += to - from;
          p.cover_until = to;
        }
      }
      s.cover_until = s.start;
      stack.push_back(i);
    }
  }
};

/// Which repository layer a span's self time belongs to.
const char* layer_of(std::string_view name) {
  if (name == "golden-run") return "apps";
  if (name == "profiling-run") return "profile";
  if (name == "world-run") return "minimpi";
  if (name == "classify") return "inject";
  if (name.rfind("ml-", 0) == 0) return "ml";
  if (name == "journal-fsync") return "journal";
  if (name.rfind("bench-", 0) == 0 && name != "bench-report") return "bench";
  return "core";
}

/// Reduces the drained events of one traced study to per-layer values.
/// Only the main thread (Main + MlLoop tracks), the executor lanes and
/// the journal track are read: rank-main spans of concurrent worlds share
/// rank tracks and do not nest, and queue-wait starts at submission, so
/// it overlaps the lane's previous trial.
void reduce_trace(const std::vector<tel::Event>& events, JsonLine& layers,
                  JsonLine& check, JsonLine& breakdown) {
  Timeline main;
  std::map<int, Timeline> lanes;
  Timeline journal;
  for (const auto& e : events) {
    if (e.dur_us < 0) continue;
    const std::string_view name = e.name;
    if (name == "queue-wait") continue;
    Span span{name, e.start_us, e.start_us + e.dur_us, e.args};
    switch (e.track) {
      case tel::Track::Main:
      case tel::Track::MlLoop:
        main.spans.push_back(span);
        break;
      case tel::Track::Executor:
        lanes[e.index].spans.push_back(span);
        break;
      case tel::Track::Journal:
        journal.spans.push_back(span);
        break;
      default:
        break;
    }
  }
  main.nest();
  journal.nest();
  std::size_t violations = main.violations + journal.violations;
  for (auto& [index, lane] : lanes) {
    lane.nest();
    violations += lane.violations;
  }

  // Every span of every read timeline, for the per-name statistics.
  std::vector<const Span*> all;
  for (const auto& s : main.spans) all.push_back(&s);
  for (const auto& [index, lane] : lanes) {
    for (const auto& s : lane.spans) all.push_back(&s);
  }
  for (const auto& s : journal.spans) all.push_back(&s);

  const auto durs = [&](std::string_view name) {
    std::vector<double> out;
    for (const Span* s : all) {
      if (s->name == name) out.push_back(static_cast<double>(s->dur()));
    }
    return out;
  };
  const auto selfs = [&](std::string_view name) {
    std::vector<double> out;
    for (const Span* s : all) {
      if (s->name == name) out.push_back(static_cast<double>(s->self()));
    }
    return out;
  };
  const auto sum = [](const std::vector<double>& v) {
    double total = 0;
    for (const double x : v) total += x;
    return total;
  };

  layers.num("apps.golden_ms", sum(durs("golden-run")) / 1e3);
  layers.num("profile.profiling_run_ms", sum(durs("profiling-run")) / 1e3);
  layers.num("core.enumerate_ms", sum(durs("enumerate-points")) / 1e3);
  layers.num("core.snapshot.build_ms", sum(selfs("snapshot-build")) / 1e3);
  layers.num("core.snapshot.clone_us_p50",
             percentile(selfs("snapshot-clone"), 0.5));
  const auto world = durs("world-run");
  layers.num("minimpi.world_run_ms_p50", percentile(world, 0.5) / 1e3);
  layers.num("minimpi.world_run_ms_p95", percentile(world, 0.95) / 1e3);
  const auto trials = durs("trial");
  layers.num("core.trial_ms_p50", percentile(trials, 0.5) / 1e3);
  layers.num("core.trial_ms_p95", percentile(trials, 0.95) / 1e3);
  const double measure_us = sum(durs("measure-batch"));
  layers.num("core.measure_s", measure_us / 1e6);
  layers.num("inject.classify_us_p50", percentile(durs("classify"), 0.5));
  std::vector<double> hung;
  for (const Span* s : all) {
    if (s->name == "trial" &&
        s->args.find("outcome=INF_LOOP") != std::string_view::npos) {
      hung.push_back(static_cast<double>(s->dur()));
    }
  }
  layers.num("inject.inf_loop_trial_ms_p50", percentile(hung, 0.5) / 1e3);
  layers.num("core.procpool.dispatch_ms_p50",
             percentile(durs("worker-dispatch"), 0.5) / 1e3);
  const auto fsync = durs("journal-fsync");
  layers.num("core.journal.fsync_ms", sum(fsync) / 1e3);
  layers.num("core.journal.fsync_batches", static_cast<double>(fsync.size()));
  layers.num("ml.train_ms", sum(durs("ml-train")) / 1e3);
  layers.num("ml.verify_s", sum(durs("ml-verify")) / 1e6);
  layers.num("core.report_ms", sum(durs("bench-report")) / 1e3);
  // Lane occupancy: a serial campaign runs its trials on the main thread.
  const double lane_count = lanes.empty() ? 1.0 : static_cast<double>(lanes.size());
  layers.num("core.scheduler.lane_busy_frac",
             measure_us > 0 ? sum(trials) / (lane_count * measure_us) : 0.0);

  // Accounting: on the main thread, the self times of the layers' spans
  // plus the benchmark's own uncovered time make up the study span.
  const Span* study = nullptr;
  for (const auto& s : main.spans) {
    if (s.name == "bench-study") study = &s;
  }
  if (study == nullptr) throw std::runtime_error("trace lost the study span");
  std::map<std::string, double> by_layer;
  for (const auto& s : main.spans) {
    if (s.start < study->start || s.end > study->end) continue;
    by_layer[layer_of(s.name)] += static_cast<double>(s.self());
  }
  const double study_us = static_cast<double>(study->dur());
  for (const auto& [layer, us] : by_layer) breakdown.num(layer, us / 1e3);
  // Where the lanes' time goes when trials run off the main thread.
  std::map<std::string, double> lane_layers;
  for (const auto& [index, lane] : lanes) {
    for (const auto& s : lane.spans) {
      lane_layers[layer_of(s.name)] += static_cast<double>(s.self());
    }
  }
  for (const auto& [layer, us] : lane_layers) breakdown.num("lanes." + layer, us / 1e3);
  check.num("unattributed_frac", by_layer["bench"] / study_us);
  check.num("nesting_violations", static_cast<double>(violations));
}

}  // namespace

std::string run_study(const StudyArgs& args) {
  const WorkloadSpec& spec = find_spec(args.workload);
  const std::uint32_t trials = args.trials ? args.trials : spec.trials;
  const std::size_t lanes = args.lanes ? args.lanes : spec.lanes;
  const auto workload = fastfit::apps::make_workload(spec.app);

  core::StudyOptions options;
  options.campaign.nranks = spec.nranks;
  options.campaign.seed = args.seed;
  options.campaign.trials_per_point = trials;
  options.campaign.max_parallel_trials = lanes;
  options.campaign.isolation = spec.isolation;
  if (*spec.fault_models) {
    options.campaign.fault_models =
        fastfit::inject::parse_fault_models(spec.fault_models);
  }
  options.use_ml = spec.use_ml;
  // An accuracy target above 1 is never reached, so the feedback loop
  // trains and verifies on every batch until the point set is exhausted.
  // With the default target the stopping round, and with it the number
  // and cost of the measured points, depends on the seed (0.8 s to 2.8 s
  // per study across five seeds on a 4-vCPU Xeon host), which no
  // regression bound could hold.
  options.ml.accuracy_threshold = 2.0;
  if (spec.journal) {
    std::filesystem::create_directories(args.work_dir);
    options.journal = (std::filesystem::path(args.work_dir) / "study.journal").string();
  }

  auto& recorder = tel::Recorder::instance();
  if (args.trace) {
    recorder.enable();
    tel::Recorder::bind_thread(tel::Track::Main, -1, "campaign-main");
  }

  JsonLine line;
  JsonLine layers;
  JsonLine check;
  JsonLine breakdown;
  {
    const auto t_study = Clock::now();
    tel::ScopedSpan study_span("bench-study", tel::Track::Main, -1);
    core::StudyDriver driver(*workload, options);

    const auto t_profile = Clock::now();
    {
      tel::ScopedSpan span("bench-profile", tel::Track::Main, -1);
      driver.profile();
    }
    const double setup_s = seconds_since(t_profile);

    const auto t_run = Clock::now();
    core::StudyResult result;
    {
      tel::ScopedSpan span("bench-run", tel::Track::Main, -1);
      result = driver.run();
    }
    const double run_s = seconds_since(t_run);

    {
      tel::ScopedSpan span("bench-report", tel::Track::Main, -1);
      core::write_file(args.report, core::to_json(result));
    }
    study_span.finish();
    const double study_s = seconds_since(t_study);

    const auto& campaign = driver.campaign();
    const auto health = result.health;
    const auto trials_run = campaign.trials_run();
    const auto snap = campaign.snapshot_stats();

    std::array<std::uint64_t, fastfit::inject::kNumOutcomes> outcomes{};
    for (const auto& point : result.measured) {
      for (std::size_t o = 0; o < outcomes.size(); ++o) outcomes[o] += point.counts[o];
    }
    const std::uint64_t attempted = result.measured.size() * trials;
    const std::uint64_t failed = health.quarantined_points * trials +
                                 health.total_retries +
                                 health.isolation_fallbacks +
                                 health.worker_lease_kills;

    line.num("lanes", static_cast<double>(lanes));
    line.num("trials", static_cast<double>(trials));
    line.num("study_s", study_s);
    line.num("setup_s", setup_s);
    line.num("run_s", run_s);
    line.num("trials_run", static_cast<double>(trials_run));
    line.num("trials_attempted", static_cast<double>(attempted));
    line.num("failed_trials", static_cast<double>(failed));

    JsonLine counts;
    for (std::size_t o = 0; o < outcomes.size(); ++o) {
      counts.num(fastfit::inject::to_string(static_cast<fastfit::inject::Outcome>(o)),
                 static_cast<double>(outcomes[o]));
    }
    line.raw("outcomes", counts.render());
    JsonLine pruning;
    pruning.num("total_points", static_cast<double>(result.stats.total_points));
    pruning.num("after_semantic", static_cast<double>(result.stats.after_semantic));
    pruning.num("after_context", static_cast<double>(result.stats.after_context));
    pruning.num("equivalence_classes",
                static_cast<double>(result.stats.equivalence_classes));
    line.raw("pruning", pruning.render());
    line.num("measured_points", static_cast<double>(result.measured.size()));
    line.num("predicted_points", static_cast<double>(result.predicted.size()));

    if (args.trace) {
      layers.num("core.profile_s", setup_s);
      layers.num("core.snapshot.replayed_frac",
                 trials_run ? static_cast<double>(snap.clones) /
                                  static_cast<double>(trials_run)
                            : 0.0);
      layers.num("core.procpool.signal_deaths", static_cast<double>(health.worker_deaths));
      layers.num("ml.rounds", static_cast<double>(result.ml_rounds));
      layers.num("ml.predicted_frac", result.ml_reduction);
      layers.num("core.retries", static_cast<double>(health.total_retries));
      layers.num("core.quarantined_points", static_cast<double>(health.quarantined_points));
      layers.num("core.deterministic_deadlocks",
                 static_cast<double>(health.deterministic_deadlocks));
    }
  }
  // The driver and its worker pool are gone: every fork-server has been
  // reaped, so its CPU time is in RUSAGE_CHILDREN.
  const Usage usage = read_usage();
  line.num("cpu_s", usage.cpu_s);
  line.num("peak_rss_mb", usage.peak_rss_mb);

  if (args.trace) {
    recorder.disable();
    const auto metrics = recorder.metrics();
    layers.num("core.procpool.spawns",
               static_cast<double>(metrics.counter_sum("fastfit_worker_spawns_total")));
    layers.num("telemetry.dropped_events", static_cast<double>(recorder.dropped_events()));
    reduce_trace(recorder.drain_events(), layers, check, breakdown);
    line.raw("layers", layers.render());
    line.raw("trace_check", check.render());
    line.raw("breakdown_ms", breakdown.render());
  }
  return line.render();
}

}  // namespace ffbench
