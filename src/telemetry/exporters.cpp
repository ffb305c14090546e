#include "telemetry/exporters.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace fastfit::telemetry {

namespace {

// Prometheus requires a fixed-locale float rendering; %.9g round-trips
// every value we emit (bucket edges, sums in seconds).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void append_args_json(std::string& out, const std::string& args) {
  out += "{\"detail\":\"";
  out += json_escape(args);
  out += "\"}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int trace_tid(Track track, int index) noexcept {
  const int lane = index < 0 ? 0 : index;
  switch (track) {
    case Track::Main: return 1;
    case Track::Executor: return 100 + lane;
    // Slot-0 ranks below 2000 keep 1000 + rank; every other rank lane
    // (executor worlds, huge worlds) sits above the fixed ranges below.
    case Track::Rank: return lane < 2000 ? 1000 + lane : 10000 + lane;
    case Track::Monitor: return 3000 + lane;
    case Track::MlLoop: return 4000 + lane;
    case Track::Journal: return 4500 + lane;
  }
  return 1;
}

std::string to_chrome_trace(const std::vector<Event>& events,
                            const std::vector<ThreadInfo>& threads) {
  std::string out;
  out.reserve(events.size() * 96 + 4096);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  sep();
  out += R"({"name":"process_name","ph":"M","pid":1,"tid":1,)"
         R"("args":{"name":"fastfit campaign"}})";

  // One thread_name entry per lane: every explicitly bound thread, plus
  // any lane that only appears in events (e.g. rank lanes recorded from
  // short-lived threads that exited before binding was collected).
  std::vector<ThreadInfo> lanes = threads;
  const auto has_lane = [&](Track track, int index) {
    for (const auto& lane : lanes) {
      if (lane.track == track && lane.index == index) return true;
    }
    return false;
  };
  for (const auto& event : events) {
    if (!has_lane(event.track, event.index)) {
      std::string label = to_string(event.track);
      if (event.track == Track::Rank && event.index >= 0) {
        label = rank_lane_label(event.index);
      } else if (event.index >= 0) {
        label += '-' + std::to_string(event.index);
      }
      lanes.push_back(ThreadInfo{event.track, event.index, std::move(label)});
    }
  }
  if (!has_lane(Track::Main, -1)) {
    lanes.push_back(ThreadInfo{Track::Main, -1, "campaign-main"});
  }
  for (const auto& lane : lanes) {
    const int tid = trace_tid(lane.track, lane.index);
    char buf[160];
    sep();
    std::snprintf(buf, sizeof(buf),
                  R"({"name":"thread_name","ph":"M","pid":1,"tid":%d,)"
                  R"("args":{"name":"%s"}})",
                  tid, json_escape(lane.label).c_str());
    out += buf;
    sep();
    std::snprintf(buf, sizeof(buf),
                  R"({"name":"thread_sort_index","ph":"M","pid":1,)"
                  R"("tid":%d,"args":{"sort_index":%d}})",
                  tid, tid);
    out += buf;
  }

  for (const auto& event : events) {
    const int tid = trace_tid(event.track, event.index);
    char buf[192];
    sep();
    if (event.dur_us >= 0) {
      std::snprintf(buf, sizeof(buf),
                    R"({"name":"%s","ph":"X","pid":1,"tid":%d,)"
                    R"("ts":%)" PRId64 R"(,"dur":%)" PRId64,
                    json_escape(event.name).c_str(), tid, event.start_us,
                    event.dur_us);
      out += buf;
    } else {
      std::snprintf(buf, sizeof(buf),
                    R"({"name":"%s","ph":"i","s":"t","pid":1,"tid":%d,)"
                    R"("ts":%)" PRId64,
                    json_escape(event.name).c_str(), tid, event.start_us);
      out += buf;
    }
    if (!event.args.empty()) {
      out += ",\"args\":";
      append_args_json(out, event.args);
    }
    out += '}';
  }

  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  const auto series = [](const std::string& name, const std::string& labels) {
    return labels.empty() ? name : name + '{' + labels + '}';
  };

  std::string last_family;
  for (const auto& c : snapshot.counters) {
    if (c.name != last_family) {
      out += "# HELP " + c.name + ' ' + c.help + '\n';
      out += "# TYPE " + c.name + " counter\n";
      last_family = c.name;
    }
    out += series(c.name, c.labels) + ' ' + std::to_string(c.value) + '\n';
  }
  last_family.clear();
  for (const auto& g : snapshot.gauges) {
    if (g.name != last_family) {
      out += "# HELP " + g.name + ' ' + g.help + '\n';
      out += "# TYPE " + g.name + " gauge\n";
      last_family = g.name;
    }
    out += series(g.name, g.labels) + ' ' + std::to_string(g.value) + '\n';
  }
  for (const auto& h : snapshot.histograms) {
    out += "# HELP " + h.name + ' ' + h.help + '\n';
    out += "# TYPE " + h.name + " histogram\n";
    for (const auto& [le, cumulative] : h.data.buckets) {
      out += h.name + "_bucket{le=\"" + format_double(le) + "\"} " +
             std::to_string(cumulative) + '\n';
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(h.data.count) +
           '\n';
    out += h.name + "_sum " + format_double(h.data.sum_seconds) + '\n';
    out += h.name + "_count " + std::to_string(h.data.count) + '\n';
  }
  out += "# HELP fastfit_telemetry_dropped_events_total "
         "Events dropped at the recorder buffer cap\n";
  out += "# TYPE fastfit_telemetry_dropped_events_total counter\n";
  out += "fastfit_telemetry_dropped_events_total " +
         std::to_string(snapshot.dropped_events) + '\n';
  return out;
}

std::string to_metrics_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": [\n";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    out += "    {\"name\":\"" + json_escape(c.name) + "\",\"labels\":\"" +
           json_escape(c.labels) + "\",\"value\":" + std::to_string(c.value) +
           '}';
    if (i + 1 < snapshot.counters.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"gauges\": [\n";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    out += "    {\"name\":\"" + json_escape(g.name) + "\",\"labels\":\"" +
           json_escape(g.labels) + "\",\"value\":" + std::to_string(g.value) +
           '}';
    if (i + 1 < snapshot.gauges.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"histograms\": [\n";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    out += "    {\"name\":\"" + json_escape(h.name) +
           "\",\"count\":" + std::to_string(h.data.count) +
           ",\"sum_seconds\":" + format_double(h.data.sum_seconds) +
           ",\"buckets\":[";
    for (std::size_t b = 0; b < h.data.buckets.size(); ++b) {
      const auto& [le, cumulative] = h.data.buckets[b];
      if (b) out += ',';
      out += "{\"le\":" + format_double(le) +
             ",\"count\":" + std::to_string(cumulative) + '}';
    }
    out += "]}";
    if (i + 1 < snapshot.histograms.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"dropped_events\": " +
         std::to_string(snapshot.dropped_events) + "\n}\n";
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return wrote && flushed && closed;
}

}  // namespace fastfit::telemetry
