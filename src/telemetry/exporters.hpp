#pragma once

// Exporters for the telemetry recorder: Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing) and metrics snapshots (Prometheus text
// exposition and JSON). See docs/observability.md for format notes.

#include <string>
#include <vector>

#include "telemetry/recorder.hpp"

namespace fastfit::telemetry {

/// Renders events as a Chrome trace-event JSON document
/// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
/// "X" complete events for spans, "i" instants, plus process_name /
/// thread_name / thread_sort_index metadata so each track renders as a
/// labelled Perfetto thread. Lanes map to stable synthetic tids (main=1,
/// executor=100+i, rank=1000+i, monitor=3000+i, ml=4000, journal=4500).
std::string to_chrome_trace(const std::vector<Event>& events,
                            const std::vector<ThreadInfo>& threads);

/// Renders a snapshot in Prometheus text exposition format 0.0.4
/// (# HELP / # TYPE, counter/gauge families, histograms with le buckets,
/// _sum and _count).
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Renders a snapshot as a JSON document (counters/gauges/histograms
/// arrays plus dropped_events).
std::string to_metrics_json(const MetricsSnapshot& snapshot);

/// Escapes a string for embedding in a JSON string literal (no quotes).
std::string json_escape(std::string_view s);

/// Writes `text` to `path` (truncating), fsyncs, and returns false (with
/// no throw) if any step fails.
bool write_text_file(const std::string& path, const std::string& text);

/// Synthetic Chrome-trace tid for a lane, matching to_chrome_trace.
/// Ranges: Main 1, Executor 100+, Rank 1000..2999 (slot-0 ranks below
/// 2000), Monitor 3000+, MlLoop 4000, Journal 4500, and every other rank
/// lane at 10000 + index (>= 12000).
int trace_tid(Track track, int index) noexcept;

}  // namespace fastfit::telemetry
