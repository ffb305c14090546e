#!/usr/bin/env python3
"""Validate FastFIT telemetry artifacts.

Checks three things (any subset, depending on the flags given):

  --trace trace.json      The Chrome trace-event document parses, every
                          event lane has thread_name metadata, spans have
                          ts/dur, complete spans on one lane nest (none
                          partially overlaps another; queue-wait, which
                          starts at submission, is exempt), and at least
                          --min-tracks distinct track types
                          (main/executor/rank/monitor/ml/journal) are
                          present.
  --metrics metrics.prom  The Prometheus text exposition parses (HELP/
                          TYPE comments, sample lines, monotone histogram
                          buckets, +Inf == _count).
  --study study.json      Cross-check: the per-outcome sums of the study
                          report's measured[].counts equal the
                          fastfit_trials_total{outcome=...} counters in
                          the metrics file.
  --compare-counters other.prom --compare-family NAME
                          Cross-check two snapshots: the named family's
                          sample set (labels and values) in --metrics
                          must equal the one in the other file. Used by
                          the sharded-study CI job to prove that
                          `fastfit merge` reproduces the unsharded run's
                          trial counters exactly. Repeat --compare-family
                          to compare several families.

Exits non-zero with a message on the first violation. Used by the CI
telemetry job; runnable by hand after any `fastfit study --trace-out
--metrics-out` run.
"""

import argparse
import json
import re
import sys

# tid ranges assigned by telemetry/exporters.cpp (trace_tid).
TRACK_OF_TID = (
    (1, 1, "main"),
    (100, 999, "executor"),
    (1000, 2999, "rank"),
    (3000, 3999, "monitor"),
    (4000, 4499, "ml"),
    (4500, 4999, "journal"),
    (12000, 2**31 - 1, "rank"),  # executor worlds' rank lanes
)


def fail(msg):
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def track_of(tid):
    for lo, hi, name in TRACK_OF_TID:
        if lo <= tid <= hi:
            return name
    return f"unknown({tid})"


def check_nesting(path, spans_by_tid):
    """Complete spans on one lane must be disjoint or nested: Perfetto
    stacks X events per thread, so a partial overlap means two unrelated
    activities (e.g. two concurrent worlds) share a lane."""
    for tid, spans in spans_by_tid.items():
        # Sorted by start, longest first: each span must close inside
        # every still-open span that contains its start.
        spans.sort(key=lambda s: (s[0], -s[1]))
        open_spans = []  # stack of (end, name, start)
        for start, end, name in spans:
            while open_spans and open_spans[-1][0] <= start:
                open_spans.pop()
            if open_spans and end > open_spans[-1][0]:
                outer_end, outer_name, outer_start = open_spans[-1]
                fail(
                    f"{path}: {outer_name} [{outer_start},{outer_end}) and "
                    f"{name} [{start},{end}) partially overlap on "
                    f"{track_of(tid)} lane tid {tid}"
                )
            open_spans.append((end, name, start))


def check_trace(path, min_tracks):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    named_tids = set()
    event_tids = set()
    spans_by_tid = {}
    spans = instants = 0
    for ev in events:
        ph = ev.get("ph")
        tid = ev.get("tid")
        if ph == "M":
            if ev.get("name") == "thread_name":
                if not ev.get("args", {}).get("name"):
                    fail(f"{path}: thread_name metadata without a name: {ev}")
                named_tids.add(tid)
            continue
        event_tids.add(tid)
        if ph == "X":
            spans += 1
            if not isinstance(ev.get("ts"), (int, float)):
                fail(f"{path}: X event without ts: {ev}")
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                fail(f"{path}: X event without non-negative dur: {ev}")
            if ev.get("name") != "queue-wait":
                spans_by_tid.setdefault(tid, []).append(
                    (ev["ts"], ev["ts"] + ev["dur"], ev.get("name"))
                )
        elif ph == "i":
            if ev.get("s") != "t":
                fail(f"{path}: instant without thread scope: {ev}")
            instants += 1
        else:
            fail(f"{path}: unexpected phase {ph!r}: {ev}")

    unnamed = event_tids - named_tids
    if unnamed:
        fail(f"{path}: lanes without thread_name metadata: {sorted(unnamed)}")
    unknown = sorted(t for t in event_tids if track_of(t).startswith("unknown"))
    if unknown:
        fail(f"{path}: lanes outside every known tid range: {unknown}")
    check_nesting(path, spans_by_tid)
    tracks = {track_of(tid) for tid in event_tids}
    if len(tracks) < min_tracks:
        fail(
            f"{path}: only {len(tracks)} track types {sorted(tracks)}, "
            f"need >= {min_tracks}"
        )
    if spans == 0:
        fail(f"{path}: no complete ('X') span events")
    print(
        f"check_telemetry: trace OK: {spans} spans, {instants} instants, "
        f"{len(event_tids)} lanes, tracks: {', '.join(sorted(tracks))}"
    )


SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)


def check_metrics(path):
    families = {}  # name -> type
    samples = {}  # (name, labels) -> float
    histogram_buckets = {}  # name -> [(le, cumulative)]
    help_seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                fail(f"{path}:{lineno}: blank line")
            if line.startswith("# HELP "):
                name = line.split()[2]
                if name in help_seen:
                    fail(f"{path}:{lineno}: duplicate HELP for {name}")
                help_seen.add(name)
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if parts[3] not in ("counter", "gauge", "histogram"):
                    fail(f"{path}:{lineno}: bad type {parts[3]}")
                families[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                fail(f"{path}:{lineno}: unexpected comment {line!r}")
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: unparseable sample {line!r}")
            name, labels, raw = m.group("name", "labels", "value")
            try:
                value = float(raw)
            except ValueError:
                fail(f"{path}:{lineno}: bad value {raw!r}")
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    family = name[: -len(suffix)]
            if family not in families:
                fail(f"{path}:{lineno}: sample {name} without TYPE")
            samples[(name, labels or "")] = value
            if name.endswith("_bucket") and family in families:
                le = dict(
                    kv.split("=", 1) for kv in (labels or "").split(",")
                ).get("le", "").strip('"')
                histogram_buckets.setdefault(family, []).append((le, value))

    for family, buckets in histogram_buckets.items():
        prev = -1.0
        for le, cumulative in buckets:
            if cumulative < prev:
                fail(f"{path}: {family} bucket le={le} not monotone")
            prev = cumulative
        if buckets[-1][0] != "+Inf":
            fail(f"{path}: {family} buckets do not end at +Inf")
        count = samples.get((family + "_count", ""))
        if count is not None and buckets[-1][1] != count:
            fail(f"{path}: {family} +Inf bucket != _count")

    counters = len([n for n, t in families.items() if t == "counter"])
    print(
        f"check_telemetry: metrics OK: {len(families)} families "
        f"({counters} counters), {len(samples)} samples"
    )
    return samples


def check_totals(study_path, samples):
    with open(study_path, encoding="utf-8") as f:
        study = json.load(f)
    measured = study.get("measured")
    if not isinstance(measured, list) or not measured:
        fail(f"{study_path}: measured[] missing or empty")
    totals = {}
    for point in measured:
        for outcome, count in point["counts"].items():
            totals[outcome] = totals.get(outcome, 0) + count

    for outcome, expected in totals.items():
        got = samples.get(
            ("fastfit_trials_total", f'outcome="{outcome}"'), 0.0
        )
        if got != expected:
            fail(
                f"fastfit_trials_total{{outcome=\"{outcome}\"}} = {got}, "
                f"study reports {expected}"
            )
    metric_sum = sum(
        v
        for (name, _labels), v in samples.items()
        if name == "fastfit_trials_total"
    )
    if metric_sum != sum(totals.values()):
        fail(
            f"sum(fastfit_trials_total) = {metric_sum}, study total = "
            f"{sum(totals.values())}"
        )
    print(
        f"check_telemetry: totals OK: {int(metric_sum)} trials across "
        f"{len(totals)} outcomes match the study report"
    )


def family_samples(samples, family):
    return {
        (name, labels): value
        for (name, labels), value in samples.items()
        if name == family
    }


def check_compare(samples, other_path, families):
    other = check_metrics(other_path)
    for family in families:
        mine = family_samples(samples, family)
        theirs = family_samples(other, family)
        if not mine and not theirs:
            fail(f"{family}: absent from both snapshots")
        if mine != theirs:
            only_mine = sorted(set(mine) - set(theirs))
            only_theirs = sorted(set(theirs) - set(mine))
            diffs = sorted(
                k for k in set(mine) & set(theirs) if mine[k] != theirs[k]
            )
            fail(
                f"{family}: snapshots disagree "
                f"(only in --metrics: {only_mine}, "
                f"only in {other_path}: {only_theirs}, "
                f"differing values: {diffs})"
            )
        print(
            f"check_telemetry: compare OK: {family} identical "
            f"({len(mine)} samples)"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace-event JSON to validate")
    ap.add_argument("--metrics", help="Prometheus exposition to validate")
    ap.add_argument(
        "--study", help="study --json report to cross-check totals against"
    )
    ap.add_argument(
        "--min-tracks",
        type=int,
        default=4,
        help="minimum distinct track types required in the trace",
    )
    ap.add_argument(
        "--compare-counters",
        help="second Prometheus snapshot to compare families against",
    )
    ap.add_argument(
        "--compare-family",
        action="append",
        default=[],
        help="metric family that must be identical in both snapshots "
        "(repeatable; default fastfit_trials_total)",
    )
    args = ap.parse_args()
    if not (args.trace or args.metrics):
        ap.error("nothing to do: pass --trace and/or --metrics")
    if args.study and not args.metrics:
        ap.error("--study needs --metrics to compare against")
    if args.compare_counters and not args.metrics:
        ap.error("--compare-counters needs --metrics to compare against")

    if args.trace:
        check_trace(args.trace, args.min_tracks)
    samples = check_metrics(args.metrics) if args.metrics else {}
    if args.study:
        check_totals(args.study, samples)
    if args.compare_counters:
        check_compare(
            samples,
            args.compare_counters,
            args.compare_family or ["fastfit_trials_total"],
        )
    print("check_telemetry: all checks passed")


if __name__ == "__main__":
    main()
