#!/usr/bin/env python3
"""Study benchmark: time-to-answer and trials/s on three sensitivity studies.

Run from the root of a fastfit checkout:

    python3 perfbench/run.py --workload lu128-replay --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (the fastfit libraries plus the ffbench
driver) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
A run repeats one study, each time in a fresh ffbench process, until
--seconds have passed, then runs it once more at the other lane count.
With --trace 0 it reports the end-to-end metrics, each the fastest of the
run's studies; with --trace 1 it alternates untraced and traced studies,
runs the single-layer probes, and reports the median per-layer metrics.
Workload and metric names and units are read from BENCHMARK.json. The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; stderr carries the build log and diagnostics. The exit code
is 0 only when every correctness gate passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

DEFAULT_SEED = 1
TINY_TRIALS = 2
MIN_STUDIES = 3
STUDY_TIMEOUT_S = 60
# Traced runs: the layers' main-thread self times must cover the
# benchmark's study span to within this share.
MAX_UNATTRIBUTED_FRAC = 0.05


def declared():
    """BENCHMARK.json: the workload names and the metrics with their units.
    Lanes and trials per point live in ffbench's workload table."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def units(table):
    return {m["name"]: m["unit"] for m in declared()[table]}


def workload_names():
    return [w["name"] for w in declared()["workloads"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class GateError(Exception):
    """A correctness gate failed: the run's output is wrong."""


# ------------------------------------------------------------------ build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds ffbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("fastfit sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "ffbench", "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out, "ffbench")


def ffbench(binary, args):
    """Runs one ffbench invocation and returns its JSON line."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=STUDY_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("ffbench %s failed (%d): %s"
                           % (args[0], proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_fingerprint(binary):
    host = ffbench(binary, ["host"])
    try:
        host["nproc"] = len(os.sched_getaffinity(0))
    except AttributeError:
        host["nproc"] = os.cpu_count()
    host["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    host["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host["git_commit"] = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            host["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    if not host.get("optimized") or not host.get("ndebug"):
        log("WARNING: ffbench is not an optimised build (%s); "
            "timings are not comparable" % host.get("build_type"))
    return host


# ---------------------------------------------------------------- studies

class Runner:
    """Runs studies of one workload and seed; holds the first report."""

    def __init__(self, binary, workload, seed, tiny):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.scale = "tiny" if tiny else "default"
        self.tiny = tiny
        self.work = os.path.join(build_dir(), "work", workload)
        self.count = 0
        self.first_report = None
        self.first = None
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def study(self, lanes=None, trace=False):
        """One study in a fresh process; its report must match the first."""
        self.count += 1
        report = os.path.join(self.work, "report-%d.json" % self.count)
        scratch = os.path.join(self.work, "study-%d" % self.count)
        args = ["study", "--workload", self.workload, "--seed", str(self.seed),
                "--report", report, "--work-dir", scratch]
        if self.tiny:
            args += ["--trials", str(TINY_TRIALS)]
        if lanes is not None:
            args += ["--lanes", str(lanes)]
        if trace:
            args.append("--trace")
        try:
            result = ffbench(self.binary, args)
            with open(report, "rb") as f:
                data = f.read()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            if os.path.exists(report):
                os.remove(report)
        check_study(result)
        if self.first_report is None:
            self.first_report, self.first = data, result
        elif data != self.first_report:
            raise GateError("report of study %d (lanes=%s, trace=%s) differs "
                            "from the first study's" % (self.count, lanes, trace))
        if trace:
            check_trace(result)
        return result

    def lane_parity(self):
        """The same study at the other lane count must give the same bytes."""
        self.study(lanes=2 if self.first["lanes"] == 1 else 1)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def check_study(result):
    outcomes = sum(result["outcomes"].values())
    expected = result["measured_points"] * result["trials"]
    if outcomes != expected:
        raise GateError("outcome counts (%d) do not cover %d measured trials"
                        % (outcomes, expected))
    if result["trials_run"] < result["trials_attempted"]:
        raise GateError("fewer trials executed than reported")


def check_trace(result):
    check = result["trace_check"]
    layers = result["layers"]
    if layers["telemetry.dropped_events"] != 0:
        raise GateError("recorder dropped %d events" % layers["telemetry.dropped_events"])
    if check["nesting_violations"] != 0:
        raise GateError("%d spans overlap their parent" % check["nesting_violations"])
    if check["unattributed_frac"] > MAX_UNATTRIBUTED_FRAC:
        raise GateError("%.1f%% of the study span is outside every layer span"
                        % (100 * check["unattributed_frac"]))


def fingerprint(result, report):
    """What the pinned reference records for one study."""
    return {
        "outcomes": result["outcomes"],
        "pruning": result["pruning"],
        "measured_points": result["measured_points"],
        "predicted_points": result["predicted_points"],
        "report_sha256": hashlib.sha256(report).hexdigest(),
    }


def load_reference(path):
    with open(path) as f:
        return json.load(f)


def check_reference(runner, reference):
    """For the default seed, the first study must match the pinned values."""
    if runner.seed != DEFAULT_SEED:
        return
    pinned = reference.get(runner.scale, {}).get(runner.workload)
    if pinned is None:
        raise GateError("no pinned reference for %s at %s scale"
                        % (runner.workload, runner.scale))
    got = fingerprint(runner.first, runner.first_report)
    for key, want in pinned.items():
        if got.get(key) != want:
            raise GateError("%s differs from the pinned reference: %s != %s"
                            % (key, got.get(key), want))


# -------------------------------------------------------------------- run

def measure(binary, workload, seed, seconds, trace, tiny, reference):
    """One benchmark run; returns (correct, attempted, failed, metrics,
    per-study samples)."""
    runner = Runner(binary, workload, seed, tiny)
    plain, traced, probes = [], [], None
    try:
        deadline = time.monotonic() + seconds
        while True:
            plain.append(runner.study())
            if trace:
                traced.append(runner.study(trace=True))
            if len(plain) >= MIN_STUDIES and time.monotonic() >= deadline:
                break
        runner.lane_parity()
        check_reference(runner, reference)
        if trace:
            probes = ffbench(binary, ["probes"] + (["--tiny"] if tiny else []))
    except (GateError, RuntimeError, subprocess.SubprocessError, ValueError,
            KeyError, OSError) as e:
        log("FAILED: %s" % e)
        attempted = max(1, sum(r["trials_attempted"] for r in plain + traced))
        return False, attempted, attempted, {}, {}
    finally:
        runner.cleanup()

    attempted = sum(r["trials_attempted"] for r in plain + traced)
    failed = sum(r["failed_trials"] for r in plain + traced)
    med = lambda rows, f: statistics.median(f(r) for r in rows)
    if not trace:
        # The fastest study of the window. The work of a study is fixed
        # (its report is byte-identical every time), and on a shared host
        # other tenants only ever add time to it, in bursts of seconds.
        values = {
            "study_s": min(r["study_s"] for r in plain),
            "setup_s": min(r["setup_s"] for r in plain),
            "trials_per_s": max(r["trials_run"] / r["run_s"] for r in plain),
            "cpu_s": min(r["cpu_s"] for r in plain),
            "peak_rss_mb": med(plain, lambda r: r["peak_rss_mb"]),
            "ok_trial_frac": 1.0 - failed / attempted,
        }
        declared_units = units("end_to_end")
    else:
        values = {name: med(traced, lambda r, n=name: r["layers"][n])
                  for name in traced[0]["layers"]}
        values.update(probes)
        values["core.failed_frac"] = failed / attempted
        values["core.trials_attempted"] = med(traced, lambda r: r["trials_attempted"])
        values["telemetry.overhead_frac"] = (
            min(r["study_s"] for r in traced) / min(r["study_s"] for r in plain) - 1.0)
        declared_units = units("per_layer")
        breakdown = {}
        for key in traced[0]["breakdown_ms"]:
            breakdown[key] = med(traced, lambda r, k=key: r["breakdown_ms"].get(k, 0.0))
        print(json.dumps({"breakdown_ms_median": breakdown}))
    missing = set(declared_units) - set(values)
    if missing:
        log("FAILED: metrics not produced: %s" % sorted(missing))
        return False, attempted, attempted, {}, {}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_units.items()}
    log("%s: %d untraced + %d traced studies, seed %d" % (workload, len(plain), len(traced), seed))
    samples = {key: [r[key] for r in plain]
               for key in ("study_s", "setup_s", "run_s", "cpu_s", "peak_rss_mb")}
    return True, attempted, failed, metrics, samples


def print_metrics(metrics):
    for name, m in metrics.items():
        print("%-46s %14.6g %s" % (name, m["value"], m["unit"]))


def run(args):
    reference = load_reference(args.reference)
    binary = build()
    host = host_fingerprint(binary)
    correct, attempted, failed, metrics, samples = measure(
        binary, args.workload, args.seed, args.seconds, args.trace, args.tiny,
        reference)
    print_metrics(metrics)
    print(json.dumps({"samples": samples}))
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      "scale": "tiny" if args.tiny else "default",
                      "trace": args.trace}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -------------------------------------------------------------- self-test

def self_test():
    """Tiny-scale runs of every workload: every metric present with its
    unit, and a tampered reference trips the gate."""
    problems = []
    binary = build()
    reference = load_reference(os.path.join(BENCH_DIR, "reference.json"))
    for workload in workload_names():
        for trace, table in ((False, "end_to_end"), (True, "per_layer")):
            correct, _, failed, metrics, _ = measure(
                binary, workload, DEFAULT_SEED, 1, trace, True, reference)
            if not correct or failed:
                problems.append("%s trace=%d: not correct" % (workload, trace))
            want = units(table)
            got = {n: m["unit"] for n, m in metrics.items()}
            if got != want:
                problems.append("%s trace=%d: metrics/units differ: %s"
                                % (workload, trace, sorted(set(got.items()) ^ set(want.items()))))
        tampered = json.loads(json.dumps(reference))
        tampered["tiny"][workload]["report_sha256"] = "0" * 64
        path = os.path.join(build_dir(), "tampered-reference.json")
        with open(path, "w") as f:
            json.dump(tampered, f)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "0",
             "--tiny", "--reference", path],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0 or last["correct"] or last["failed"] != last["attempted"]:
            problems.append("%s: a tampered reference did not trip the gate" % workload)
        os.remove(path)
    for p in problems:
        log("SELF-TEST: " + p)
    log("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def pin(args):
    """Prints the reference entries for the default seed (for reference.json)."""
    binary = build()
    out = {}
    for scale, tiny in (("default", False), ("tiny", True)):
        out[scale] = {}
        for workload in workload_names():
            runner = Runner(binary, workload, DEFAULT_SEED, tiny)
            runner.study()
            out[scale][workload] = fingerprint(runner.first, runner.first_report)
            runner.cleanup()
    print(json.dumps(out, indent=2))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workload_names())
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="%d trials per point (self-test scale)" % TINY_TRIALS)
    p.add_argument("--reference", default=os.path.join(BENCH_DIR, "reference.json"),
                   help="pinned outputs for the default seed")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--pin", action="store_true",
                   help="print reference entries for the default seed")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.pin:
            return pin(args)
        if not args.workload:
            p.error("--workload is required")
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
