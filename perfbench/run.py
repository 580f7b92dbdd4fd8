#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the engine, the real `adarts_serve`
daemon, `trace_stats` and the benchmark client from source into
.bench_build/perfbench (the first run pays for the build), runs the
client, checks its outputs and prints, as the last line of stdout, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
reports every end-to-end metric of BENCHMARK.json; `--trace 1` reports every
per-layer metric, timed by spans the client records around each layer's
public functions and summarized by tools/trace_stats. Exits 1 when an output
check fails, 2 when the program cannot be built or run. See README.md in
this directory for the workloads and metrics.
"""

import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The clients of a run, traced or not, end within this many seconds of the
# build's end; only the first run in a checkout builds for long.
CLIENT_BUDGET_S = 170

# The request path Adarts::Recommend runs, as the client replays it part by
# part; their sum must match adarts.recommend within 10%.
REQUEST_PARTS = ["features.statistical", "tda.tau", "tda.embed",
                 "tda.landmarks", "tda.rips", "tda.diagram_stats",
                 "automl.vote"]
TRAIN_STAGES = ["cluster.stage", "labeling.stage", "race.stage",
                "committee.stage"]
SUM_TOLERANCE = 0.10
# Metrics compared between a traced run and the untraced run of the same
# workload and seed: the tracing overhead.
OVERHEAD = {"trace.overhead.recommend_p50": "recommend_p50_ms",
            "trace.overhead.train_s": "train_s",
            "trace.overhead.append_p50": "append_p50_ms"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to the benchmark (src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))


def reap_children():
    """Waits for every process this one adopted or started."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_client(workload, seed, seconds, trace, deadline):
    """Runs the client in its own process group until `deadline` (a
    time.monotonic() value); returns (record, workdir).

    Whatever the client started is killed with the group and reaped here,
    since this process is the subreaper of its descendants.
    """
    workdir = os.path.join(BUILD, "runs", "%s-%d-%d" % (workload, seed,
                                                        os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--bin-dir", BUILD, "--work-dir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reap_children()
    record = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH "):
            record = json.loads(line[len("PERFBENCH "):])
        else:
            print(line)
    if record is None:
        fail("the client printed no result (exit %s)" % proc.returncode)
    return record, workdir


def span_table(trace_path):
    """Per span family: (count, total_ms, self_ms), from tools/trace_stats."""
    done = subprocess.run([os.path.join(BUILD, "trace_stats"), trace_path,
                           "--top", "100000"], capture_output=True, text=True)
    if done.returncode != 0:
        fail("trace_stats failed: " + done.stderr.strip())
    if "WARNING" in done.stdout:
        fail("the trace dropped events")
    spans = {}
    row = re.compile(r"^(\S+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+[\d.]+$")
    for line in done.stdout.splitlines():
        m = row.match(line)
        if m:
            spans[m.group(1)] = (int(m.group(2)), float(m.group(3)),
                                 float(m.group(4)))
    return spans


def layer_metrics(record, spans, untraced, problems):
    """Per-layer metrics of a traced run."""
    ledger = dict(record["ledger"])

    def mean_ms(name):
        if name not in spans or spans[name][0] == 0:
            problems.append("no %s spans in the trace" % name)
            return 0.0
        return spans[name][1] / spans[name][0]

    out = {}
    for name in ["net.decode", "net.encode", "adarts.recommend",
                 "automl.vote", "features.statistical"] + REQUEST_PARTS[1:6]:
        out[name + "_us"] = mean_ms(name) * 1e3
    parts = sum(mean_ms(p) for p in REQUEST_PARTS)
    out["adarts.layer_sum_ratio"] = parts / mean_ms("adarts.recommend")

    replays = ledger.pop("stage.replays")
    stage_s = {s: spans.get(s, (0, 0.0, 0.0))[1] / 1e3 / replays
               for s in TRAIN_STAGES}
    features_s = ledger.pop("features.train_s") / replays
    out["cluster.stage_s"] = stage_s["cluster.stage"]
    out["labeling.stage_s"] = stage_s["labeling.stage"] - features_s
    out["features.train_s"] = features_s
    out["race.stage_s"] = stage_s["race.stage"]
    out["committee.stage_s"] = stage_s["committee.stage"]
    out["train.stage_sum_ratio"] = (sum(stage_s.values()) /
                                    (mean_ms("train.reference") / 1e3))
    for name in ["cluster.splits", "cluster.merges", "cluster.moves",
                 "cluster.candidates", "labeling.imputation_runs",
                 "labeling.impute_p50_ms", "race.pipelines_evaluated",
                 "race.pipelines_eliminated"]:
        out[name] = ledger.pop(name) / replays
    elites = ledger.pop("race.elites")
    out["race.elite_ratio"] = elites / (out["race.pipelines_evaluated"] *
                                        replays)
    out["race.pool_busy_share"] = (
        ledger.pop("race.eval_s") /
        (stage_s["race.stage"] * replays * ledger.pop("race.threads")))
    # Two trainings of the served corpus, one in each client of this call:
    # how many distinct FNV-1a checksums their first snapshots carry.
    out["snapshot.checksum_variants"] = (
        1 if record["checksum"] == untraced["checksum"] else 2)
    out["snapshot.save_ms"] = mean_ms("snapshot.save")
    out["snapshot.load_ms"] = mean_ms("snapshot.load")

    def measured(rec, name):
        return rec["e2e"][name] if name in rec["e2e"] else rec["ledger"][name]

    for metric, name in OVERHEAD.items():
        out[metric] = measured(record, name) / measured(untraced, name)
    out.update(ledger)

    for name in ["adarts.layer_sum_ratio", "train.stage_sum_ratio"]:
        ratio = out[name]
        if abs(ratio - 1.0) > SUM_TOLERANCE:
            problems.append("%s %.3f is outside 1 +- %.2f" %
                            (name, ratio, SUM_TOLERANCE))
    return out


def build_identity():
    """A hash of the built client and daemon: runs of one build share it."""
    h = hashlib.sha256()
    for name in ["perfbench", "adarts_serve"]:
        with open(os.path.join(BUILD, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_digest(record, problems):
    """The engines a seed trains must be identical across runs of a build."""
    path = os.path.join(BUILD, "digests.json")
    key = "%s:%s:%d" % (build_identity(), record["workload"], record["seed"])
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        digests = {}
        if os.path.exists(path):
            with open(path) as f:
                digests = json.load(f)
        seen = digests.setdefault(key, record["digest"])
        if seen != record["digest"]:
            problems.append("engine digest %s differs from %s of an earlier "
                            "run with this seed" % (record["digest"], seen))
        with open(path + ".tmp", "w") as f:
            json.dump(digests, f)
        os.replace(path + ".tmp", path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    # Adopt orphaned descendants (PR_SET_CHILD_SUBREAPER) so they are reaped.
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    build()
    deadline = time.monotonic() + CLIENT_BUDGET_S

    # A traced run also makes the untraced run it is compared with, so the
    # tracing overhead is always measured on this build.
    untraced, workdir = run_client(args.workload, args.seed, args.seconds,
                                   False, deadline)
    shutil.rmtree(workdir, ignore_errors=True)
    record = untraced
    if args.trace:
        record, workdir = run_client(args.workload, args.seed, args.seconds,
                                     True, deadline)

    problems = list(record["problems"]) + (
        [] if record is untraced else list(untraced["problems"]))
    if record["correct"] and untraced["correct"]:
        check_digest(untraced, problems)
        if record is not untraced:
            check_digest(record, problems)
    if args.trace:
        metrics_spec = spec["per_layer"]
        if record["correct"]:
            values = layer_metrics(record, span_table(
                os.path.join(workdir, "trace.json")), untraced, problems)
        else:
            values = {}
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        metrics_spec = spec["end_to_end"]
        values = record["e2e"]
    metrics = {}
    for m in metrics_spec:
        if m["name"] not in values:
            problems.append("no value for " + m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for p in problems:
        print("perfbench: CHECK FAILED: " + p)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
