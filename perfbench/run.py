#!/usr/bin/env python3
"""Service benchmark: builds perfbench_driver from this checkout's sources,
runs one workload, checks its outputs and prints one result line.

    python3 perfbench/run.py --workload topk_exact|topk_banded|ingest_read \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload, small, both modes

Run from the root of a checkout. The driver is built with CMake into
.bench_build/perfbench (perfbench/CMakeLists.txt compiles ../src itself).
The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
ones: it makes the untraced run, then a traced run of the same seed, which
runs the same phases with a span (name, start, end, parent, request id)
around every call the benchmark makes into the service, then calls each
layer directly. Spans go to .bench_build/perfbench/run/. trace.overhead is
the traced run's topk_p50_ms over the untraced run's, minus 1.
The line before the result is the run's configuration (nproc, SIMD kernel,
build type, pool width, seed, catalog size, rates, window, host CPU
steal, validity), so numbers from different hosts are never compared
silently.

BENCHMARK.json gates topk_exact and topk_banded. ingest_read (one writer
streaming single inserts beside banded reads) runs and checks the same way
but is not gated: on a 4-vCPU shared host its read tail, estimate latency
and insert figures moved 20-45% between runs of the same code, with the
host's CPU steal, wider than the largest bound the gate allows.

Host interference: a one-second open-loop window or a saturated
sub-window in which the hypervisor stole more than 2% of the machine's CPU
time is left out of the figures; if that would leave under half of them,
the half with the least steal is kept. Runs with 2-8% steal had shown
banded TopK p90 5-30x higher on identical code. A run in which most
stretches were stolen, or whose open-loop generator ran late (p90 over
1 ms), is marked "valid": false in its configuration line, with the
reason, and warned about on stderr. That mark is not a failed check: the
program's answers are still checked, and the run still reports figures.

Every workload reports every end-to-end metric:
  setup_s          median catalog set-up (ingest calls + index attach +
                   front door); generating raw vectors is not timed
  restart_s        save -> load -> index attach -> first successful TopK
  topk_p50_ms/p90  open-loop TopK latency from the scheduled send time;
                   median over one-second windows of the window percentile
  topk_qps         saturated window of TopK requests, median sub-window rate
  topk_ok_ratio    OK open-loop TopK answers / attempted (shed = failed)
  recall_at_10     mean recall of the served top-10 against the brute-force
                   top-10 by exact <q, x> over the final catalog
  ip_err           mean |estimate - <a, b>| / (|a| |b|) over the estimate
                   pairs (8 to 64 of 64 support coordinates shared)
  estimate_p50_us  SubmitEstimate latency: open-loop arrivals beside the
                   TopKs, windowed like TopK (topk_banded, ingest_read);
                   one request at a time over every pair after each
                   open-loop block (topk_exact, which has TopK arrivals only)
  ingest_vps, ingest_p50_us, ingest_p90_us
                   batch path per 1024-vector chunk (topk_*), single
                   BuildAndInsert calls under reads (ingest_read)
  rss_bytes_per_sketch  RSS growth while the catalog is built / sketches
  peak_rss_mb      VmHWM at the end of the run

Seeds 1-35, 101-110, 201-210, 301-304, 401-410, 501-561, 601-625,
701-710, 801, 901-910, 1001-1010, 1101-1102, 1201 and 1301-1310 were used
while the benchmark was tuned and checked; seed 20231 is held out for
confirming later performance claims.

Exit codes: 0 ok, 1 a correctness check failed (the result line still
prints, with "correct": false), 2 build or driver failure (no result line).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(BUILD_DIR, "run")
WORKLOADS = ("topk_exact", "topk_banded", "ingest_read")
# One invocation must end within 180 s, both driver runs of --trace 1
# included.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "restart_s": "s",
    "topk_p50_ms": "ms",
    "topk_p90_ms": "ms",
    "topk_qps": "1/s",
    "topk_ok_ratio": "ratio",
    "recall_at_10": "ratio",
    "ip_err": "ratio",
    "estimate_p50_us": "us",
    "ingest_vps": "1/s",
    "ingest_p50_us": "us",
    "ingest_p90_us": "us",
    "rss_bytes_per_sketch": "B",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sketch.query_us": "us",
    "sketch.ingest_us": "us",
    "sketch.estimate_ns": "ns",
    "store.insert_us_p50": "us",
    "store.insert_us_p90": "us",
    "store.insert_growth": "ratio",
    "store.pin_us": "us",
    "store.resident_bytes_per_sketch": "B",
    "engine.topk_us": "us",
    "engine.scan_us": "us",
    "engine.probe_us": "us",
    "engine.merge_us": "us",
    "engine.scanned_per_query": "count",
    "index.band_keys_us": "us",
    "index.probe_us": "us",
    "index.candidates_per_query": "count",
    "index.buckets_per_query": "count",
    "index.useful_ratio": "ratio",
    "index.attach_s": "s",
    "frontdoor.queue_wait_us": "us",
    "frontdoor.batch_mean": "count",
    "frontdoor.shed": "count",
    "frontdoor.expired": "count",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "persist.file_bytes_per_sketch": "B",
    "gen.late_p90_us": "us",
    "trace.overhead": "ratio",
    "trace.reconcile": "ratio",
}

# Output checks beyond the driver's own (every answer OK, every answer
# equal to its sweep reference, restart answers unchanged, generator on
# schedule, trace stages reconciling with engine.topk).
MIN_RECALL_AT_10 = 0.9  # against the brute-force top-10 by exact <q, x>
MAX_IP_ERR = 0.2  # mean |est - <a, b>| / (|a| |b|) over the estimate pairs
MIN_RSS_OVER_RESIDENT = 0.9  # RSS growth per sketch vs the store's accounting


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD_DIR, "perfbench_driver")


def run_driver(binary, workload, seed, seconds, trace, smoke, deadline):
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", RUN_DIR]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        sys.exit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: driver failed with exit code %d" % proc.returncode)
        sys.exit(2)
    return json.loads(lines[-1])


def histogram_mean(before, after, name):
    a = after["histograms"].get(name, {"count": 0, "sum": 0})
    b = before["histograms"].get(name, {"count": 0, "sum": 0})
    count = a["count"] - b["count"]
    return (a["sum"] - b["sum"]) / count if count > 0 else 0.0


def counter_delta(before, after, name):
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def frontdoor_metrics(reg):
    """Front-door layer metrics from the registry's RenderJson snapshots."""
    return {
        "frontdoor.queue_wait_us": histogram_mean(
            reg["open_start"], reg["open_end"],
            "ipsketch_frontdoor_queue_wait_ns") / 1e3,
        "frontdoor.batch_mean": histogram_mean(
            reg["saturated_start"], reg["saturated_end"],
            "ipsketch_frontdoor_batch_size"),
        "frontdoor.shed": counter_delta(
            reg["run_start"], reg["run_end"], "ipsketch_frontdoor_shed_total"),
        "frontdoor.expired": counter_delta(
            reg["run_start"], reg["run_end"],
            "ipsketch_frontdoor_deadline_expired_total"),
    }


def output_checks(doc):
    """Value checks on the run's answers; returns a list of failures."""
    e2e, layer = doc["e2e"], doc["layer"]
    failures = list(doc["failed_checks"])
    if e2e["recall_at_10"] < MIN_RECALL_AT_10:
        failures.append("recall_at_10 %.4f < %.2f" %
                        (e2e["recall_at_10"], MIN_RECALL_AT_10))
    if not e2e["ip_err"] <= MAX_IP_ERR:
        failures.append("ip_err %.4f > %.2f" % (e2e["ip_err"], MAX_IP_ERR))
    resident = layer["store.resident_bytes_per_sketch"]
    if "rss_bytes_per_sketch" in e2e and \
            e2e["rss_bytes_per_sketch"] < MIN_RSS_OVER_RESIDENT * resident:
        failures.append(
            "rss_bytes_per_sketch %.0f below %.1fx the store's resident "
            "%.0f B/sketch" % (e2e["rss_bytes_per_sketch"],
                               MIN_RSS_OVER_RESIDENT, resident))
    if doc["failed"] != 0:
        failures.append("%d requests failed" % doc["failed"])
    return failures


def result(doc, trace, untraced=None):
    """The result line of one run; a traced run also takes the untraced
    run of the same seed, whose checks count too."""
    failures = output_checks(doc)
    attempted, failed = doc["attempted"], doc["failed"]
    if trace:
        values = dict(doc["layer"])
        values.update(frontdoor_metrics(doc["registry"]))
        base = untraced["e2e"]["topk_p50_ms"]
        values["trace.overhead"] = (doc["e2e"]["topk_p50_ms"] / base - 1.0
                                    if base > 0 else None)
        failures += ["untraced run: " + f for f in output_checks(untraced)]
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        table = PER_LAYER
    else:
        values = doc["e2e"]
        table = END_TO_END
    metrics = {}
    for name, unit in table.items():
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append("metric %s missing" % name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not failures, "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}, failures


def run_one(binary, workload, seed, seconds, trace, smoke=False):
    deadline = time.monotonic() + DEADLINE_S
    untraced = None
    if trace:
        untraced = run_driver(binary, workload, seed, seconds, False, smoke,
                              deadline)
    doc = run_driver(binary, workload, seed, seconds, trace, smoke, deadline)
    line, failures = result(doc, trace, untraced)
    for failure in failures:
        log("perfbench: check failed: " + failure)
    return doc, line


def smoke(binary):
    """Every workload at smoke size, both modes: every metric named in
    BENCHMARK.json must be emitted with its unit, and every check pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            _, line = run_one(binary, workload, 1, 2, trace, smoke=True)
            wanted = spec["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                got = line["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    log("smoke: %s trace=%d: %s missing or wrong unit (%r)" %
                        (workload, trace, metric["name"], got))
                    ok = False
            if not line["correct"]:
                ok = False
            log("smoke: %s trace=%d: %d metrics, correct=%s" %
                (workload, trace, len(line["metrics"]), line["correct"]))
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.smoke:
        return smoke(binary)
    doc, line = run_one(binary, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print(json.dumps({"config": doc["info"]}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
