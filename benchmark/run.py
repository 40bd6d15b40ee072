"""The conjugations benchmark: one workload, one run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from source
(``src/`` on PYTHONPATH of every worker and CLI process).

--trace 0 measures the end-to-end metrics: the worker is set up from a
fresh process at least SETUPS_MIN times and until SETUP_BUDGET_S seconds of
set-up are timed, at most SETUPS_MAX times (setup_s is the median), and the
last one runs jobs for S seconds.  --trace 1 measures the per-layer metrics:
one worker alternates untraced and traced jobs for 2S/3 seconds, then a
second worker with OPENBLAS_NUM_THREADS=1 in its environment only (inherited
by its CLI processes) runs untraced jobs for S/3 seconds.  Every job's
outputs are checked by checker.py.  The last line of stdout is the JSON
result {"correct", "attempted", "failed", "metrics"}, with the metrics and
units BENCHMARK.json lists; the full record, with the environment, goes to
.bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import envinfo
import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 7, 12.0
# Every worker is killed 2 * --seconds + RUN_MARGIN_S after the run starts; the
# margin covers the set-ups, the job that overruns the clock and the probes.
RUN_MARGIN_S = 100
INTERP_PROBES = 5


def metric_units(root):
    """(end-to-end, per-layer) metric names with their units, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


class WorkerProcess:
    """A worker.py child: set-up is timed from spawn to its ready line, less the checks."""

    def __init__(self, root, workload, seed, tiny, deadline, extra_env=None):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.update(extra_env or {})
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
               "tiny" if tiny else "full"]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.killer = threading.Timer(max(deadline - time.monotonic(), 0), self.proc.kill)
        self.killer.start()
        try:
            ready = self._read()
            self.setup_s = time.perf_counter() - start - ready["check_s"]
            self.warmup_failures = ready["warmup_failures"]
        except RuntimeError:
            self.close()
            raise

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited early with code {self.proc.wait()}")
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            raise RuntimeError(f"worker sent {line[:80]!r}") from None

    def request(self, req):
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
            return self._read()
        finally:
            self.close()

    def close(self):
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()  # a worker waiting for its request stops
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.killer.cancel()
        self.proc.stdout.close()


def tail(latencies):
    """(value, percentile, samples beyond) of the tail latency.

    The percentile is the highest one with ten samples beyond it, but never
    below p90: a run of fewer than 100 jobs reports p90 and records how few
    samples lie beyond it.  Quantiles interpolate linearly between samples.
    """
    xs = sorted(latencies)
    n = len(xs)
    pct = max(90.0, 100.0 * (n - 10) / n)
    pos = (n - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, pct, sum(1 for x in xs if x > value)


def end_to_end(setups, res):
    lat = res["latencies"]
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(lat) / res["timed_s"],
        "job_p50_s": statistics.median(lat),
        "job_tail_s": value,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {
        "error_rate": res["failed"] / res["attempted"],
        "job_tail_percentile": pct,
        "job_tail_samples_beyond": beyond,
        "job_samples": len(lat),
        "setup_samples_s": setups,
    }
    return metrics, extra


def interp_start_s(root):
    times = []
    for _ in range(INTERP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(names, res, single, interp):
    """Per-layer metrics, and the names of those whose layer recorded no span.

    The result line carries every listed metric; one whose layer the
    workload never reached reads 0 there and is reported as not reached.
    """
    reached = set(res["layers"]) | {"trace", "blas"}
    layer = {}
    for name in names:
        values = [job[name] for job in res["layer"] if name in job]
        layer[name] = statistics.median(values) if values else 0
    if "cli" in reached:
        layer["cli.interp_start_s"] = interp
        layer["cli.import_s"] = statistics.median(res["cli_import_s"])
        layer["cli.bytes_in"] = statistics.median(b[0] for b in res["cli_bytes"])
        layer["cli.bytes_out"] = statistics.median(b[1] for b in res["cli_bytes"])
    layer["trace.overhead_ratio"] = (
        statistics.median(res["traced_latencies"]) / statistics.median(res["latencies"])
    )
    layer["blas.threads"] = max(res["blas_threads"].values(), default=0)
    layer["blas.single_thread_job_p50_s"] = statistics.median(single["latencies"])
    not_reached = [name for name in names if name.partition(".")[0] not in reached]
    return {name: layer[name] for name in names}, not_reached


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "conjugations", "__init__.py")):
        print(f"error: {root} holds no src/conjugations; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        end_to_end_units, per_layer_units = metric_units(root)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot read the metrics of {root}/BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + 2 * args.seconds + RUN_MARGIN_S
    spawn = lambda **kw: WorkerProcess(root, args.workload, args.seed, args.tiny, deadline, **kw)  # noqa: E731
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    results, warmup_failures = [], []

    if args.trace == 0:
        setups = []
        while True:
            w = spawn()
            setups.append(w.setup_s)
            warmup_failures += w.warmup_failures
            if len(setups) == SETUPS_MAX or (
                    len(setups) >= SETUPS_MIN and sum(setups) >= SETUP_BUDGET_S):
                break
            w.close()
        res = w.request({"mode": "plain", "seconds": args.seconds, "stream": 0})
        results.append(res)
    else:
        w = spawn()
        warmup_failures += w.warmup_failures
        res = w.request({"mode": "traced", "seconds": args.seconds * 2 / 3, "stream": 0,
                         "spans_file": os.path.join(out_dir, f"spans-{tag}.jsonl")})
        w = spawn(extra_env={"OPENBLAS_NUM_THREADS": "1"})
        warmup_failures += w.warmup_failures
        single = w.request({"mode": "plain", "seconds": args.seconds / 3, "stream": 2})
        results += [res, single]

    attempted = sum(r["attempted"] for r in results) + len(warmup_failures)
    failed = sum(r["failed"] for r in results) + len(warmup_failures)
    failures = warmup_failures + [f for r in results for f in r["failures"]]
    if not all(r["latencies"] for r in results) or (args.trace and not res["traced_latencies"]):
        for f in failures:
            print(f"FAILED {f}", file=sys.stderr)
        print("error: a phase of the run had no job pass its checks; nothing to time", file=sys.stderr)
        return 1
    if args.trace == 0:
        metrics, extra = end_to_end(setups, res)
        metrics = {name: metrics[name] for name in end_to_end_units}
        units = end_to_end_units
    else:
        interp = interp_start_s(root) if "cli" in res["layers"] else None
        metrics, not_reached = per_layer(per_layer_units, res, single, interp)
        extra = {"traced_jobs": len(res["traced_latencies"]), "untraced_jobs": len(res["latencies"]),
                 "not_reached": not_reached}
        units = per_layer_units
    env = envinfo.record(root, args.workload, args.seed, res["blas_threads"])
    record = {"environment": env, "metrics": metrics, "details": extra,
              "attempted": attempted, "failed": failed, "failures": failures}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, value in metrics.items():
        if args.trace and name in extra["not_reached"]:
            print(f"  {name:40s} not reached on this workload (0 in the result line)")
        else:
            print(f"  {name:40s} {value:.6g} {units[name]}")
    if args.trace == 0:
        print(f"  {'error_rate':40s} {extra['error_rate']:.6g} ratio")
        print(f"  job_tail_s is the p{extra['job_tail_percentile']:.4g} latency "
              f"({extra['job_tail_samples_beyond']} samples beyond, {extra['job_samples']} jobs)")
    for f in failures:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
