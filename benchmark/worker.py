"""Benchmark worker: one fresh process per set-up.

    python benchmark/worker.py WORKLOAD SEED full|tiny

Set-up is the process start, ``import conjugations``, the inputs and files of
one warm-up job, and that job.  The warm-up job is checked too, and the
worker then prints one JSON line {"ready": ..., "check_s": ...}, with the
time the checks took, on its protocol channel (its original stdout; anything
else the process prints goes to stderr) and reads stdin: at end of input it
exits, otherwise it takes one JSON request {"mode": "plain" | "traced",
"seconds": s, "stream": k}, runs that many seconds of jobs, prints one JSON
result line and exits.

Jobs form a closed loop with one client: each job's inputs are drawn from
the generator seeded (seed, stream, job index) and written before the job's
clock starts, and its outputs are checked after the clock stops, for the
in-process workloads in a forked child.  In "traced" mode every other job
runs with spans recorded.
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import checker
import envinfo
import jobs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WARMUP_STREAM = 1


def in_child(check):
    """Run check() in a forked child and return its list of failures.

    The check's arrays then never count in this process's ru_maxrss, the
    peak_rss_mb of the in-process workloads.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                fails = check()
            except Exception:
                fails = ["check raised " + traceback.format_exc().strip().splitlines()[-1]]
            with os.fdopen(w, "w") as fh:
                json.dump(fails, fh)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else ["the checking process died"]


class Worker:
    def __init__(self, workload, seed, tiny, workdir):
        self.workload = workload
        self.seed = seed
        self.size = (jobs.TINY_SIZES if tiny else jobs.SIZES)[workload]
        self.workdir = workdir
        self.cli = workload == "cli-roundtrip"
        self.spans = []          # every traced job's spans, job id set
        self.layer = []          # per traced job: per-layer metric dict
        self.layers = set()      # layers (span name prefixes) the traced jobs reached
        self.cli_bytes = []
        self.cli_imports = []
        self.check_s = 0.0       # time the last job's checks took

    def prepare(self, stream, index):
        rng = np.random.default_rng([self.seed, stream, index])
        inp = jobs.make_input(self.workload, rng, self.size)
        paths = None
        if self.cli:
            jobdir = os.path.join(self.workdir, f"job-{stream}-{index}")
            os.makedirs(jobdir, exist_ok=True)
            paths = jobs.write_cli_inputs(inp, jobdir)
        return inp, paths

    def run_job(self, inp, paths, tracer):
        """Time one job; returns (latency, check failures, cli steps or None)."""
        if self.cli:
            jobdir = os.path.dirname(paths["U"])

            def launch(argv):
                if tracer is None:
                    return [sys.executable, "-m", "conjugations.cli", *argv]
                return [sys.executable, os.path.join(HERE, "cli_child.py"),
                        os.path.join(jobdir, f"spans-{argv[0]}.jsonl"), *argv]

            t0 = time.perf_counter()
            steps = jobs.cli_job(jobs.cli_argvs(paths, inp["sample_seed"]), launch)
            latency = time.perf_counter() - t0
            fails = checker.check_cli_job(inp, [s[:3] for s in steps], paths["C"], paths["P"])
            self.check_s = time.perf_counter() - t0 - latency
            return latency, fails, steps
        models = self.workload == "models"
        uninstall = spans.install(tracer) if tracer else None
        t0 = time.perf_counter()
        try:
            out = jobs.models_job(inp) if models else jobs.matrix_job(inp)
        finally:
            latency = time.perf_counter() - t0
            if uninstall:
                uninstall()
        if models:
            fails = in_child(lambda: checker.check_models_job(inp, jobs.models_operators(inp, out)))
        else:
            fails = in_child(lambda: checker.check_matrix_job(inp, out))
        self.check_s = time.perf_counter() - t0 - latency
        return latency, fails, None

    def attempt(self, stream, index, traced):
        """Prepare, run and check one job; returns (latency, failures)."""
        inp, paths = self.prepare(stream, index)
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.job = index
        try:
            latency, fails, steps = self.run_job(inp, paths, tracer)
            if steps is not None:
                self.cli_bytes.append(jobs.cli_bytes(paths, steps))
                if tracer:
                    self.merge_cli_spans(tracer, steps, os.path.dirname(paths["U"]))
        except Exception:
            # a step that raises fails the job; the loop goes on
            return None, [traceback.format_exc().strip().splitlines()[-1]]
        finally:
            if paths:
                shutil.rmtree(os.path.dirname(paths["U"]), ignore_errors=True)
        if tracer:
            self.layer.append(spans.job_metrics(tracer.spans))
            self.layers.update(span[spans.NAME].partition(".")[0] for span in tracer.spans)
            self.spans.extend(tracer.spans)
        return latency, fails

    def merge_cli_spans(self, tracer, steps, jobdir):
        """Hang each child's spans under a span for its step."""
        for cmd, _, _, start, end in steps:
            sid = tracer.begin(f"cli-step.{cmd}")
            tracer.end(sid)
            tracer.spans[sid][spans.START], tracer.spans[sid][spans.END] = start, end
            child = spans.load(os.path.join(jobdir, f"spans-{cmd}.jsonl"))
            offset = len(tracer.spans)
            for span in child:
                span[spans.PARENT] = sid if span[spans.PARENT] < 0 else span[spans.PARENT] + offset
                span[spans.JOB] = tracer.job
                if span[spans.NAME] == "cli.import":
                    self.cli_imports.append(span[spans.END] - span[spans.START])
            tracer.spans.extend(child)

    def loop(self, mode, seconds, stream):
        deadline = time.perf_counter() + seconds
        plain, traced, failures = [], [], []
        attempted, timed = 0, 0.0
        # at least three jobs, and in traced mode one of each kind
        while time.perf_counter() < deadline or attempted < 3:
            with_spans = mode == "traced" and attempted % 2 == 1
            latency, fails = self.attempt(stream, attempted, with_spans)
            attempted += 1
            timed += latency or 0.0
            if fails:
                failures.append(f"job {attempted - 1}: " + "; ".join(fails))
            elif with_spans:
                traced.append(latency)
            else:
                plain.append(latency)
        if self.cli:
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:20],
            "timed_s": timed,
            "latencies": plain,
            "traced_latencies": traced,
            "peak_rss_mb": rss / 1024.0,
            "blas_threads": envinfo.blas_threads(),
            "layer": self.layer,
            "layers": sorted(self.layers),
            "cli_bytes": self.cli_bytes,
            "cli_import_s": self.cli_imports,
        }


def main():
    workload, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "tiny"
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    workdir = os.path.join(os.getcwd(), ".bench_out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if workload != "cli-roundtrip":
            import conjugations  # noqa: F401
        worker = Worker(workload, seed, tiny, workdir)
        _, warmup_fails = worker.attempt(WARMUP_STREAM, 0, False)
        proto.write(json.dumps({"ready": True, "warmup_failures": warmup_fails,
                                "check_s": worker.check_s}) + "\n")
        proto.flush()
        line = sys.stdin.readline()
        if not line:
            return 0
        req = json.loads(line)
        result = worker.loop(req["mode"], req["seconds"], req["stream"])
        if "spans_file" in req:
            spans.dump(worker.spans, req["spans_file"])
        proto.write(json.dumps(result) + "\n")
        proto.flush()
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
