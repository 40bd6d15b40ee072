#!/usr/bin/env python3
"""Time the phases of real CLI processes and print one JSON line.

One job is the benchmark's round trip at size n: `sample -o C`, `verify`,
`decompose -o P` on a self-dual U (n/2 - 2 distinct conjugate pairs, a +1
and a -1 block of two, in a Haar basis) and a `canonical` on a Haar V that
is refused.  Each job writes its outputs into a fresh directory, as the
benchmark's jobs do.  Every command runs in a fresh process that enters
through conjugations.cli.main(), as the console script does.  Each process
is cut into four phases, in milliseconds:

- start: from the spawn to the first line of the child's own code
  (interpreter start-up);
- import: `import conjugations.cli`, numpy included;
- run: conjugations.cli.run(), from reading the files to writing the output;
- exit: from run() returning to the spawner seeing the process end
  (main()'s exit, the interpreter's finalization, closing the pipes).

Each process also reports its own peak resident size once run() returns:
getrusage(RUSAGE_SELF).ru_maxrss, read as KiB (Linux) and printed in MiB as
peak_mb.  It counts the command's process alone, not a child it forks for
the JSON codec.

The line holds the median of each phase and of peak_mb per command over
--reps jobs, the median job time, the numpy version and the CPU count.  A
command that exits with another code than the round trip's 0/0/0/3, or
prints anything on stderr besides its summary line, stops the script with
exit 1.  Stamps are
time.monotonic(), one clock for every process of the host.  Compare two
checkouts on one host by running each in turn:
PYTHONPATH=src python3 scripts/time_cli.py [--n 256] [--reps 15]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from conjugations.cli import matrix_to_dict, save_json
from conjugations.linalg import haar_unitary

CHILD = """\
import resource, sys, time
t_main = time.monotonic()
import conjugations.cli as cli
t_import = time.monotonic()
run = cli.run
def timed(argv):
    code = run(argv)
    t_run = time.monotonic()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("phases", t_main, t_import, t_run, peak, file=sys.stderr)
    return code
cli.run = timed
cli.main()
"""
PHASES = ("start", "import", "run", "exit")
EXPECTED_CODES = {"sample": 0, "verify": 0, "decompose": 0, "canonical": 3}


def write_inputs(n, workdir, seed=20261019):
    rng = np.random.default_rng(seed)
    angles = rng.choice(np.arange(1, 1000) * (np.pi / 1000), size=n // 2 - 2, replace=False)
    diag = np.concatenate([np.exp(1j * angles), np.exp(-1j * angles), [1, 1, -1, -1]])
    W = haar_unitary(n, rng)
    paths = {k: os.path.join(workdir, f"{k}.json") for k in "UVCP"}
    save_json(paths["U"], matrix_to_dict((W * diag) @ W.conj().T))
    save_json(paths["V"], matrix_to_dict(haar_unitary(n, rng)))
    return paths


def time_process(argv):
    """Phase times (s) and peak resident size (MiB) of one CLI process
    running argv.  Exits when the process's exit code is not the expected
    one, or when its stderr holds anything besides the one summary line and
    the phases line (a warning or a traceback)."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True)
    ended = time.monotonic()
    lines = proc.stderr.splitlines()
    if proc.returncode != EXPECTED_CODES[argv[0]] or len(lines) != 2 or lines[1][:7] != "phases ":
        raise SystemExit(f"{argv[0]} exited {proc.returncode}: {proc.stderr}")
    stamp = lines[1].split()
    t_main, t_import, t_run = map(float, stamp[1:4])
    return t_main - spawned, t_import - t_main, t_run - t_import, ended - t_run, int(stamp[4]) / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--reps", type=int, default=15)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        U, V, _, _ = write_inputs(args.n, workdir).values()
        times = {cmd: [] for cmd in EXPECTED_CODES}
        jobs = []
        for rep in range(args.reps):
            # fresh output files, as the benchmark's jobs have: truncating a
            # multi-MB file written moments before costs ~0.1 s on its own
            jobdir = os.path.join(workdir, f"job-{rep}")
            os.mkdir(jobdir)
            C, P = (os.path.join(jobdir, f"{k}.json") for k in "CP")
            argvs = [["sample", U, "--seed", "7", "-o", C], ["verify", U, C],
                     ["decompose", U, C, "-o", P], ["canonical", V]]
            start = time.monotonic()
            for argv in argvs:
                times[argv[0]].append(time_process(argv))
            jobs.append(time.monotonic() - start)
            shutil.rmtree(jobdir)

    def ms(values):
        return round(statistics.median(values) * 1e3, 2)

    print(json.dumps({
        "n": args.n,
        "reps": args.reps,
        "commands": {cmd: {**{phase: ms([t[k] for t in ts]) for k, phase in enumerate(PHASES)},
                           "peak_mb": round(statistics.median(t[4] for t in ts), 1)}
                     for cmd, ts in times.items()},
        "job_ms": ms(jobs),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }))


if __name__ == "__main__":
    main()
