"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload throughput-cold --seed 1 --seconds 15 --trace 0

The workloads, metrics and units are listed in ``BENCHMARK.json``.  This
launcher only uses the standard library.  It starts ``worker.py``
``SETUP_SAMPLES`` times and times each start until the worker reports
ready; ``setup_s`` is the median of those set-ups.  The last worker goes on
to run the timed phase.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 3
#: Wall-clock budget of one run, set-ups included.
RUN_TIMEOUT = 170.0


class BenchmarkError(Exception):
    pass


def start_worker(args, setup_only, deadline):
    """Start a worker; returns ``(process, seconds until it was ready)``."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, TMPDIR=OUT_DIR)
    start = time.perf_counter()
    # A session of its own: stop() can then end the worker together with
    # anything it started (the service-mix server) if the worker hangs.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                               start_new_session=True)
    ready, _, _ = select.select([process.stdout], [], [], max(deadline - time.monotonic(), 0))
    line = process.stdout.readline() if ready else b""
    elapsed = time.perf_counter() - start
    if line.strip() != b"READY":
        stop(process)
        raise BenchmarkError(f"the worker did not get ready (read {line!r})")
    return process, elapsed


def stop(process):
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the worker and everything it started have ended
    process.wait()
    process.stdout.close()


def run(args, spec):
    deadline = time.monotonic() + RUN_TIMEOUT
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        process, elapsed = start_worker(args, True, deadline)
        try:
            code = process.wait(timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError("a set-up-only worker did not exit") from error
        finally:
            stop(process)
        if code != 0:
            raise BenchmarkError(f"a set-up-only worker exited with {code}")
        setups.append(elapsed)
    process, elapsed = start_worker(args, False, deadline)
    setups.append(elapsed)
    try:
        output, _ = process.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError("the worker ran out of time") from error
    finally:
        stop(process)
    if process.returncode != 0:
        raise BenchmarkError(f"the worker exited with {process.returncode}")
    result = json.loads(output.decode().strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    names = [metric["name"] for metric in wanted]
    if sorted(values) != sorted(names):
        raise BenchmarkError(f"the worker reported {sorted(values)}, expected {sorted(names)}")
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in [workload["name"] for workload in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("run.py: no program to measure: src/repro is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = run(args, spec)
    except BenchmarkError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
