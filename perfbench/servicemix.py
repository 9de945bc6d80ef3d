"""The service-mix workload: ``repro serve`` driven over HTTP by two clients.

The server runs as its own process on an ephemeral port, with its cache
and job-state directories in a fresh temporary directory under the
benchmark's output directory.  Two client threads, one keep-alive
connection each, run a closed loop: submit a job, poll it at a fixed
interval until it ends, submit the next.  Each thread's stream is a
sequence of blocks (see ``grids.service_block``): first-seen nets, which
the server builds and stores, then exact repeats and reordered
resubmissions of the same nets, which it serves from its cache.

The server's own layers cannot be spanned from outside.  A traced run
times the same public functions on the same payloads in this process
instead, and splits queue time from run time with the job records.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from worker import ROOT, Tally, peak_rss_mb

#: Interval between two polls of a running job.
POLL_SECONDS = 0.002
#: Longest a single job may take before it counts as failed.
JOB_TIMEOUT = 60.0
BOOT_TIMEOUT = 60.0
TERMINAL = ("done", "error", "cancelled", "interrupted")


class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, out_dir):
        # A process started with SIGINT ignored (a shell's background job)
        # passes that on to its children, and the server would never see
        # the SIGINT that stops it.  A handler is reset to the default on exec.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        self.workdir = tempfile.mkdtemp(prefix="service-", dir=out_dir)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=self.workdir)
        self.log = open(os.path.join(self.workdir, "server.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2",
             "--cache-dir", os.path.join(self.workdir, "cache"),
             "--state-dir", os.path.join(self.workdir, "state")],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        self.port = None

    def wait_healthy(self):
        """Read the bound port from the banner, then poll ``/healthz`` until ok."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        banner = b""
        while self.port is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("the server did not start")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                banner += os.read(self.process.stdout.fileno(), 4096)
                if b"listening on http://" in banner and banner.endswith(b"\n"):
                    address = banner.split(b"listening on http://")[1].split()[0]
                    self.port = int(address.rsplit(b":", 1)[1])
        while time.monotonic() < deadline:
            connection = self.connect()
            try:
                status, body = request(connection, "GET", "/healthz")
            except OSError:
                time.sleep(0.01)
                continue
            finally:
                connection.close()
            if status == 200 and body["status"] == "ok":
                return
            time.sleep(0.01)
        raise RuntimeError("the server never reported healthy")

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT)

    def stop(self):
        """SIGINT, then wait; returns whether the server exited cleanly."""
        clean = False
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                clean = self.process.wait(timeout=30) == 0
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()
        if clean:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return clean


def request(connection, method, path, payload=None):
    body = None if payload is None else json.dumps(payload)
    headers = {} if body is None else {"Content-Type": "application/json"}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


class ServiceMix:
    def __init__(self, seed, trace, out_dir):
        # Boot the server first: it imports and starts while this process
        # imports the program and generates the payloads.
        self.server = Server(out_dir)
        import grids
        import oracle
        from repro.petri.io.jsonio import net_to_dict
        from tracing import Tracer

        self.grids = grids
        self.expected = oracle.load()["service-mix"]
        self.check = oracle.check
        self.seed = seed
        self.trace = trace
        self.tally = Tally()
        self.tracer = Tracer()
        self.payloads = {item["label"]: net_to_dict(grids.build_net(item["point"]))
                         for item in grids.SERVICE_ITEMS}
        self.records = []  # (block, kind, latency, polls, job record)
        self.replayed = []  # the jobs of the blocks the traced run replays
        self.lock = threading.Lock()
        self.start = threading.Barrier(2)
        self.started = None
        self.blocks = 0
        self.server.wait_healthy()
        self.clean_exit = None

    def close(self):
        if self.clean_exit is None:
            self.clean_exit = self.server.stop()
            if not self.clean_exit:
                raise RuntimeError("the server did not exit cleanly on SIGINT")

    # -- the HTTP phase --------------------------------------------------

    def client(self, thread, seconds):
        """One closed-loop client: a warm-up block, then measured blocks.

        The warm-up block (checked, not measured) lets the server finish its
        lazy imports and first compilations; both clients start measuring
        together once both have finished it.
        """
        rng = random.Random(f"{self.seed}-{thread}")
        connection = self.server.connect()
        block = 0
        try:
            deadline = None
            while deadline is None or time.perf_counter() < deadline:
                if block == 1:
                    if self.start.wait(timeout=JOB_TIMEOUT) == 0:
                        self.started = time.perf_counter()
                    deadline = time.perf_counter() + seconds
                jobs = self.grids.service_block(self.payloads, thread, block, rng)
                if self.trace and block == 1:
                    with self.lock:
                        self.replayed += jobs
                for item, prefix, kind, job in jobs:
                    if self.trace and block % 2 == 1:
                        with self.tracer.span("service.job", block):
                            self.submit(connection, block, item, prefix, kind, job)
                    else:
                        self.submit(connection, block, item, prefix, kind, job)
                block += 1
        finally:
            connection.close()
            with self.lock:
                self.blocks += block

    def submit(self, connection, block, item, prefix, kind, job):
        label = item["label"]
        with self.lock:
            self.tally.attempted += 1
        start = time.perf_counter()
        polls = 0
        try:
            status, record = request(connection, "POST", "/jobs", job)
            if status != 202:
                raise RuntimeError(f"POST /jobs answered {status}: {record}")
            path = f"/jobs/{record['id']}"
            while record["status"] not in TERMINAL:
                if time.perf_counter() - start > JOB_TIMEOUT:
                    raise RuntimeError("job timed out")
                if polls:
                    time.sleep(POLL_SECONDS)
                polls += 1
                status, record = request(connection, "GET", path)
                if status != 200:
                    raise RuntimeError(f"GET {path} answered {status}")
        except (OSError, RuntimeError, http.client.HTTPException) as error:
            with self.lock:
                self.tally.fail(label, f"{type(error).__name__}: {error}", wrong=0)
            connection.close()
            return
        latency = time.perf_counter() - start
        problems = [] if record["status"] == "done" else [f"job ended {record['status']}"]
        if not problems:
            problems = self.check(item["kind"], self.expected[label],
                                  self.summary(item, prefix, record["result"]))
        with self.lock:
            if problems:
                self.tally.fail(label, "; ".join(problems), wrong=1)
            elif block > 0:
                self.records.append((block, kind, latency, polls, record))

    def summary(self, item, prefix, result):
        kind = item["kind"]
        accept = item["point"]["accept"]
        if kind == "performance":
            return {"states": result["states"],
                    "cycle_time": result["cycle_time"]["exact"],
                    "throughput": {name: result["throughput"][prefix + name]["exact"]
                                   for name in accept}}
        if kind == "decision":
            return {"states": result["states"], "decision_nodes": result["anchors"],
                    "decision_edges": result["edges"]}
        if kind == "untimed":
            return {"states": result["states"], "edges": result["edges"]}
        if kind == "gspn":
            return {"tangible_states": result["tangible_states"],
                    "throughput": {name: result["throughput"][prefix + name]
                                   for name in accept}}
        return {"found": result["found"], "states_explored": result["states_explored"],
                "witness_depth": result.get("witness_depth")}

    def run(self, seconds):
        threads = [threading.Thread(target=self.client, args=(index, seconds))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        duration = time.perf_counter() - self.started
        connection = self.server.connect()
        try:
            _status, self.cache_stats = request(connection, "GET", "/cache/stats")
        finally:
            connection.close()
        rss = peak_rss_mb(self.server.process.pid)
        self.clean_exit = self.server.stop()
        if not self.clean_exit:
            self.tally.fail("server", "did not exit cleanly on SIGINT", wrong=0)
        if self.trace:
            return self.layer_metrics()
        tally = self.tally
        for _block, _kind, latency, _polls, record in self.records:
            tally.latencies.append(latency)
            if record["cache"]["tier"] != "built":
                tally.hit_latencies.append(latency)
                continue
            tally.build_latencies.append(latency)
            result = record["result"]
            tally.states += result.get(
                "states", result.get("tangible_states", result.get("states_explored")))
            tally.state_seconds += latency
        metrics = tally.end_to_end("service-mix", duration)
        metrics["peak_rss_mb"] = rss
        return metrics

    # -- the traced run --------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of a traced run.

        Client-side spans wrap the jobs of odd blocks; the tracing overhead
        compares their mean latency with that of the measured even blocks.
        """
        records = self.records
        jobs = [entry[4] for entry in records]
        queue = [job["started_at"] - job["submitted_at"] for job in jobs]
        running = [job["finished_at"] - job["started_at"] for job in jobs]
        overhead = [latency - (job["finished_at"] - job["submitted_at"])
                    for _b, _k, latency, _p, job in records]
        tiers = [job["cache"]["tier"] for job in jobs]
        cache = self.cache_stats["cache"]
        lookups = cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
        metrics = {
            "service.queue_wait_s": statistics.mean(queue),
            "service.run_s": statistics.mean(running),
            "service.client_overhead_s": statistics.mean(overhead),
            "service.polls_per_job": statistics.mean(entry[3] for entry in records),
            "service.tier_built_ratio": tiers.count("built") / len(tiers),
            "service.tier_memory_ratio": tiers.count("memory") / len(tiers),
            "service.canonicalized_ratio":
                sum(job["net"]["canonicalized"] for job in jobs) / len(jobs),
        }
        traced = [entry[2] for entry in records if entry[0] % 2 == 1]
        untraced = [entry[2] for entry in records if entry[0] % 2 == 0]
        metrics.update(self.replay())
        metrics["analysis.hit_ratio"] = (cache["memory_hits"] + cache["disk_hits"]) / lookups
        metrics["analysis.bytes_stored"] = cache["disk_bytes"] / self.blocks
        metrics["trace.overhead_ratio"] = statistics.mean(traced) / statistics.mean(untraced) - 1
        return metrics

    def replay(self):
        """Time the layers the server runs, on the payloads of one block per client.

        Builds run layer by layer (``stages.layered``, with the decode a
        disk hit would do); repeats and reordered resubmissions parse,
        fingerprint and fetch from a memory-only session, as the server
        does with the net it elected for that content.
        """
        from repro.analysis import AnalysisSession
        from repro.petri.fingerprint import net_fingerprint
        from repro.petri.io.jsonio import net_from_dict
        from stages import Counts, layered, session_key, unexpected_build
        from worker import cache_counters, layer_metrics

        counts = Counts()
        session = AnalysisSession()
        elected = {}
        before = cache_counters()
        for op, (item, prefix, kind, job) in enumerate(self.replayed, start=1):
            params = job["params"]
            with self.tracer.span("op", op):
                with self.tracer.span("petri.parse", op):
                    net = net_from_dict(job["net"])
                with self.tracer.span("petri.fingerprint", op):
                    fingerprint = net_fingerprint(net)
                net = elected.setdefault(fingerprint, net)
                if kind == "build":
                    accept = tuple(prefix + name for name in item["point"]["accept"])
                    artifact, _summary = layered(self.tracer, op, counts, item["kind"], net,
                                                 params, accept, decode=True)
                    if "full_states" in self.expected[item["label"]]:
                        counts.add("query_full", self.expected[item["label"]]["full_states"])
                    session.fetch_tiered(net, *session_key(item["kind"], params),
                                         lambda: artifact, encode=lambda _a: b"")
                else:
                    with self.tracer.span("analysis.fetch_hit", op):
                        session.fetch_tiered(net, *session_key(item["kind"], params),
                                             unexpected_build)
        after = cache_counters()
        deltas = {key: after[key] - before[key] for key in after}
        # One replayed block per client thread.
        return layer_metrics(self.tracer, len(self.replayed), counts.values, 2, deltas)
