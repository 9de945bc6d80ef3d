"""End-to-end tests of the analysis service (HTTP/JSON job API).

The contract under test: a net submitted over HTTP is analyzed through
the same content-addressed pipeline as a direct
:class:`~repro.analysis.AnalysisSession` — identical nets (including
reordered declarations of the same content) are answered from the cache
without re-running a builder, the serving tier is reported per job,
cancellation stops a running build at a frontier boundary leaving a
resumable checkpoint, and a warm hit is **bit-identical** to a cold build
by the assertions of the engine differential gate (:mod:`engine_diff`).
"""

from __future__ import annotations

import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from fractions import Fraction

import pytest

from engine_diff import assert_untimed_graphs_identical
from repro.analysis import AnalysisSession
from repro.engine.runtime import Checkpoint
from repro.petri.fingerprint import net_cache_key, net_fingerprint
from repro.petri.io import jsonio
from repro.petri.untimed import reachability_graph
from repro.protocols import simple_protocol_net, sliding_window_net
from repro.service import JobManager, make_server
from repro.service import jobs as jobs_module
from repro.service.server import AnalysisRequestHandler
from repro.service.schemas import (
    MAX_BATCH,
    ServiceError,
    parse_batch,
    parse_job,
)

TERMINAL = ("done", "error", "cancelled", "interrupted")


def window_net(size: int = 2):
    return sliding_window_net(size, loss_probability=Fraction(1, 20))


def net_payload(net) -> dict:
    return jsonio.net_to_dict(net)


class Client:
    """A tiny urllib JSON client against one in-process server."""

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def request(self, method: str, path: str, payload=None):
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def submit(self, net, stage, params=None, **extra):
        body = {"net": net_payload(net), "stage": stage, "params": params or {}}
        body.update(extra)
        status, record = self.request("POST", "/jobs", body)
        assert status == 202, record
        return record

    def wait(self, job_id: str, timeout: float = 60.0, states=TERMINAL):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, record = self.request("GET", f"/jobs/{job_id}")
            assert status == 200, record
            if record["status"] in states:
                return record
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not reach {states} in {timeout}s")

    def run(self, net, stage, params=None, **extra):
        record = self.wait(self.submit(net, stage, params, **extra)["id"])
        assert record["status"] == "done", record
        return record


@pytest.fixture
def service(tmp_path):
    server = make_server(
        "127.0.0.1",
        0,
        cache_dir=str(tmp_path / "cache"),
        workers=2,
        checkpoint_every=200,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, Client(server)
    finally:
        server.close()
        thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Every stage, submit/poll/result
# ---------------------------------------------------------------------------


class TestStages:
    def test_tables(self, service):
        _, client = service
        record = client.run(window_net(2), "tables")
        assert record["result"]["places"] > 0
        assert record["result"]["transitions"] > 0
        assert record["cache"]["tier"] == "built"

    def test_untimed(self, service):
        _, client = service
        net = window_net(2)
        record = client.run(net, "untimed")
        graph = reachability_graph(net)
        assert record["result"]["states"] == graph.state_count
        assert record["result"]["edges"] == graph.edge_count
        assert record["result"]["bound"] == graph.bound()

    def test_coverability(self, service):
        _, client = service
        record = client.run(window_net(2), "coverability")
        assert record["result"]["bounded"] is True
        assert record["result"]["nodes"] > 0

    def test_gspn(self, service):
        _, client = service
        record = client.run(window_net(2), "gspn")
        assert record["result"]["tangible_states"] > 0
        assert all(value >= 0 for value in record["result"]["throughput"].values())

    def test_decision_and_performance(self, service):
        _, client = service
        net = simple_protocol_net()
        decision = client.run(net, "decision")
        assert decision["result"]["anchors"] > 0
        performance = client.run(net, "performance")
        assert performance["result"]["cycle_time"]["value"] > 0
        assert "t2" in performance["result"]["throughput"]

    def test_query_kinds(self, service):
        _, client = service
        net = window_net(2)
        deadlock = client.run(net, "query", {"kind": "deadlock"})
        assert deadlock["result"]["found"] is False
        bound = client.run(net, "query", {"kind": "bound", "place": "sender_ready", "k": 1})
        assert bound["result"]["found"] is False  # 1-safe shared sender token
        reachable = client.run(
            net,
            "query",
            {"kind": "reachable", "target": dict(net.initial_marking.to_dict())},
        )
        assert reachable["result"]["found"] is True
        assert reachable["result"]["path"] == []

    def test_batch_submission(self, service):
        _, client = service
        net = net_payload(window_net(2))
        status, body = client.request(
            "POST",
            "/jobs/batch",
            {
                "jobs": [
                    {"net": net, "stage": "untimed"},
                    {"net": net, "stage": "coverability"},
                    {"net": net, "stage": "query", "params": {"kind": "deadlock"}},
                ]
            },
        )
        assert status == 202
        records = [client.wait(entry["id"]) for entry in body["jobs"]]
        assert [record["status"] for record in records] == ["done"] * 3

    def test_batch_is_all_or_nothing(self, service):
        _, client = service
        net = net_payload(window_net(2))
        before = client.request("GET", "/jobs")[1]["jobs"]
        status, body = client.request(
            "POST",
            "/jobs/batch",
            {"jobs": [{"net": net, "stage": "untimed"}, {"net": net, "stage": "nope"}]},
        )
        assert status == 400
        assert body["error"]["code"] == "unknown-stage"
        assert "jobs[1]" in body["error"]["message"]
        after = client.request("GET", "/jobs")[1]["jobs"]
        assert len(after) == len(before)


# ---------------------------------------------------------------------------
# Cache behavior over HTTP
# ---------------------------------------------------------------------------


class TestCaching:
    def test_identical_resubmission_served_from_memory(self, service):
        _, client = service
        net = window_net(2)
        first = client.run(net, "untimed")
        second = client.run(net, "untimed")
        assert first["cache"]["tier"] == "built"
        assert second["cache"]["tier"] == "memory"
        assert second["cache"]["key"] == first["cache"]["key"]

    def test_concurrent_identical_submissions_build_once(self, service):
        _, client = service
        net = window_net(3)
        a = client.submit(net, "untimed")
        b = client.submit(net, "untimed")
        records = [client.wait(a["id"]), client.wait(b["id"])]
        assert [record["status"] for record in records] == ["done", "done"]
        assert sorted(record["cache"]["tier"] for record in records) == [
            "built",
            "memory",
        ]
        stats = client.request("GET", "/cache/stats")[1]
        assert stats["cache"]["disk_stages"].get("untimed-graph") == 1

    def test_reordered_declarations_served_without_rebuild(self, service):
        _, client = service
        payload = net_payload(window_net(2))
        reordered = dict(payload)
        reordered["places"] = list(reversed(payload["places"]))
        reordered["transitions"] = list(reversed(payload["transitions"]))
        original_net = jsonio.net_from_dict(payload)
        reordered_net = jsonio.net_from_dict(reordered)
        assert net_fingerprint(original_net) == net_fingerprint(reordered_net)
        assert net_cache_key(original_net) != net_cache_key(reordered_net)

        first = client.wait(
            client.request("POST", "/jobs", {"net": payload, "stage": "untimed"})[1]["id"]
        )
        second = client.wait(
            client.request("POST", "/jobs", {"net": reordered, "stage": "untimed"})[1][
                "id"
            ]
        )
        assert first["status"] == second["status"] == "done"
        assert first["cache"]["tier"] == "built"
        # Same content, own presentation key: answered from the cache under
        # the elected presentation, no second build.
        assert second["cache"]["tier"] == "memory"
        assert second["net"]["canonicalized"] is True
        assert second["net"]["cache_key"] != second["net"]["served_key"]
        assert second["net"]["served_key"] == first["net"]["served_key"]
        stats = client.request("GET", "/cache/stats")[1]
        assert stats["cache"]["disk_stages"].get("untimed-graph") == 1

    def test_finished_jobs_beyond_the_limit_are_forgotten(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "DEFAULT_MAX_JOBS", 3)
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            request = {"net": net_payload(window_net(2)), "stage": "tables"}
            ids = []
            for _ in range(5):
                job = manager.submit(parse_job(request))
                ids.append(job.id)
                deadline = time.monotonic() + 30
                while manager.get(job.id).status not in TERMINAL:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            assert [job.id for job in manager.jobs()] == ids[-3:]
            with pytest.raises(ServiceError) as missing:
                manager.get(ids[0])
            assert missing.value.status == 404
        finally:
            manager.shutdown()

    def test_forgotten_canonical_net_elects_the_resubmission(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "DEFAULT_MAX_CANONICAL_NETS", 1)
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            payload = net_payload(window_net(2))
            reordered = dict(payload, places=list(reversed(payload["places"])))
            manager.submit(parse_job({"net": payload, "stage": "tables"}))
            manager.submit(parse_job({"net": net_payload(window_net(3)), "stage": "tables"}))
            again = manager.submit(parse_job({"net": reordered, "stage": "tables"}))
            assert again.canonicalized is False
            assert manager.cache_stats()["canonical_nets"] == 1
            repeat = manager.submit(parse_job({"net": payload, "stage": "tables"}))
            assert repeat.canonicalized is True
        finally:
            manager.shutdown()

    def test_warm_hit_is_bit_identical_to_direct_session(self, service):
        server, client = service
        net = window_net(3)
        record = client.run(net, "untimed")
        cold = reachability_graph(net)
        assert record["result"]["states"] == cold.state_count
        # A direct session over the same shared cache must hit, and the
        # served artifact must be exactly the cold build.
        session = AnalysisSession(cache=server.manager.cache)
        warm = session.untimed_graph(net)
        assert session.stage_outcomes["untimed-graph"] in (
            {"memory": 1},
            {"disk": 1},
        )
        assert_untimed_graphs_identical(warm, cold)


# ---------------------------------------------------------------------------
# Cancellation / deadline / resume
# ---------------------------------------------------------------------------


class TestRunControl:
    def _submit_slow(self, client, **extra):
        # ~15k states: a couple of seconds of build, plenty of frontier
        # boundaries to cancel at.
        return client.submit(
            window_net(6),
            "untimed",
            checkpoint_every=200,
            progress_every=50,
            **extra,
        )

    def test_cancel_mid_build_leaves_resumable_checkpoint(self, service):
        server, client = service
        job = self._submit_slow(client)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            record = client.request("GET", f"/jobs/{job['id']}")[1]
            if record["progress"] and record["progress"]["expanded"] > 0:
                break
            time.sleep(0.01)
        else:
            raise AssertionError("job never reported progress")

        status, record = client.request("DELETE", f"/jobs/{job['id']}")
        assert status == 200
        record = client.wait(job["id"])
        assert record["status"] == "cancelled"
        assert record["interrupt"]["resumable"] is True
        checkpoint_dir = record["interrupt"]["checkpoint"]
        assert checkpoint_dir and os.path.isdir(checkpoint_dir)
        checkpoint = Checkpoint.load(checkpoint_dir)
        assert checkpoint.cursor > 0

        status, record = client.request("POST", f"/jobs/{job['id']}/resume")
        assert status == 202
        record = client.wait(job["id"])
        assert record["status"] == "done", record
        cold = reachability_graph(window_net(6))
        assert record["result"]["states"] == cold.state_count
        assert record["result"]["edges"] == cold.edge_count
        # The resumed artifact landed in the shared cache bit-identically.
        session = AnalysisSession(cache=server.manager.cache)
        warm = session.untimed_graph(window_net(6))
        assert_untimed_graphs_identical(warm, cold)

    def test_deadline_interrupts_with_resumable_checkpoint(self, service):
        _, client = service
        job = self._submit_slow(client, deadline=0.3)
        record = client.wait(job["id"])
        assert record["status"] == "interrupted"
        assert record["interrupt"]["reason"] == "deadline"
        assert record["interrupt"]["resumable"] is True
        assert Checkpoint.load(record["interrupt"]["checkpoint"]).reason == "deadline"

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            # Pin the single worker on a slow job, then cancel a queued one.
            slow = manager.submit(parse_job({"net": net_payload(window_net(6)), "stage": "untimed"}))
            queued = manager.submit(
                parse_job({"net": net_payload(window_net(2)), "stage": "untimed"})
            )
            cancelled = manager.cancel(queued.id)
            assert cancelled.status == "cancelled"
            record = manager.describe(cancelled)
            assert record["interrupt"]["resumable"] is False
            manager.cancel(slow.id)
        finally:
            manager.shutdown()

    def test_resume_rejected_for_completed_job(self, service):
        _, client = service
        record = client.run(window_net(2), "untimed")
        status, body = client.request("POST", f"/jobs/{record['id']}/resume")
        assert status == 409
        assert body["error"]["code"] == "not-resumable"


# ---------------------------------------------------------------------------
# Errors and observability
# ---------------------------------------------------------------------------


class TestErrorsAndHealth:
    def test_unknown_stage(self, service):
        _, client = service
        status, body = client.request(
            "POST", "/jobs", {"net": net_payload(window_net(2)), "stage": "frobnicate"}
        )
        assert status == 400
        assert body["error"]["code"] == "unknown-stage"
        assert "untimed" in body["error"]["detail"]["stages"]

    def test_malformed_net(self, service):
        _, client = service
        status, body = client.request(
            "POST", "/jobs", {"net": {"places": "nonsense"}, "stage": "untimed"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-net"
        status, body = client.request("POST", "/jobs", {"stage": "untimed"})
        assert status == 400
        assert body["error"]["code"] == "invalid-net"

    def test_invalid_params(self, service):
        _, client = service
        net = net_payload(window_net(2))
        status, body = client.request(
            "POST", "/jobs", {"net": net, "stage": "untimed", "params": {"max_state": 5}}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-params"
        status, body = client.request(
            "POST",
            "/jobs",
            {"net": net, "stage": "untimed", "params": {"engine": "parallel"}},
        )
        assert status == 400
        status, body = client.request(
            "POST", "/jobs", {"net": net, "stage": "query", "params": {"kind": "bound"}}
        )
        assert status == 400

    def test_invalid_json_body(self, service):
        _, client = service
        request = urllib.request.Request(
            client.base + "/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_job_and_route(self, service):
        _, client = service
        status, body = client.request("GET", "/jobs/j-missing")
        assert status == 404
        assert body["error"]["code"] == "unknown-job"
        status, body = client.request("GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown-route"

    def test_unbounded_net_reported_as_job_error(self, service):
        _, client = service
        record = client.submit(
            simple_protocol_net(), "untimed", params={"max_states": 50}
        )
        record = client.wait(record["id"])
        assert record["status"] == "error"
        assert record["error"]["type"] == "UnboundedNetError"

    def test_healthz(self, service):
        _, client = service
        status, body = client.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body) == {"status", "jobs", "queue_depth", "workers"}
        assert len(body["workers"]) == 2
        assert all(worker["alive"] for worker in body["workers"])
        assert all(set(worker) == {"id", "alive", "current_job"} for worker in body["workers"])

    def test_base_exception_fails_only_its_job(self, tmp_path, monkeypatch):
        # A BaseException escaping a stage (not an Exception, so no stage
        # handler catches it) is recorded on its job; the single worker
        # stays alive and serves the next job.
        class PoisonPill(BaseException):
            pass

        original = AnalysisSession.untimed_graph

        def untimed_graph(session, net, *, max_states=100_000, **kwargs):
            if max_states == 4321:
                raise PoisonPill("injected")
            return original(session, net, max_states=max_states, **kwargs)

        monkeypatch.setattr(AnalysisSession, "untimed_graph", untimed_graph)
        server = make_server("127.0.0.1", 0, cache_dir=str(tmp_path / "cache"), workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(server)
            poisoned = client.submit(window_net(2), "untimed", params={"max_states": 4321})
            poisoned = client.wait(poisoned["id"])
            assert poisoned["status"] == "error"
            assert poisoned["error"]["type"] == "PoisonPill"
            record = client.run(window_net(2), "untimed")
            assert record["result"]["states"] > 0
            status, body = client.request("GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert len(body["workers"]) == 1
            assert all(worker["alive"] for worker in body["workers"])
            assert body["jobs"] == {"error": 1, "done": 1}
        finally:
            server.close()
            thread.join(timeout=5)

    def test_cache_stats_shape(self, service):
        _, client = service
        client.run(window_net(2), "untimed")
        status, body = client.request("GET", "/cache/stats")
        assert status == 200
        assert body["cache"]["stores"] >= 1
        assert body["canonical_nets"] == 1
        # The single-flight entry is released an instant after the job
        # record turns terminal; poll briefly instead of racing it.
        deadline = time.monotonic() + 5
        while body["inflight_builds"] != 0 and time.monotonic() < deadline:
            time.sleep(0.02)
            body = client.request("GET", "/cache/stats")[1]
        assert body["inflight_builds"] == 0


def wait_for_job(manager, job, timeout: float = 60.0) -> dict:
    """Poll one in-process job until it reaches a terminal status."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = manager.describe(job)
        if record["status"] in TERMINAL:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job.id} did not finish in {timeout}s")


class _Injected(BaseException):
    """Escapes every ``except Exception`` handler, like an interpreter exit."""


#: Stage -> (the AnalysisSession method its worker calls, net, params).
POISONABLE_STAGES = {
    "tables": ("fetch_tiered", window_net, {}),
    "untimed": ("untimed_graph", window_net, {}),
    "coverability": ("coverability_graph", window_net, {}),
    "gspn": ("gspn_solution", window_net, {}),
    "decision": ("decision", simple_protocol_net, {}),
    "performance": ("performance", simple_protocol_net, {}),
    "query": ("query", window_net, {"kind": "deadlock"}),
}


def poison_once(monkeypatch, method: str, error: BaseException) -> None:
    """Make the next call of ``AnalysisSession.<method>`` raise ``error``."""
    original = getattr(AnalysisSession, method)
    armed = [True]

    def poisoned(session, *args, **kwargs):
        if armed[0]:
            armed[0] = False
            raise error
        return original(session, *args, **kwargs)

    monkeypatch.setattr(AnalysisSession, method, poisoned)


class TestWorkerPool:
    """The service's plain worker loop: pool sizing and per-job failure.

    A job whose stage raises anything — including ``BaseException``
    subclasses no stage handler catches — ends as ``error`` with the
    exception's type name; the worker that ran it stays alive and takes
    the next job.
    """

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True, "two"])
    def test_invalid_worker_count_rejected(self, tmp_path, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            JobManager(cache_dir=str(tmp_path / "cache"), workers=workers)
        # Rejected before the cache (and its directory) or the pool exist.
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_size_reported_and_used(self, tmp_path, workers):
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=workers)
        try:
            health = manager.health()
            assert [worker["id"] for worker in health["workers"]] == list(range(workers))
            assert all(worker["alive"] for worker in health["workers"])
            requests = [
                {"net": net_payload(window_net(size)), "stage": stage}
                for size in (1, 2)
                for stage in ("tables", "untimed", "coverability")
            ]
            jobs = [manager.submit(parse_job(body)) for body in requests[: 2 * workers]]
            records = [wait_for_job(manager, job) for job in jobs]
            assert [record["status"] for record in records] == ["done"] * len(jobs)
            health = manager.health()
            assert health["jobs"] == {"done": len(jobs)}
            assert health["queue_depth"] == 0
            assert all(worker["alive"] for worker in health["workers"])
        finally:
            manager.shutdown()

    @pytest.mark.parametrize("stage", sorted(POISONABLE_STAGES))
    def test_escaping_exception_fails_only_its_job(self, tmp_path, monkeypatch, stage):
        method, constructor, params = POISONABLE_STAGES[stage]
        poison_once(monkeypatch, method, _Injected(f"{stage} poisoned"))
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            body = {"net": net_payload(constructor()), "stage": stage, "params": params}
            failed = wait_for_job(manager, manager.submit(parse_job(body)))
            assert failed["status"] == "error"
            assert failed["error"] == {"type": "_Injected", "message": f"{stage} poisoned"}
            # The same request again runs the real stage on the same worker.
            retried = wait_for_job(manager, manager.submit(parse_job(body)))
            assert retried["status"] == "done", retried
            assert retried["cache"]["tier"] == "built"
            health = manager.health()
            assert health["jobs"] == {"error": 1, "done": 1}
            assert [worker["alive"] for worker in health["workers"]] == [True]
            assert health["workers"][0]["current_job"] is None
        finally:
            manager.shutdown()

    @pytest.mark.parametrize(
        "error",
        [SystemExit(3), KeyboardInterrupt(), RuntimeError("boom"), MemoryError()],
        ids=["SystemExit", "KeyboardInterrupt", "RuntimeError", "MemoryError"],
    )
    def test_any_exception_type_is_recorded(self, tmp_path, monkeypatch, error):
        poison_once(monkeypatch, "untimed_graph", error)
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            body = {"net": net_payload(window_net(2)), "stage": "untimed"}
            failed = wait_for_job(manager, manager.submit(parse_job(body)))
            assert failed["status"] == "error"
            assert failed["error"]["type"] == type(error).__name__
            assert wait_for_job(manager, manager.submit(parse_job(body)))["status"] == "done"
            assert all(worker["alive"] for worker in manager.health()["workers"])
        finally:
            manager.shutdown()

    def test_every_worker_survives_a_failure(self, tmp_path, monkeypatch):
        # Every job of the first wave fails on whichever worker takes it;
        # the same pool then completes a second wave with every worker alive.
        original = AnalysisSession.untimed_graph

        def untimed_graph(session, net, *, max_states=100_000, **kwargs):
            if max_states == 4321:
                raise _Injected("first wave")
            return original(session, net, max_states=max_states, **kwargs)

        monkeypatch.setattr(AnalysisSession, "untimed_graph", untimed_graph)
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=2)
        try:
            first = [
                manager.submit(parse_job({
                    "net": net_payload(window_net(size)),
                    "stage": "untimed",
                    "params": {"max_states": 4321},
                }))
                for size in (1, 2, 3, 4)
            ]
            assert [wait_for_job(manager, job)["status"] for job in first] == ["error"] * 4
            second = [
                manager.submit(parse_job({"net": net_payload(window_net(size)), "stage": "untimed"}))
                for size in (1, 2, 3, 4)
            ]
            assert [wait_for_job(manager, job)["status"] for job in second] == ["done"] * 4
            health = manager.health()
            assert health["jobs"] == {"error": 4, "done": 4}
            assert [worker["alive"] for worker in health["workers"]] == [True, True]
        finally:
            manager.shutdown()

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_cli_serve_rejects_invalid_job_count(self, jobs, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class _RecordingSocket:
    """A socket stand-in: serves canned request bytes, records every send."""

    def __init__(self, requests: bytes):
        self.requests = requests
        self.sends = []

    def makefile(self, mode, *args, **kwargs):
        assert "r" in mode
        return io.BytesIO(self.requests)

    def sendall(self, data):
        self.sends.append(bytes(data))


class TestResponseFraming:
    """Each JSON response leaves the server in a single socket write.

    Headers and body written separately let Nagle's algorithm hold the body
    back until the client's delayed acknowledgement of the headers.
    """

    def test_one_socket_write_per_json_response(self, service):
        server, _ = service
        body = json.dumps({"net": net_payload(window_net(2)), "stage": "tables"}).encode()
        requests = (
            b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
            + b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            + b"GET /jobs/missing HTTP/1.1\r\nHost: test\r\n\r\n"
        )
        connection = _RecordingSocket(requests)
        AnalysisRequestHandler(connection, ("127.0.0.1", 0), server)

        assert len(connection.sends) == 3
        for send, status in zip(connection.sends, (200, 202, 404)):
            head, _, payload = send.partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            length = re.search(rb"Content-Length: (\d+)", head)
            assert int(length.group(1)) == len(payload)
            json.loads(payload)


# ---------------------------------------------------------------------------
# Schema validation (no server)
# ---------------------------------------------------------------------------


class TestSchemas:
    def test_parse_job_roundtrip(self):
        request = parse_job(
            {
                "net": net_payload(window_net(2)),
                "stage": "untimed",
                "params": {"max_states": 500},
                "deadline": 2.5,
            }
        )
        assert request.stage == "untimed"
        assert request.params == {"max_states": 500}
        assert request.deadline == 2.5

    def test_parse_job_rejects_bad_deadline(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_job(
                {"net": net_payload(window_net(2)), "stage": "untimed", "deadline": -1}
            )
        assert excinfo.value.status == 400

    def test_parse_batch_limits(self):
        entry = {"net": net_payload(window_net(2)), "stage": "tables"}
        with pytest.raises(ServiceError) as excinfo:
            parse_batch({"jobs": [entry] * (MAX_BATCH + 1)})
        assert excinfo.value.code == "batch-too-large"
        with pytest.raises(ServiceError):
            parse_batch({"jobs": []})

    def test_parse_net_pnml(self):
        from repro.petri.io import pnml

        net = window_net(2)
        request = parse_job({"pnml": pnml.net_to_pnml(net), "stage": "tables"})
        assert net_fingerprint(request.net) == net_fingerprint(net)


# ---------------------------------------------------------------------------
# CLI smoke: the CI service step (subprocess, real socket)
# ---------------------------------------------------------------------------


@pytest.mark.timeout(120)
def test_cli_serve_smoke(tmp_path):
    """Start ``repro-tpn serve`` on an ephemeral port, submit the same net
    twice, assert the second response is served from the cache, and check a
    clean SIGINT shutdown — the CI smoke step runs exactly this test."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         environment.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--jobs",
            "2",
        ],
        env=environment,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"unexpected startup line: {line!r}"
        base = f"http://{match.group(1)}:{match.group(2)}"

        def call(method, path, payload=None):
            data = json.dumps(payload).encode() if payload is not None else None
            request = urllib.request.Request(
                base + path, data=data, method=method,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read())

        payload = {"net": net_payload(window_net(4)), "stage": "untimed"}
        tiers = []
        for _ in range(2):
            record = call("POST", "/jobs", payload)
            deadline = time.monotonic() + 60
            while record["status"] not in TERMINAL and time.monotonic() < deadline:
                time.sleep(0.05)
                record = call("GET", f"/jobs/{record['id']}")
            assert record["status"] == "done", record
            tiers.append(record["cache"]["tier"])
        assert tiers[0] == "built"
        assert tiers[1] == "memory"
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
    assert process.returncode == 0
