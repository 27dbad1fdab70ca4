"""Tests for the progress tracker and the live analysis monitor."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.monitor import MonitorServer, fetch, get_active_monitor
from repro.obs.progress import (
    MAX_EVENTS,
    ProgressTracker,
    get_progress,
    set_progress,
)
from repro.robust.faults import reset_faults

UAF = """
fn main() {
    p = malloc();
    free(p);
    x = *p;
    return x;
}
"""


@pytest.fixture
def uaf_file(tmp_path):
    path = tmp_path / "uaf.pin"
    path.write_text(UAF)
    return str(path)


@pytest.fixture(autouse=True)
def _restore_globals():
    registry = get_registry()
    progress = get_progress()
    yield
    set_registry(registry)
    set_progress(progress)
    reset_faults()
    active = get_active_monitor()
    if active is not None:
        active.stop()


def tracker(enabled=True):
    t = ProgressTracker(clock=lambda: 123.0)
    t.enabled = enabled
    return t


def test_import_repro_leaves_the_monitor_stack_unloaded():
    # A fresh interpreter: this one has imported the monitor already.
    script = (
        "import sys\n"
        "import repro\n"
        "loaded = [m for m in ('http.server', 'repro.obs.monitor') "
        "if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from repro.obs import MonitorServer, HistoryStore, pass_table\n"
        "assert MonitorServer.__module__ == 'repro.obs.monitor'\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# ProgressTracker
# ----------------------------------------------------------------------
def test_disabled_tracker_is_inert():
    t = tracker(enabled=False)
    t.begin_run("check", "x")
    t.set_stage("prepare")
    t.wave_progress(1, 2, prepared=5)
    t.checker_done("uaf", 3)
    t.finish(0)
    snap = t.snapshot()
    assert snap["stage"] == "idle"
    assert snap["running"] is False
    assert snap["events"] == 0
    assert t.events_after(0) == []


def test_tracker_lifecycle_snapshot():
    t = tracker()
    t.begin_run("check", "prog.pin")
    t.set_stage("prepare", functions=4)
    t.set_functions_total(4)
    t.wave_progress(1, 2, prepared=2, cached=1)
    t.wave_progress(2, 2, prepared=1, cached=1, quarantined=1)
    t.checker_done("use-after-free", 2)
    snap = t.snapshot()
    assert snap["command"] == "check"
    assert snap["label"] == "prog.pin"
    assert snap["running"] is True
    assert snap["waves"] == {"done": 2, "total": 2}
    assert snap["functions"] == {
        "total": 4,
        "prepared": 3,
        "cached": 2,
        "quarantined": 1,
    }
    assert snap["checkers_done"] == ["use-after-free"]
    t.finish(1)
    snap = t.snapshot()
    assert snap["running"] is False
    assert snap["stage"] == "done"
    assert snap["exit_code"] == 1


def test_begin_run_resets_previous_state():
    t = tracker()
    t.begin_run("check", "a")
    t.wave_progress(3, 3, prepared=9)
    t.finish(0)
    t.begin_run("check", "b")
    snap = t.snapshot()
    assert snap["label"] == "b"
    assert snap["waves"] == {"done": 0, "total": 0}
    assert snap["functions"]["prepared"] == 0
    assert snap["running"] is True


def test_event_log_sequencing_and_since():
    t = tracker()
    t.begin_run("check")
    t.set_stage("parse")
    t.set_stage("prepare")
    events = t.events_after(0)
    assert [e["kind"] for e in events] == ["run.start", "stage", "stage"]
    assert [e["seq"] for e in events] == [1, 2, 3]
    assert [e["seq"] for e in t.events_after(2)] == [3]
    assert t.events_after(0, limit=2) == events[:2]


def test_event_ring_buffer_caps_memory():
    t = tracker()
    for i in range(MAX_EVENTS + 100):
        t.heartbeat(i=i)
    events = t.events_after(0)
    assert len(events) == MAX_EVENTS
    # the gap in sequence numbers tells consumers how much fell off
    assert events[0]["seq"] == 101


def test_wait_for_event_times_out_and_wakes():
    t = ProgressTracker()
    t.enabled = True
    assert t.wait_for_event(0, timeout=0.01) is False

    def later():
        time.sleep(0.05)
        t.heartbeat()

    thread = threading.Thread(target=later)
    thread.start()
    assert t.wait_for_event(0, timeout=5.0) is True
    thread.join()


def test_snapshot_reports_degradations_from_registry():
    registry = set_registry(MetricsRegistry())
    registry.counter("robust.degradations", "d").inc(2)
    t = tracker()
    t.begin_run("check")
    snap = t.snapshot()
    assert snap["degraded"] is True
    assert snap["degradations"] == 2


def test_snapshot_degraded_from_exit_code():
    set_registry(MetricsRegistry())
    t = tracker()
    t.begin_run("check")
    t.finish(3)
    assert t.snapshot()["degraded"] is True


def test_disabled_tick_overhead_guard():
    """Progress ticks sit on the prepare and checker loops; while
    disabled they must stay one truth-test cheap (order-of-magnitude
    bound)."""
    t = ProgressTracker()
    start = time.perf_counter()
    for i in range(100_000):
        t.wave_progress(i, 100_000, prepared=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"100k disabled progress calls took {elapsed:.2f}s"


# ----------------------------------------------------------------------
# MonitorServer endpoints
# ----------------------------------------------------------------------
def test_monitor_endpoints_serve_progress_and_metrics():
    registry = set_registry(MetricsRegistry())
    registry.counter("smt.queries", "q").inc(7, checker="uaf")
    t = set_progress(tracker())
    t.begin_run("check", "prog.pin")
    t.set_stage("seg")
    with MonitorServer(port=0) as monitor:
        status, body = fetch(monitor.url + "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["ok"] is True
        assert health["stage"] == "seg"
        assert health["running"] is True
        assert health["degraded"] is False

        status, body = fetch(monitor.url + "/status")
        snap = json.loads(body)
        assert status == 200
        assert snap["command"] == "check"
        assert snap["label"] == "prog.pin"

        status, body = fetch(monitor.url + "/metrics")
        assert status == 200
        assert "repro_smt_queries_total" in body
        assert 'checker="uaf"' in body

        status, body = fetch(monitor.url + "/events?follow=0")
        assert status == 200
        events = [json.loads(line) for line in body.splitlines()]
        assert [e["kind"] for e in events] == ["run.start", "stage"]

        status, body = fetch(monitor.url + "/events?follow=0&since=1")
        assert [json.loads(line)["kind"] for line in body.splitlines()] == ["stage"]

        status, body = fetch(monitor.url + "/nope")
        assert status == 404
    assert get_active_monitor() is None


def test_monitor_sse_stream_closes_on_run_finish():
    set_registry(MetricsRegistry())
    t = set_progress(tracker())
    t.begin_run("check")
    with MonitorServer(port=0) as monitor:

        def finish_soon():
            time.sleep(0.1)
            t.set_stage("checker")
            t.finish(0)

        thread = threading.Thread(target=finish_soon)
        thread.start()
        status, body = fetch(monitor.url + "/events", timeout=10.0)
        thread.join()
        assert status == 200
        assert "event: run.start" in body
        assert "event: run.finish" in body
        assert '"exit_code": 0' in body


def test_monitor_empty_registry_metrics():
    set_registry(MetricsRegistry())
    set_progress(tracker())
    with MonitorServer(port=0) as monitor:
        status, body = fetch(monitor.url + "/metrics")
        assert status == 200
        assert body.strip() == ""


def test_monitor_stop_is_idempotent():
    monitor = MonitorServer(port=0)
    monitor.start()
    monitor.stop()
    monitor.stop()
    assert not monitor.running


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def _run_cli_with_monitor(argv):
    """Run the CLI on a thread; return (monitor, result-dict, thread)
    once the monitor has come up."""
    result = {}

    def run():
        result["code"] = main(argv)

    thread = threading.Thread(target=run)
    thread.start()
    for _ in range(200):
        monitor = get_active_monitor()
        if monitor is not None:
            return monitor, result, thread
        time.sleep(0.025)
    thread.join(timeout=10)
    raise AssertionError("monitor never started")


def test_serve_all_endpoints_respond_during_run(uaf_file):
    """Acceptance criterion: all four endpoints of `check --monitor-port`
    answer while an analysis is in flight (a slow fault holds the run
    open)."""
    monitor, result, thread = _run_cli_with_monitor(
        [
            "check", uaf_file, "--monitor-port", "0",
            "--fault", "slow:0.8", "--linger",
        ]
    )
    try:
        status, body = fetch(monitor.url + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["ok"] is True
        assert health["running"] is True  # analysis still sleeping

        status, body = fetch(monitor.url + "/status")
        assert status == 200
        snap = json.loads(body)
        assert snap["command"] == "check"
        assert snap["running"] is True

        status, body = fetch(monitor.url + "/metrics")
        assert status == 200

        status, body = fetch(monitor.url + "/events?follow=0")
        assert status == 200
        kinds = [json.loads(line)["kind"] for line in body.splitlines()]
        assert "run.start" in kinds
    finally:
        monitor.stop()  # unblocks --linger
        thread.join(timeout=15)
    assert result["code"] == 1  # the UAF finding

    # After the run the monitor released its port and deregistered.
    assert get_active_monitor() is None


def test_serve_records_wave_progress(uaf_file):
    monitor, result, thread = _run_cli_with_monitor(
        ["check", uaf_file, "--monitor-port", "0", "--linger"]
    )
    try:
        # wait for the analysis itself to finish (linger keeps serving)
        for _ in range(200):
            snap = json.loads(fetch(monitor.url + "/status")[1])
            if not snap["running"]:
                break
            time.sleep(0.05)
        assert snap["running"] is False
        assert snap["stage"] == "done"
        assert snap["exit_code"] == 1
        assert snap["waves"]["total"] >= 1
        assert snap["waves"]["done"] == snap["waves"]["total"]
        assert snap["functions"]["total"] >= 1
        kinds = [
            json.loads(line)["kind"]
            for line in fetch(monitor.url + "/events?follow=0")[1].splitlines()
        ]
        assert "wave" in kinds
        assert kinds[-1] == "run.finish"
    finally:
        monitor.stop()
        thread.join(timeout=15)


def test_check_monitor_port_flag(uaf_file, capsys):
    monitor, result, thread = _run_cli_with_monitor(
        ["check", uaf_file, "--monitor-port", "0", "--fault", "slow:0.5"]
    )
    status, _ = fetch(monitor.url + "/healthz")
    assert status == 200
    thread.join(timeout=15)
    assert result["code"] == 1
    assert not monitor.running
    assert "[monitor] serving on http://127.0.0.1:" in capsys.readouterr().err


def test_profile_monitor_port_answers_mid_run(uaf_file, capsys):
    monitor, result, thread = _run_cli_with_monitor(
        ["profile", uaf_file, "--monitor-port", "0", "--fault", "slow:0.5"]
    )
    status, body = fetch(monitor.url + "/healthz")
    assert status == 200
    assert json.loads(body)["running"] is True  # analysis still sleeping
    thread.join(timeout=15)
    assert result["code"] == 0
    assert not monitor.running
    captured = capsys.readouterr()
    assert "[monitor] serving on http://127.0.0.1:" in captured.err
    assert "repro profile" in captured.out


def test_monitor_reports_degraded_run(uaf_file):
    """A fault-quarantined (exit 3) run shows up as degraded on
    /healthz and /status while the monitor is still serving."""
    monitor, result, thread = _run_cli_with_monitor(
        ["check", uaf_file, "--monitor-port", "0", "--fault", "prepare", "--linger"]
    )
    try:
        for _ in range(200):
            health = json.loads(fetch(monitor.url + "/healthz")[1])
            if not health["running"]:
                break
            time.sleep(0.05)
        assert health["ok"] is True  # degraded is state, not ill health
        assert health["degraded"] is True
        snap = json.loads(fetch(monitor.url + "/status")[1])
        assert snap["degraded"] is True
        assert snap["degradations"] >= 1
        assert snap["exit_code"] == 3
    finally:
        monitor.stop()
        thread.join(timeout=15)
    assert result["code"] == 3


def test_check_without_monitor_starts_no_server(uaf_file):
    assert main(["check", uaf_file]) == 1
    assert get_active_monitor() is None
    assert get_progress().enabled is False
