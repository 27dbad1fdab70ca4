"""The parallel wave scheduler: identical results, crash containment.

The contract under test is the one the docs promise: ``jobs > 1``
changes wall-clock behaviour only — reports, diagnostics, and their
order are byte-identical to a serial run; a worker process that *dies*
(as opposed to raising) becomes a ``sched``-stage quarantine; a hung
worker becomes a timeout crash without hanging the run.
"""

import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro import Pinpoint, UseAfterFreeChecker
from repro.lang.parser import parse_program
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.robust.budget import ResourceBudget
from repro.robust.diagnostics import STAGE_PREPARE, STAGE_SCHED
from repro.robust.faults import install_faults, reset_faults
from repro.sched import JOBS_ENV, resolve_jobs
from repro.sched.pool import WorkerCrash, WorkerPool
from repro.sched.scheduler import prepare_program
from repro.synth.generator import GeneratorConfig, generate_program

PROGRAM = """
fn helper(p) { x = *p; return x; }
fn touch(p) { *p = 7; return 0; }
fn chain(p) { t = touch(p); h = helper(p); return t + h; }
fn main() {
    p = malloc();
    free(p);
    y = chain(p);
    q = malloc();
    *q = 1;
    z = helper(q);
    free(q);
    return y + z;
}
"""


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    reset_faults()
    set_registry(MetricsRegistry())
    yield
    reset_faults()
    set_registry(MetricsRegistry())


def _snapshot(source, **kwargs):
    """(reports, diagnostics) of one run, as plain data."""
    engine = Pinpoint.from_source(source, **kwargs)
    result = engine.check(UseAfterFreeChecker())
    return (
        [dataclasses.asdict(r) for r in result.reports],
        [d.as_dict() for d in result.diagnostics],
    )


# ----------------------------------------------------------------------
# Determinism: parallel == serial
# ----------------------------------------------------------------------
def test_parallel_matches_serial_exactly():
    serial = _snapshot(PROGRAM)
    parallel = _snapshot(PROGRAM, jobs=2)
    assert parallel == serial


def test_parallel_matches_serial_with_worker_exception():
    # A worker-side Python exception must produce the same prepare-stage
    # quarantine diagnostic, in the same position, as a serial run.
    install_faults("prepare:helper")
    serial = _snapshot(PROGRAM)
    reset_faults()
    install_faults("prepare:helper")
    parallel = _snapshot(PROGRAM, jobs=2)
    assert parallel == serial
    diags = parallel[1]
    assert any(
        d["stage"] == STAGE_PREPARE and d["unit"] == "helper" for d in diags
    )


def test_dead_worker_becomes_sched_quarantine():
    # The `sched` fault site makes the worker process call os._exit —
    # a real process death, which no Python-level except can model.
    install_faults("sched:helper")
    reports, diags = _snapshot(PROGRAM, jobs=2)
    sched_diags = [d for d in diags if d["stage"] == STAGE_SCHED]
    assert len(sched_diags) == 1
    assert sched_diags[0]["unit"] == "helper"
    assert "died" in sched_diags[0]["detail"]
    # Innocent functions sharing the broken pool were retried: everything
    # except the killer (and no one else) is quarantined.
    assert {d["unit"] for d in diags if d["stage"] == STAGE_SCHED} == {"helper"}


def test_sched_fault_is_inert_in_serial_runs():
    install_faults("sched:helper")
    reports, diags = _snapshot(PROGRAM)
    assert not [d for d in diags if d["stage"] == STAGE_SCHED]


def test_limited_budget_forces_serial_fallback():
    program = parse_program(PROGRAM)
    budget = ResourceBudget(max_steps=10_000_000).start()
    prepared = prepare_program(program, jobs=4, budget=budget)
    assert len(prepared.functions) == 4
    registry = get_registry()
    assert registry.counter("sched.serial_fallback").total() == 1
    assert registry.gauge("sched.jobs").value() == 1


def test_scheduler_populates_segs_for_engine():
    prepared = prepare_program(parse_program(PROGRAM), jobs=2)
    assert set(prepared.segs) == set(prepared.functions)


# ----------------------------------------------------------------------
# resolve_jobs
# ----------------------------------------------------------------------
def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "8")
    assert resolve_jobs(2) == 2
    assert resolve_jobs() == 8


def test_resolve_jobs_degrades_on_garbage(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "many")
    assert resolve_jobs() == 1
    assert resolve_jobs("bogus") == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-3) == 1


# ----------------------------------------------------------------------
# WorkerPool unit tests (module-level task fns so they pickle on spawn
# platforms and are importable in forked children).
# ----------------------------------------------------------------------
def _echo_task(payload):
    return b"echo:" + payload


def _slow_task(payload):
    time.sleep(float(pickle.loads(payload)))
    return b"done"


def _exit_task(payload):
    if payload == b"die":
        os._exit(3)
    return b"ok:" + payload


def test_pool_runs_tasks_and_returns_bytes():
    with WorkerPool(2, task_fn=_echo_task) as pool:
        results = pool.run_wave([("a", b"1"), ("b", b"2")])
    assert results == {"a": b"echo:1", "b": b"echo:2"}


def test_pool_timeout_yields_crash_and_run_continues():
    fast = pickle.dumps(0.0)
    slow = pickle.dumps(30.0)
    with WorkerPool(2, task_fn=_slow_task, timeout=1.0) as pool:
        results = pool.run_wave([("slow", slow), ("fast", fast)])
    assert isinstance(results["slow"], WorkerCrash)
    assert results["slow"].timed_out
    assert results["fast"] == b"done"
    assert get_registry().counter("sched.worker_timeouts").total() >= 1


def test_pool_isolates_deterministic_killer():
    with WorkerPool(2, task_fn=_exit_task) as pool:
        results = pool.run_wave(
            [("good1", b"x"), ("killer", b"die"), ("good2", b"y")]
        )
    assert results["good1"] == b"ok:x"
    assert results["good2"] == b"ok:y"
    assert isinstance(results["killer"], WorkerCrash)
    assert get_registry().counter("sched.pool_rebuilds").total() >= 1


# ----------------------------------------------------------------------
# Orphaned workers
# ----------------------------------------------------------------------
def _proc_stat(pid):
    """(state, ppid) of a process from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # Fields after the parenthesised command: state, ppid, ...
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid):
    """Live (non-zombie) processes whose parent is ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        stat = _proc_stat(entry) if entry.isdigit() else None
        if stat is not None and stat[0] != "Z" and stat[1] == pid:
            children.append(int(entry))
    return children


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_parent_is_killed(tmp_path):
    """A SIGKILLed ``--jobs 2`` run cannot shut its pool down; its
    workers must notice the parent is gone and exit on their own."""
    program = tmp_path / "big.pin"
    generated = generate_program(GeneratorConfig(seed=1, target_lines=2000))
    program.write_text(generated.source)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    parent = subprocess.Popen(
        [sys.executable, "-m", "repro", "check", str(program), "--all", "--jobs", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        workers = []
        # The fork pool starts both workers at its first task.
        while (
            len(workers) < 2 and parent.poll() is None and time.monotonic() < deadline
        ):
            workers = _children(parent.pid)
            time.sleep(0.01)
        assert len(workers) == 2, f"the run started workers {workers}, not two"
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in workers if _alive(pid)]
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"workers {survivors} outlived their killed parent"
