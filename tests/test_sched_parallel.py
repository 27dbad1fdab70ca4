"""The parallel wave scheduler: identical results, crash containment.

The contract under test is the one the docs promise: ``jobs > 1``
changes wall-clock behaviour only — reports, diagnostics, and their
order are byte-identical to a serial run; a worker process that *dies*
(as opposed to raising) becomes a ``sched``-stage quarantine; a hung
worker is killed and becomes a timeout crash without hanging the run;
no worker outlives the run.
"""

import dataclasses
import os
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
from repro.sched import JOBS_ENV, resolve_jobs, scheduler, worker
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

#: PROGRAM plus four more leaves: wave 0 is six functions wide.
WIDE_PROGRAM = PROGRAM + "".join(
    f"fn leaf{i}(p) {{ x = *p; return x + {i}; }}\n" for i in range(4)
)
WIDE_NAMES = ["helper", "touch", "chain", "main"] + [f"leaf{i}" for i in range(4)]


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
    # Wave 0 holds six leaves and there are two workers, so the killer
    # shares its first child with innocent functions.
    install_faults("sched:helper")
    prepared = prepare_program(parse_program(WIDE_PROGRAM), jobs=2)
    sched_diags = [d for d in prepared.diagnostics if d.stage == STAGE_SCHED]
    assert [d.unit for d in sched_diags] == ["helper"]
    assert "worker process died preparing 'helper'" in sched_diags[0].detail
    # The innocents were re-run uncharged; the killer got one more,
    # solo attempt and died again.
    assert set(prepared.functions) == set(WIDE_NAMES) - {"helper"}
    registry = get_registry()
    assert registry.counter("sched.worker_crashes").total() == 2
    assert registry.counter("sched.retries").total() == 1


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


def test_platform_without_fork_prepares_inline(monkeypatch):
    monkeypatch.delattr(os, "fork")
    serial = _snapshot(PROGRAM)
    assert _snapshot(PROGRAM, jobs=2) == serial
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
# Hung workers, and a parent that raises
# ----------------------------------------------------------------------
def _sleepy_prepare(monkeypatch, sleeper):
    """Make preparing ``sleeper`` hang for 30 s, in whichever process
    prepares it."""
    real = scheduler.prepare_function

    def prepare(func_ast, *args, **kwargs):
        if func_ast.name == sleeper:
            time.sleep(30)
        return real(func_ast, *args, **kwargs)

    monkeypatch.setattr(scheduler, "prepare_function", prepare)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_hung_worker_is_killed_and_quarantined(monkeypatch):
    _sleepy_prepare(monkeypatch, "helper")
    started = time.monotonic()
    prepared = prepare_program(parse_program(WIDE_PROGRAM), jobs=2, worker_timeout=1)
    assert time.monotonic() - started < 20
    # Killed and reaped, not left to finish its sleep.
    assert not _children(os.getpid(), zombies=True)
    sched_diags = [d for d in prepared.diagnostics if d.stage == STAGE_SCHED]
    assert [d.unit for d in sched_diags] == ["helper"]
    assert "timed out" in sched_diags[0].detail
    assert set(prepared.functions) == set(WIDE_NAMES) - {"helper"}
    assert get_registry().counter("sched.worker_timeouts").total() == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_parent_exception_kills_and_reaps_every_worker(monkeypatch):
    _sleepy_prepare(monkeypatch, "helper")

    def interrupted(buffer):
        raise KeyboardInterrupt
        yield  # pragma: no cover - makes this a generator like _frames

    # The first outcome a child ships back interrupts the parent, while
    # the child preparing `helper` is still asleep.
    monkeypatch.setattr(worker, "_frames", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        prepare_program(parse_program(WIDE_PROGRAM), jobs=2)
    assert time.monotonic() - started < 20
    assert not _children(os.getpid(), zombies=True)


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


def _children(pid, zombies=False):
    """Live processes whose parent is ``pid``; with ``zombies``, also
    the dead ones not yet reaped."""
    children = []
    for entry in os.listdir("/proc"):
        stat = _proc_stat(entry) if entry.isdigit() else None
        if stat is not None and (zombies or stat[0] != "Z") and stat[1] == pid:
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
