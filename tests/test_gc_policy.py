"""The collector policy leaves the collector as it found it.

Every analysis entry point holds automatic full collections off
(:mod:`repro.robust.heap`).  After any of them the collection
thresholds, the enabled flag and the freeze count must be what the
caller set: after a build and a check, a CLI command, a run that raises,
a session edit and a daemon job, and when entries nest or overlap
across threads.  A daemon whose jobs never pause still
runs full collections.
"""

from __future__ import annotations

import gc
import os
import sys
import threading

import pytest

from repro import IncrementalAnalyzer, Pinpoint, UseAfterFreeChecker
from repro.cli import CHECKERS, main
from repro.lang.parser import ParseError
from repro.robust import heap
from repro.robust.heap import HELD_THRESHOLD, hold_full_collections
from repro.synth.generator import GeneratorConfig, generate_program

#: Thresholds no default has, so a restore to the defaults shows.
CALLER = (555, 7, 9)
HELD = CALLER[:2] + (HELD_THRESHOLD,)


def collector_state():
    return gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()


@pytest.fixture(scope="module")
def source() -> str:
    return generate_program(GeneratorConfig(seed=5, target_lines=300)).source


@pytest.fixture(autouse=True)
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_collector(request):
    """The caller's collector, on or off: the policy never switches it."""
    if not request.param:
        gc.disable()
    try:
        yield request.param
    finally:
        gc.enable()


def test_build_and_check_hold_and_restore(monkeypatch, source, caller_collector):
    import repro.core.engine as engine_mod
    import repro.sched.scheduler as scheduler

    seen = []
    prepare = scheduler.prepare_function
    execute = engine_mod._CheckerRun.execute

    def probe_prepare(*args, **kwargs):
        seen.append(("prepare", gc.get_threshold()))
        return prepare(*args, **kwargs)

    def probe_execute(self):
        seen.append(("check", gc.get_threshold()))
        return execute(self)

    monkeypatch.setattr(scheduler, "prepare_function", probe_prepare)
    monkeypatch.setattr(engine_mod._CheckerRun, "execute", probe_execute)
    before = collector_state()
    engine = Pinpoint.from_source(source)
    assert collector_state() == before
    engine.check(UseAfterFreeChecker())
    assert collector_state() == before == (CALLER, caller_collector, 0)
    assert {stage for stage, _ in seen} == {"prepare", "check"}
    assert all(threshold == HELD for _, threshold in seen)


def test_cli_check_all_restores(tmp_path, capsys, source, caller_collector):
    path = tmp_path / "subject.pin"
    path.write_text(source)
    before = collector_state()
    assert main(["check", str(path), "--all", "--json"]) in (0, 1)
    assert collector_state() == before


def test_run_that_raises_restores(tmp_path, capsys):
    before = collector_state()
    with pytest.raises(ParseError):
        Pinpoint.from_source("fn broken( {")
    assert collector_state() == before
    path = tmp_path / "broken.pin"
    path.write_text("fn broken( {")
    assert main(["check", str(path), "--strict"]) == 2
    assert collector_state() == before


def test_incremental_edit_restores(source):
    analyzer = IncrementalAnalyzer()
    before = collector_state()
    engine = analyzer.analyze(source)
    cold = [engine.check(checker()) for checker in CHECKERS.values()]
    first = source.index("fn ")
    body = source.index("{", first) + 1
    edited = source[:body] + " gc_policy_edit = 1;" + source[body:]
    engine = analyzer.analyze(edited)
    warm = [engine.check(checker()) for checker in CHECKERS.values()]
    assert analyzer.last_stats.analyzed >= 1
    assert [len(r.reports) for r in warm] == [len(r.reports) for r in cold]
    assert collector_state() == before


def test_daemon_job_restores(source, caller_collector):
    from repro.service.server import ServiceConfig, ServiceServer

    before = collector_state()
    with ServiceServer(ServiceConfig(workers=1)) as server:
        job = server.submit_check({"source": source})["job"]
        assert job.done.wait(120)
        assert job.status == "done", job.error
    assert collector_state() == before == (CALLER, caller_collector, 0)


_BACK_TO_BACK_SCRIPT = """
import gc
from repro.robust import heap
from repro.service.server import ServiceConfig, ServiceServer
from repro.synth.generator import GeneratorConfig, generate_program

sources = [
    generate_program(GeneratorConfig(seed=seed, target_lines=600)).source
    for seed in range(8)
]
held = []
gc.callbacks.append(
    lambda phase, info: held.append(heap._depth)
    if phase == "start" and info["generation"] == 2
    else None
)
# Small young-generation thresholds make the held count pass in a few
# jobs instead of some ten thousand.
gc.set_threshold(10, 0, 10)
with ServiceServer(ServiceConfig(workers=2)) as server:
    jobs = [
        server.submit_check({"source": source, "session": f"s{index}"})["job"]
        for index, source in enumerate(sources)
    ]
    for job in jobs:
        assert job.done.wait(300), job.job_id
        assert job.status == "done", job.error
print(sum(1 for depth in held if depth), gc.get_threshold())
"""


def test_back_to_back_daemon_jobs_still_run_full_collections():
    # Two workers and eight queued jobs: the hold is never left, as in
    # a daemon under steady load.  The finite held threshold still lets
    # full collections through, so cycles that reached generation 2
    # are freed.  A fresh interpreter keeps the test suite's heap out
    # of CPython's own full-collection rule.
    import subprocess
    from pathlib import Path

    import repro

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _BACK_TO_BACK_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    held, threshold = done.stdout.split(" ", 1)
    assert int(held) >= 1
    assert threshold.strip() == "(10, 0, 10)"


def test_nested_entries_restore_at_the_outermost_exit():
    before = collector_state()
    with hold_full_collections():
        assert gc.get_threshold() == HELD
        with pytest.raises(RuntimeError):
            with hold_full_collections():
                assert gc.get_threshold() == HELD
                raise RuntimeError("inner run fails")
        assert gc.get_threshold() == HELD
    assert collector_state() == before


def test_overlapping_threads_restore_after_the_last_exit():
    before = collector_state()
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = []

    def first():
        with hold_full_collections():
            first_in.set()
            second_in.wait(10)
        first_out.set()

    def second():
        first_in.wait(10)
        with hold_full_collections():
            second_in.set()
            first_out.wait(10)
            # The first thread left; this one's analysis is still held.
            seen.append(gc.get_threshold())

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [HELD]
    assert collector_state() == before


def test_entries_from_many_threads_keep_the_count():
    before = collector_state()
    failures = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def churn():
        for _ in range(200):
            with hold_full_collections():
                with hold_full_collections():
                    if gc.get_threshold() != HELD:
                        failures.append(gc.get_threshold())

    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert heap._depth == 0
    assert collector_state() == before
