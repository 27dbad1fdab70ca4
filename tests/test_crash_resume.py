"""Crash durability through the content-addressed artifact store.

A run killed mid-wave leaves every function it finished in its
``--cache-dir`` store.  Rerunning with the same ``--cache-dir`` serves
those functions from the store, recomputes only the rest, and reports
findings and diagnostics byte-identical to an uninterrupted run.  The
``kill-worker``/``disk-full`` fault sites make those paths
deterministic to exercise.
"""

import dataclasses
import os

import pytest

from repro import Pinpoint, UseAfterFreeChecker
from repro.cache import SummaryStore
from repro.cache.store import CACHE_DIR_ENV
from repro.cli import main
from repro.obs.history import HISTORY_DIR_ENV
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.robust.diagnostics import STAGE_SCHED
from repro.robust.faults import install_faults, reset_faults
from repro.sched import JOBS_ENV

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

# Same program with a body-only edit in `helper` (same interface): on a
# rerun, exactly `helper` must recompute — its callers keep matching.
PROGRAM_EDITED = PROGRAM.replace(
    "fn helper(p) { x = *p; return x; }",
    "fn helper(p) { x = *p; y = x + 0; return y; }",
)

#: Wave plan of PROGRAM: leaves first, then their caller, then main.
WAVE0 = {"helper", "touch"}


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for var in (JOBS_ENV, CACHE_DIR_ENV, HISTORY_DIR_ENV):
        monkeypatch.delenv(var, raising=False)
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


def _counter(name):
    return get_registry().counter(name).total()


def _stored_names(cache_dir):
    """Function name of every entry in the store under ``cache_dir``."""
    store = SummaryStore(cache_dir)
    return {store.get(digest)[0] for digest in store.entries()}


# ----------------------------------------------------------------------
# kill-worker: a run killed mid-wave exits 3 and leaves its store behind
# ----------------------------------------------------------------------
def test_kill_worker_exits_degraded_with_store_behind(tmp_path, capsys):
    program = tmp_path / "prog.pin"
    program.write_text(PROGRAM)
    cache_dir = str(tmp_path / "cache")
    code = main(
        [
            "check", str(program), "--all", "--json",
            "--jobs", "2",
            "--cache-dir", cache_dir,
            "--fault", "kill-worker:0",
        ]
    )
    capsys.readouterr()
    assert code == 3  # degraded coverage
    # Wave 0's functions died before completing, so the store holds
    # nothing for them.  Later waves completed (degraded) and are stored.
    stored = _stored_names(cache_dir)
    assert WAVE0.isdisjoint(stored)
    assert "main" in stored


def test_resume_after_kill_worker_matches_uninterrupted(tmp_path):
    reference = _snapshot(PROGRAM)

    cache_dir = str(tmp_path / "cache")
    install_faults("kill-worker:0")
    set_registry(MetricsRegistry())
    killed = _snapshot(PROGRAM, jobs=2, cache_dir=cache_dir)
    assert any(d["stage"] == STAGE_SCHED for d in killed[1])

    reset_faults()
    set_registry(MetricsRegistry())
    rerun = _snapshot(PROGRAM, jobs=2, cache_dir=cache_dir)
    assert rerun == reference


# ----------------------------------------------------------------------
# A SIGKILL-shaped interruption: only wave 0 reached the store
# ----------------------------------------------------------------------
def _keep_only_wave0(cache_dir):
    """Delete every store entry outside wave 0: what a run SIGKILLed
    right after wave 0 leaves on disk."""
    store = SummaryStore(cache_dir)
    for digest in store.entries():
        if store.get(digest)[0] not in WAVE0:
            os.unlink(store._path(digest))


def test_rerun_recomputes_only_lost_functions(tmp_path):
    reference = _snapshot(PROGRAM)

    cache_dir = str(tmp_path / "cache")
    _snapshot(PROGRAM, cache_dir=cache_dir)
    _keep_only_wave0(cache_dir)

    set_registry(MetricsRegistry())
    rerun = _snapshot(PROGRAM, cache_dir=cache_dir)
    assert rerun == reference
    # The two wave-0 entries were served from the store; exactly the two
    # lost functions (chain, main) were recomputed and written back.
    assert _counter("cache.hits") == len(WAVE0)
    assert _counter("cache.misses") == 2
    assert _counter("cache.writes") == 2


def test_resume_after_source_edit_invalidates_only_changed(tmp_path):
    cache_dir = str(tmp_path / "cache")
    _snapshot(PROGRAM, cache_dir=cache_dir)

    reference = _snapshot(PROGRAM_EDITED)
    set_registry(MetricsRegistry())
    rerun = _snapshot(PROGRAM_EDITED, cache_dir=cache_dir)
    assert rerun == reference
    # `helper` changed (body-only, same interface): it alone misses and
    # is rewritten; `touch`, `chain`, `main` keep their AST x interface
    # digests and come straight from the store.
    assert _counter("cache.misses") == 1
    assert _counter("cache.writes") == 1
    assert _counter("cache.hits") == 3


# ----------------------------------------------------------------------
# disk-full degrades the store, never the analysis
# ----------------------------------------------------------------------
def test_persistent_disk_full_degrades_store_not_the_run(tmp_path):
    reference = _snapshot(PROGRAM)
    cache_dir = str(tmp_path / "cache")
    install_faults("disk-full")
    set_registry(MetricsRegistry())
    degraded = _snapshot(PROGRAM, cache_dir=cache_dir)
    assert degraded == reference
    assert _counter("sched.retries") >= 1  # the I/O retry ladder ran
    assert _counter("cache.writes") == 0  # every put degraded to False
    assert SummaryStore(cache_dir).entries() == []
