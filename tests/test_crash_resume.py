"""Crash durability through the content-addressed artifact store.

``prepare_program`` stores each function as soon as it is finished, so
a run killed part-way leaves every function it finished in its
``--cache-dir`` store.  Rerunning with the same ``--cache-dir`` serves
those functions from the store, recomputes only the rest, and reports
findings and diagnostics byte-identical to an uninterrupted run.  A
child process that exits abruptly part-way, and the ``disk-full`` fault
site, make those paths deterministic to exercise.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import Pinpoint, UseAfterFreeChecker
from repro.cache import SummaryStore
from repro.cache.store import CACHE_DIR_ENV
from repro.obs.history import HISTORY_DIR_ENV
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.robust.faults import install_faults, reset_faults

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

#: PROGRAM's bottom-up order is helper, touch, chain, main: a run that
#: dies in its third preparation (`chain`) has finished the two leaves.
LEAVES = {"helper", "touch"}

#: Three leaves under `main`, prepared in the order leaf_a, leaf_b,
#: leaf_c, main: all three leaves sit at the same call-graph depth.
THREE_LEAVES = """
fn leaf_a(p) { x = *p; return x; }
fn leaf_b(p) { *p = 2; return 0; }
fn leaf_c(p) { free(p); return 0; }
fn main() {
    p = malloc();
    a = leaf_a(p);
    b = leaf_b(p);
    c = leaf_c(p);
    d = *p;
    return a + b + c + d;
}
"""


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for var in (CACHE_DIR_ENV, HISTORY_DIR_ENV):
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
# A run that dies part-way keeps the functions it finished
# ----------------------------------------------------------------------
#: Runs ``repro check`` with ``prepare_function`` patched to end the
#: process abruptly (no unwinding, no flush) at its ``DIE_AT``-th call.
_DYING_CHECK = textwrap.dedent(
    """
    import os, sys
    from repro.sched import scheduler
    from repro.cli import main

    real, calls = scheduler.prepare_function, [0]

    def prepare_function(*args, **kwargs):
        calls[0] += 1
        if calls[0] == int(os.environ["DIE_AT"]):
            os._exit(70)
        return real(*args, **kwargs)

    scheduler.prepare_function = prepare_function
    sys.exit(main(sys.argv[1:]))
    """
)


def _check_in_child(argv, die_at=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    for var in (CACHE_DIR_ENV, HISTORY_DIR_ENV):
        env.pop(var, None)
    env["DIE_AT"] = str(die_at)
    return subprocess.run(
        [sys.executable, "-c", _DYING_CHECK, "check", *argv, "--all", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _semantic(stdout):
    document = json.loads(stdout)
    return json.dumps(
        {key: document[key] for key in ("reports", "diagnostics", "stats")},
        sort_keys=True,
    )


def _die_part_way(tmp_path):
    """Run ``check --cache-dir`` in a child that dies preparing `chain`;
    return (program path, cache dir, the dead child's result)."""
    program = tmp_path / "prog.pin"
    program.write_text(PROGRAM)
    cache_dir = str(tmp_path / "cache")
    # The third preparation is `chain`'s: both leaves are stored by then.
    dead = _check_in_child([str(program), "--cache-dir", cache_dir], die_at=3)
    return program, cache_dir, dead


def test_killed_run_stores_the_leaves_it_finished(tmp_path):
    _program, cache_dir, dead = _die_part_way(tmp_path)
    assert dead.returncode == 70, dead.stderr
    assert dead.stdout == ""
    assert _stored_names(cache_dir) == LEAVES


def test_killed_run_keeps_every_function_it_finished(tmp_path):
    program = tmp_path / "leaves.pin"
    program.write_text(THREE_LEAVES)
    cache_dir = str(tmp_path / "cache")
    # Dies preparing leaf_c: leaf_a and leaf_b are stored, although
    # leaf_c sits at their depth of the call graph.
    dead = _check_in_child([str(program), "--cache-dir", cache_dir], die_at=3)
    assert dead.returncode == 70, dead.stderr
    assert _stored_names(cache_dir) == {"leaf_a", "leaf_b"}

    reference = _check_in_child([str(program)])
    assert reference.returncode == 1, reference.stderr
    rerun = _check_in_child([str(program), "--cache-dir", cache_dir])
    assert rerun.returncode == reference.returncode
    assert _semantic(rerun.stdout) == _semantic(reference.stdout)
    metrics = json.loads(rerun.stdout)["metrics"]
    assert metrics["cache.hits"]["value"] == 2
    assert metrics["cache.misses"]["value"] == metrics["cache.writes"]["value"] == 2


def test_resume_after_killed_run_matches_uninterrupted(tmp_path):
    program, cache_dir, dead = _die_part_way(tmp_path)
    assert dead.returncode == 70, dead.stderr
    reference = _check_in_child([str(program)])
    assert reference.returncode == 1, reference.stderr

    rerun = _check_in_child([str(program), "--cache-dir", cache_dir])
    assert rerun.returncode == reference.returncode
    assert _semantic(rerun.stdout) == _semantic(reference.stdout)
    metrics = json.loads(rerun.stdout)["metrics"]
    assert metrics["cache.hits"]["value"] == len(LEAVES)
    assert metrics["cache.misses"]["value"] == metrics["cache.writes"]["value"] == 2


# ----------------------------------------------------------------------
# A SIGKILL-shaped interruption: only the leaves reached the store
# ----------------------------------------------------------------------
def _keep_only_leaves(cache_dir):
    """Delete every store entry but the leaves': what a run SIGKILLed
    right after preparing the leaves keeps on disk."""
    store = SummaryStore(cache_dir)
    for digest in store.entries():
        if store.get(digest)[0] not in LEAVES:
            os.unlink(store._path(digest))


def test_rerun_recomputes_only_lost_functions(tmp_path):
    reference = _snapshot(PROGRAM)

    cache_dir = str(tmp_path / "cache")
    _snapshot(PROGRAM, cache_dir=cache_dir)
    _keep_only_leaves(cache_dir)

    set_registry(MetricsRegistry())
    rerun = _snapshot(PROGRAM, cache_dir=cache_dir)
    assert rerun == reference
    # The two leaf entries were served from the store; exactly the two
    # lost functions (chain, main) were recomputed and written back.
    assert _counter("cache.hits") == len(LEAVES)
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
