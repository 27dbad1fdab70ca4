"""Interface-change invalidation across recursive SCCs.

The cache key scheme (repro.cache.keys) promises:

- a *body-only* edit re-prepares exactly the edited function — callers
  keep their artifacts because the callee's connector signature is
  unchanged;
- an *interface* edit (new Mod/Ref behaviour surfacing as Aux
  params/returns) invalidates the edited function and, transitively,
  every caller whose own signature shifts as a result;
- functions in the same call-graph SCC do not key on each other's
  signatures (recursion is unrolled once), so an interface edit inside
  an SCC invalidates callers *outside* the SCC, not SCC siblings that
  never call the edited function.

Both cache tiers must agree: the in-memory IncrementalAnalyzer and the
on-disk SummaryStore used by prepare_program.
"""

import dataclasses

import pytest

from repro import Pinpoint, UseAfterFreeChecker
from repro.cache.store import SummaryStore
from repro.core.incremental import IncrementalAnalyzer
from repro.core.pipeline import prepare_source
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

# `even`/`odd` form a recursive SCC; `even` (not `odd`) calls the leaf.
BASE = """
fn leaf(p) { x = *p; return x + 1; }
fn even(p, n) {
    if (n > 0) { r = odd(p, n - 1); return r; }
    v = leaf(p);
    return v;
}
fn odd(p, n) {
    if (n > 0) { r = even(p, n - 1); return r; }
    return 0;
}
fn main(n) {
    p = malloc();
    e = even(p, n);
    free(p);
    return e;
}
"""

# Body-only: leaf computes a different value, same interface.
BODY_EDIT = BASE.replace("return x + 1;", "return x + 2;")

# Interface: leaf now writes through p — a new Aux param in its
# connector signature.
INTERFACE_EDIT = BASE.replace("x = *p;", "x = *p; *p = 0;")


@pytest.fixture(autouse=True)
def _fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


# ----------------------------------------------------------------------
# In-memory tier
# ----------------------------------------------------------------------
def test_body_edit_in_scc_program_reprepares_only_the_leaf():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    analyzer.analyze(BODY_EDIT)
    assert analyzer.last_stats.analyzed == 1  # just leaf
    assert analyzer.last_stats.reused == 3


def test_interface_edit_invalidates_transitively_but_not_scc_sibling():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    analyzer.analyze(INTERFACE_EDIT)
    # leaf changed; even calls leaf so its artifacts (and, its own
    # signature having shifted, main's) are stale.  odd never calls
    # leaf and does not key on even's same-SCC signature: reused.
    assert analyzer.last_stats.analyzed == 3
    assert analyzer.last_stats.reused == 1


def test_scc_members_do_not_key_on_each_other():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    # A body edit to one SCC member re-prepares only that member.
    edited = BASE.replace("return 0;", "return 0 + 0;")
    analyzer.analyze(edited)
    assert analyzer.last_stats.analyzed == 1  # just odd
    assert analyzer.last_stats.reused == 3


# ----------------------------------------------------------------------
# On-disk tier: a brand-new analyzer warm-starts from the store
# ----------------------------------------------------------------------
def test_disk_store_warm_starts_a_fresh_analyzer(tmp_path):
    store = SummaryStore(str(tmp_path / "cache"))
    IncrementalAnalyzer(store=store).analyze(BASE)
    cold = IncrementalAnalyzer(store=store)
    engine = cold.analyze(BASE)
    assert cold.last_stats.analyzed == 0
    assert cold.last_stats.reused == 4
    assert len(engine.check(UseAfterFreeChecker())) == 0


def test_disk_store_body_edit_invalidates_only_the_leaf(tmp_path):
    store = SummaryStore(str(tmp_path / "cache"))
    IncrementalAnalyzer(store=store).analyze(BASE)
    cold = IncrementalAnalyzer(store=store)
    cold.analyze(BODY_EDIT)
    assert cold.last_stats.analyzed == 1
    assert cold.last_stats.reused == 3


def test_disk_store_interface_edit_invalidates_transitively(tmp_path):
    store = SummaryStore(str(tmp_path / "cache"))
    IncrementalAnalyzer(store=store).analyze(BASE)
    cold = IncrementalAnalyzer(store=store)
    cold.analyze(INTERFACE_EDIT)
    assert cold.last_stats.analyzed == 3  # leaf, even, main
    assert cold.last_stats.reused == 1  # odd


# ----------------------------------------------------------------------
# On-disk tier through prepare_program (the --cache-dir path)
# ----------------------------------------------------------------------
def _scheduler_run(source, store):
    set_registry(MetricsRegistry())
    prepare_source(source, store=store)
    registry = get_registry()
    return (
        registry.counter("cache.hits").total(),
        registry.counter("cache.misses").total(),
    )


def test_scheduler_store_warm_run_hits_everything(tmp_path):
    store = SummaryStore(str(tmp_path / "cache"))
    hits, misses = _scheduler_run(BASE, store)
    assert (hits, misses) == (0, 4)
    hits, misses = _scheduler_run(BASE, store)
    assert (hits, misses) == (4, 0)


def test_scheduler_store_body_edit_misses_once(tmp_path):
    store = SummaryStore(str(tmp_path / "cache"))
    _scheduler_run(BASE, store)
    hits, misses = _scheduler_run(BODY_EDIT, store)
    assert (hits, misses) == (3, 1)


def test_scheduler_store_interface_edit_misses_transitively(tmp_path):
    store = SummaryStore(str(tmp_path / "cache"))
    _scheduler_run(BASE, store)
    hits, misses = _scheduler_run(INTERFACE_EDIT, store)
    assert (hits, misses) == (1, 3)


def test_cached_run_reports_match_fresh_run(tmp_path):
    def reports(**kwargs):
        set_registry(MetricsRegistry())
        engine = Pinpoint.from_source(UAF, **kwargs)
        return [
            dataclasses.asdict(r)
            for r in engine.check(UseAfterFreeChecker()).reports
        ]

    UAF = BASE.replace("free(p);\n    return e;", "return e;").replace(
        "e = even(p, n);", "free(p);\n    e = even(p, n);"
    )
    cache_dir = str(tmp_path / "cache")
    fresh = reports()
    cold = reports(cache_dir=cache_dir)
    warm = reports(cache_dir=cache_dir)
    assert cold == fresh
    assert warm == fresh
    assert fresh  # the freed pointer reaches leaf's load: a real report
