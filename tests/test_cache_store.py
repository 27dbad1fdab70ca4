"""The on-disk artifact store (repro.cache.store)."""

import os
import pickle

import pytest

from repro.cache.keys import (
    SCHEMA_VERSION,
    ast_fingerprint,
    key_digest,
    prepare_cache_key,
    signature_fingerprint,
)
from repro.cache.store import (
    CACHE_DIR_ENV,
    SummaryStore,
    open_store,
    resolve_cache_dir,
)
from repro.lang.parser import parse_program
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

DIGEST = "ab" + "0" * 62


@pytest.fixture(autouse=True)
def _fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


@pytest.fixture
def store(tmp_path):
    return SummaryStore(str(tmp_path / "cache"))


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def test_resolve_cache_dir_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, "/from/env")
    assert resolve_cache_dir("/explicit") == "/explicit"
    assert resolve_cache_dir() == "/from/env"
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert resolve_cache_dir() == ""


def test_open_store_none_when_unset(monkeypatch, tmp_path):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert open_store(None) is None
    assert open_store("") is None
    opened = open_store(str(tmp_path / "c"))
    assert isinstance(opened, SummaryStore)


# ----------------------------------------------------------------------
# Round trips and the miss ladder
# ----------------------------------------------------------------------
def test_empty_store_misses(store):
    assert store.get(DIGEST) is None
    assert get_registry().counter("cache.misses").total() == 1


def test_put_get_roundtrip(store):
    artifact = {"points_to": [1, 2, 3], "signature": ("p",)}
    assert store.put(DIGEST, "helper", artifact, seg={"vertices": 4})
    loaded = store.get(DIGEST)
    assert loaded == ("helper", artifact, {"vertices": 4})
    registry = get_registry()
    assert registry.counter("cache.writes").total() == 1
    assert registry.counter("cache.hits").total() == 1


def test_corrupt_entry_is_evicted_as_a_miss(store):
    store.put(DIGEST, "helper", "artifact", "seg")
    path = store._path(DIGEST)
    with open(path, "wb") as handle:
        handle.write(b"\x80\x04 this is not a pickle")
    assert store.get(DIGEST) is None
    assert not os.path.exists(path)
    assert get_registry().counter("cache.evictions").total() == 1


def test_wrong_shape_payload_is_evicted(store):
    path = store._path(DIGEST)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump(["not", "a", "triple", "at", "all"], handle)
    assert store.get(DIGEST) is None
    assert not os.path.exists(path)


def test_unpicklable_artifact_fails_softly(store, tmp_path):
    assert not store.put(DIGEST, "helper", lambda: None, "seg")
    assert store.get(DIGEST) is None
    # The temp file was cleaned up: nothing but directories remain.
    leftovers = [
        name
        for _dir, _subdirs, names in os.walk(str(tmp_path / "cache"))
        for name in names
    ]
    assert leftovers == []


def test_entries_and_clear(store):
    digests = [f"{i:02x}" + "0" * 62 for i in range(3)]
    for digest in digests:
        store.put(digest, "f", digest, "seg")
    assert store.entries() == sorted(digests)
    assert store.clear() == 3
    assert store.entries() == []
    assert store.get(digests[0]) is None


def test_stats_shape(store):
    store.put(DIGEST, "helper", "artifact", "seg")
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert stats["schema_version"] == SCHEMA_VERSION


# ----------------------------------------------------------------------
# Versioned invalidation
# ----------------------------------------------------------------------
def test_stale_schema_versions_pruned_on_open(tmp_path):
    root = str(tmp_path / "cache")
    old = SummaryStore(root, version=SCHEMA_VERSION + 1)
    old.put(DIGEST, "helper", "artifact-from-the-future", "seg")
    fresh = SummaryStore(root)
    assert fresh.pruned_versions == 1
    assert not os.path.isdir(os.path.join(root, f"v{SCHEMA_VERSION + 1}"))
    assert fresh.get(DIGEST) is None
    # Same-version entries survive a reopen untouched.
    fresh.put(DIGEST, "helper", "current", "seg")
    again = SummaryStore(root)
    assert again.pruned_versions == 0
    assert again.get(DIGEST) == ("helper", "current", "seg")


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
SOURCE = """
fn helper(p) { x = *p; return x; }
fn main() { p = malloc(); y = helper(p); free(p); return y; }
"""


def _func(source, name):
    program = parse_program(source)
    return next(f for f in program.functions if f.name == name)


def test_ast_fingerprint_ignores_formatting():
    helper = _func(SOURCE, "helper")
    reformatted = _func(
        SOURCE.replace(
            "fn helper(p) { x = *p; return x; }",
            "// comment\nfn helper(p) {\n    x = *p;\n    return x;\n}",
        ),
        "helper",
    )
    assert ast_fingerprint(helper) == ast_fingerprint(reformatted)


def test_ast_fingerprint_sees_body_edits():
    helper = _func(SOURCE, "helper")
    edited = _func(SOURCE.replace("x = *p;", "x = *p; *p = 0;"), "helper")
    assert ast_fingerprint(helper) != ast_fingerprint(edited)


def test_cache_key_ignores_uncalled_functions():
    main = _func(SOURCE, "main")

    class Sig:
        params = ("p",)
        aux_params = ()
        aux_returns = ()

    called = {"helper": Sig()}
    with_stranger = {"helper": Sig(), "stranger": Sig()}
    key_a = prepare_cache_key(main, called, {"helper"})
    key_b = prepare_cache_key(main, with_stranger, {"helper"})
    assert key_a == key_b
    assert key_digest(key_a) == key_digest(key_b)


def test_cache_key_sees_interface_changes():
    main = _func(SOURCE, "main")

    class Sig:
        def __init__(self, aux):
            self.params = ("p",)
            self.aux_params = aux
            self.aux_returns = ()

    key_a = prepare_cache_key(main, {"helper": Sig(())}, {"helper"})
    key_b = prepare_cache_key(main, {"helper": Sig(("p_aux",))}, {"helper"})
    assert key_a != key_b
    assert key_digest(key_a) != key_digest(key_b)
    assert signature_fingerprint(Sig(())) != signature_fingerprint(
        Sig(("p_aux",))
    )


def test_entry_without_kept_sizes_counts_them_on_first_read(store):
    # Entries written before SEGs and points-to results kept their sizes
    # hold neither count; the first read after loading counts them.
    from repro.core.pipeline import prepare_source

    module = prepare_source("fn f(p) { *p = 1; x = *p; free(p); return x; }")
    prepared, seg = module["f"], module.segs["f"]
    edges, facts = seg.edge_count(), prepared.points_to.fact_count()
    assert edges and facts
    del seg.__dict__["_edge_count"]
    del prepared.points_to.__dict__["_fact_count"]
    assert store.put(DIGEST, "f", prepared, seg)
    _name, loaded, loaded_seg = store.get(DIGEST)
    assert "_edge_count" not in vars(loaded_seg)
    assert loaded_seg.edge_count() == edges
    assert loaded.points_to.fact_count() == facts
