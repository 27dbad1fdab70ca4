"""Run-to-run determinism: a cached run's output must equal a fresh one's.

For every ``.pin`` program shipped in ``examples/`` and the malformed
``tests/corpus/`` fixtures, ``repro check`` through a cold and then a
warm artifact cache must emit the same findings, diagnostics, and stats
as an uncached run.  The comparison covers the semantic sections of the
JSON document; the ``metrics`` section is excluded by design (it embeds
wall-clock timing histograms).
"""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry, set_registry

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
PROGRAMS = sorted(
    glob.glob(os.path.join(EXAMPLES_DIR, "*.pin"))
    + glob.glob(os.path.join(CORPUS_DIR, "*.pin"))
)
IDS = [os.path.basename(p) for p in PROGRAMS]


@pytest.fixture(autouse=True)
def _fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


def _json_run(path, capsys, *flags):
    set_registry(MetricsRegistry())
    code = main(["check", path, "--all", "--json", *flags])
    document = json.loads(capsys.readouterr().out)
    return code, {
        "reports": document["reports"],
        "diagnostics": document["diagnostics"],
        # No timings here: they live in metrics["engine.seconds"].
        "stats": document["stats"],
    }


def test_corpus_is_nonempty():
    assert len(PROGRAMS) >= 7  # 2+ examples, 5+ corpus fixtures


@pytest.mark.parametrize("path", PROGRAMS, ids=IDS)
def test_json_identical_through_warm_cache(path, capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    serial = _json_run(path, capsys)
    cold = _json_run(path, capsys, "--cache-dir", cache_dir)
    warm = _json_run(path, capsys, "--cache-dir", cache_dir)
    assert cold == serial
    assert warm == serial


def test_generated_loop_workload_identical(tmp_path, capsys):
    # Regression: loop-gate variable names embed instruction uids, and
    # uids used to be allocated from a process-global counter — a
    # second run in the same process, or one whose functions were
    # prepared in another order, numbered them differently, producing
    # conditions like `loop.1485.body2` vs `loop.1583.body2`.  Uids are
    # now scoped per prepared function (cfg.scoped_uids), so a
    # loop-heavy generated workload must come out identical run after
    # run and through a warm cache.
    from repro.synth.generator import GeneratorConfig, generate_program

    program = generate_program(GeneratorConfig(seed=9, target_lines=800))
    path = tmp_path / "generated.pin"
    path.write_text(program.source)
    cache_dir = str(tmp_path / "cache")
    serial = _json_run(str(path), capsys)
    assert _json_run(str(path), capsys) == serial
    _json_run(str(path), capsys, "--cache-dir", cache_dir)
    assert _json_run(str(path), capsys, "--cache-dir", cache_dir) == serial
    conditions = " ".join(r["condition"] for r in serial[1]["reports"])
    assert "loop." in conditions  # the workload really exercises loop gates
