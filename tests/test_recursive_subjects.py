"""The same-SCC path on generated programs.

No generated subject is recursive, so this module splices a mutually
recursive pair and a self-recursive helper into the generated 2k-line
subjects of seeds 1-3, and has the generated roots call them.  Calls
inside an SCC stay untransformed, an SCC member's usable signatures and
cache key leave its SCC out, and a checker sees a same-SCC callee
processed later as opaque.  Every mode must agree on all of it: a plain
run, cold and warm ``--cache-dir`` runs, and a session through a body
edit inside the SCC and an edit that breaks the cycle, each step equal
to a cold run of the same program.
"""

import itertools
import json
import re

import pytest

from repro import IncrementalAnalyzer, Pinpoint
from repro.cache.store import CACHE_DIR_ENV
from repro.cli import CHECKERS, main
from repro.core.incremental import apply_function_edit
from repro.core.report import report_as_dict
from repro.ir.callgraph import CallGraph
from repro.lang.parser import parse_function, parse_program
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.robust.faults import reset_faults
from repro.synth.generator import GeneratorConfig, generate_program

#: Both helpers free their pointer on one path and read it on another.
HELPERS = """\
fn rec_even(p, n) {
    if (n > 0) { r = rec_odd(p, n - 1); return r; }
    free(p);
    return 0;
}
fn rec_odd(p, n) {
    x = *p;
    if (n > 1) { r = rec_even(p, n - 1); return r + x; }
    return x;
}
fn rec_self(p, n) {
    if (n > 0) { r = rec_self(p, n - 1); return r; }
    v = *p;
    free(p);
    return v;
}
"""

#: The first line of ``rec_odd`` in a spliced subject, and two one-line
#: edits of it: one inside the SCC, one that breaks the cycle.
REC_ODD_LINE = 6
REC_ODD = "    if (n > 1) { r = rec_even(p, n - 1); return r + x; }"
BODY_EDIT = "    if (n > 2) { r = rec_even(p, n - 1); return r + x; }"
CYCLE_BREAK = "    if (n > 1) { r = n; return r + x; }"

#: Called from the start of each generated root, in turn.
ROOT_CALLS = ("rec_even", "rec_self", "rec_odd")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_faults()
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


def _spliced(seed):
    """The generated 2k subject of ``seed``, the helpers on top and a
    call to one of them at the start of each root.  Each call reads the
    pointer it passed, so a helper's free reaches a use in the root."""
    source = generate_program(GeneratorConfig(seed=seed, target_lines=2000)).source
    calls = itertools.cycle(ROOT_CALLS)

    def call(match):
        helper = next(calls)
        return (
            f"{match.group(0)}\n"
            "    rq = malloc();\n"
            "    *rq = a;\n"
            f"    rh = {helper}(rq, a);\n"
            "    ry = *rq;"
        )

    source, roots = re.subn(r"^fn u\d+_root\(a\) \{$", call, source, flags=re.M)
    assert roots >= len(ROOT_CALLS)
    return HELPERS + source


def _check_all(engine):
    results = [engine.check(checker()) for checker in CHECKERS.values()]
    return (
        [report_as_dict(report) for result in results for report in result],
        [diag.as_dict() for result in results for diag in result.diagnostics],
        [result.stats.as_dict() for result in results],
    )


def _cli_check(path, capsys, *flags):
    """The reports, diagnostics and stats of ``check --all --json``, and
    its metrics."""
    set_registry(MetricsRegistry())
    main(["check", str(path), "--all", "--json", *flags])
    document = json.loads(capsys.readouterr().out)
    return document, document.pop("metrics")


def _edit_rec_odd(program, source, line):
    """``source`` with rec_odd's branch line replaced, and ``program``
    with rec_odd re-parsed at its own line and spliced in."""
    edited = source.replace(REC_ODD, line, 1)
    lines = edited.splitlines()[REC_ODD_LINE - 1 : REC_ODD_LINE + 4]
    func = parse_function("\n".join(lines), first_line=REC_ODD_LINE)
    assert func.name == "rec_odd"
    return apply_function_edit(program, func), edited


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recursive_subject_agrees_in_every_mode(seed, tmp_path, capsys):
    source = _spliced(seed)
    program = parse_program(source)
    callgraph = CallGraph(program)
    assert any(len(scc) > 1 for scc in callgraph.sccs())
    assert any(name in callgraph.callees[name] for name in callgraph.callees)

    path = tmp_path / "recursive.pin"
    path.write_text(source)
    cache = str(tmp_path / "cache")
    plain, _ = _cli_check(path, capsys)
    assert any(
        report["source"]["function"] in ROOT_CALLS for report in plain["reports"]
    )
    cold, _ = _cli_check(path, capsys, "--cache-dir", cache)
    warm, metrics = _cli_check(path, capsys, "--cache-dir", cache)
    assert cold == warm == plain
    assert metrics["cache.hits"]["value"] == len(program.functions)

    analyzer = IncrementalAnalyzer()
    cold = _check_all(Pinpoint.from_program(program))
    assert _check_all(analyzer.analyze_program(program)) == cold
    for line in (BODY_EDIT, CYCLE_BREAK):
        program, source = _edit_rec_odd(program, source, line)
        warm = _check_all(analyzer.analyze_program(program))
        assert analyzer.last_stats.reused > 0
        assert warm == _check_all(Pinpoint.from_program(parse_program(source)))
