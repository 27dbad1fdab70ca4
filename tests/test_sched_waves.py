"""Wave condensation of the call graph (repro.sched.waves)."""

from repro.ir.callgraph import CallGraph
from repro.lang.parser import parse_program
from repro.sched.waves import scc_waves, wave_sizes

DIAMOND = """
fn leaf_a(p) { x = *p; return x; }
fn leaf_b(p) { *p = 1; return 0; }
fn mid(p) { a = leaf_a(p); b = leaf_b(p); return a + b; }
fn main() {
    p = malloc();
    r = mid(p);
    free(p);
    return r;
}
"""

RECURSIVE = """
fn even(n) { if (n > 0) { r = odd(n - 1); return r; } return 1; }
fn odd(n) { if (n > 0) { r = even(n - 1); return r; } return 0; }
fn main(n) { e = even(n); return e; }
"""


def _waves(source):
    program = parse_program(source)
    return scc_waves(CallGraph(program))


def _flatten(waves):
    return [name for wave in waves for scc in wave for name in scc]


def test_leaves_first_callers_later():
    waves = _waves(DIAMOND)
    assert len(waves) == 3
    assert sorted(_flatten(waves[:1])) == ["leaf_a", "leaf_b"]
    assert _flatten([waves[1]]) == ["mid"]
    assert _flatten([waves[2]]) == ["main"]


def test_wave_invariant_callees_in_earlier_waves():
    program = parse_program(DIAMOND)
    callgraph = CallGraph(program)
    waves = scc_waves(callgraph)
    wave_of = {
        name: index
        for index, wave in enumerate(waves)
        for scc in wave
        for name in scc
    }
    scc_of = {}
    for index, scc in enumerate(callgraph.sccs()):
        for member in scc:
            scc_of[member] = index
    for name, wave in wave_of.items():
        for callee in callgraph.callees.get(name, ()):
            if callee not in wave_of or scc_of[callee] == scc_of[name]:
                continue
            assert wave_of[callee] < wave


def test_recursive_scc_stays_one_unit():
    waves = _waves(RECURSIVE)
    mutual = [scc for wave in waves for scc in wave if len(scc) > 1]
    assert mutual == [["even", "odd"]]
    # The SCC occupies one wave; main depends on it and comes later.
    wave_of = {
        name: index
        for index, wave in enumerate(waves)
        for scc in wave
        for name in scc
    }
    assert wave_of["even"] == wave_of["odd"]
    assert wave_of["main"] > wave_of["even"]


def test_waves_cover_every_function_once():
    flat = _flatten(_waves(DIAMOND))
    assert sorted(flat) == ["leaf_a", "leaf_b", "main", "mid"]
    assert len(flat) == len(set(flat))


def test_waves_deterministic_across_rebuilds():
    assert _waves(DIAMOND) == _waves(DIAMOND)
    assert _waves(RECURSIVE) == _waves(RECURSIVE)


def test_wave_sizes():
    assert wave_sizes(_waves(DIAMOND)) == [2, 1, 1]
    assert sum(wave_sizes(_waves(RECURSIVE))) == 3


def test_empty_program_has_no_waves():
    assert _waves("") == []
