"""The scheduler's one order: ``CallGraph.bottom_up_order()``.

``repro.sched.prepare_program`` prepares, verifies and stores each
function in this order.  The test names are those of the SCC waves the
order replaced; each wave invariant holds of the order itself.
"""

from repro.ir.callgraph import CallGraph
from repro.lang.parser import parse_program
from tests.test_core_units import DIAMOND, EVEN_ODD, ORDER_CASES, _order_case


def _order(source):
    return CallGraph(parse_program(source)).bottom_up_order()


def test_leaves_first_callers_later():
    assert _order(DIAMOND) == ["leaf_a", "leaf_b", "mid", "main"]
    assert _order(EVEN_ODD) == ["even", "odd", "main"]


def test_wave_invariant_callees_in_earlier_waves():
    for case in ORDER_CASES:
        graph = CallGraph(parse_program(_order_case(case)))
        position = {
            name: index for index, name in enumerate(graph.bottom_up_order())
        }
        for name, callees in graph.callees.items():
            for callee in callees:
                if graph.scc_of[callee] != graph.scc_of[name]:
                    assert position[callee] < position[name], (case, callee, name)


def test_waves_cover_every_function_once():
    for case in ORDER_CASES:
        graph = CallGraph(parse_program(_order_case(case)))
        order = graph.bottom_up_order()
        assert sorted(order) == sorted(graph.callees), case


def test_empty_program_has_no_waves():
    assert _order("") == []
