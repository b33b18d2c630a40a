import pytest

import radialflow
import radialflow.bfs
import radialflow.cli
import radialflow.network
from spans import Span, Tracer, layer_totals, self_times, top_level_seconds


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0, None),
        Span("mid", 1.0, 7.0, 0),
        Span("leaf", 2.0, 5.0, 1),
        Span("leaf", 8.0, 9.0, 0),
        Span("other", 11.0, 12.5, None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.5])
    totals = layer_totals(spans)
    assert totals["leaf.self_s"] == pytest.approx(4.0)
    assert totals["leaf.calls"] == 2
    assert top_level_seconds(spans) == pytest.approx(11.5)
    assert sum(self_times(spans)) == pytest.approx(top_level_seconds(spans))


def test_tracer_nests_spans_and_records_counters():
    tracer = Tracer()
    inner = tracer._wrap("m.inner", lambda x: x * 2, (("m.inner.out", lambda a, r: r),))
    outer = tracer._wrap("m.outer", lambda x: inner(x) + inner(x + 1), ())
    assert outer(3) == 14
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("m.outer", None), ("m.inner", 0), ("m.inner", 0)]
    totals = layer_totals(tracer.spans)
    assert totals["m.inner.out"] == 6 + 8
    assert totals["m.inner.calls"] == 2


def test_install_rebinds_every_alias_and_uninstall_restores_them():
    original = radialflow.network.build_incidence
    tracer = Tracer()
    tracer.install()
    try:
        for module in (radialflow, radialflow.network, radialflow.bfs, radialflow.cli):
            assert module.build_incidence is not original
        feeder = radialflow.example_feeder("unbalanced_ten_bus")
        sol = radialflow.bfs.solve_bfs(feeder)
        radialflow.bfs.residual(feeder, sol)
    finally:
        tracer.uninstall()
    for module in (radialflow, radialflow.network, radialflow.bfs, radialflow.cli):
        assert module.build_incidence is original
    totals = layer_totals(tracer.spans)
    assert totals["bfs.iterations"] == sol.iterations
    assert totals["network.build_incidence.calls"] == 1
    assert totals["network.ybus.out_bytes"] == (10 * 3) ** 2 * 16
    # Per-element helpers stay unwrapped: one injection span per sweep.
    assert totals["loads.nodal_injections.calls"] == sol.iterations + 1
    assert "loads.injection_current.calls" not in totals
