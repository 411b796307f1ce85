from fractions import Fraction

import tincell as tc
import tincell.regions
import tracer
from tracer import self_times


def span(sid, parent, t0, t1, layer="x"):
    return [0, sid, parent, layer, layer, t0, t1, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, -1, 0.0, 10.0),  # root
        span(1, 0, 1.0, 4.0),  # child
        span(2, 1, 2.0, 3.0),  # grandchild
        span(3, 0, 5.0, 6.0),  # second child
        span(4, -1, 11.0, 12.0),  # second root
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_wrappers_nest_count_and_uninstall():
    net = tc.ChannelStrengths.from_rows(
        2, [2, 1], [[[Fraction(3, 5), Fraction(1, 5)], [Fraction(1), Fraction(1, 10)]], [[Fraction(3, 10), Fraction(1)]]]
    )
    original = tincell.regions.polyhedral_region
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.op = 7
        hit, _ = tincell.regions.tina_region_contains(net, (0, 0, 0))
        tincell.regions.tina_region_contains(net, (5, 5, 5))  # a miss builds every region
    finally:
        tr.uninstall()
    assert hit and tincell.regions.polyhedral_region is original
    by_layer = {}
    for rec in tr.spans:
        by_layer.setdefault(rec[tracer.LAYER], []).append(rec)
    queries = by_layer["regions.union"]
    assert [q[tracer.INFO] for q in queries] == [True, False]
    assert all(rec[tracer.OP] == 7 for rec in tr.spans)
    query_ids = {q[tracer.SID] for q in queries}
    assert all(b[tracer.PARENT] in query_ids for b in by_layer["regions.build"])
    metrics, _, self_s = tracer.layer_metrics(tr.spans, 0.0)
    assert metrics["regions.union.queries"] == 2
    assert metrics["regions.union.hit_frac"] == 0.5
    # the miss builds all 10 regions (8 subnetworks, two of them with two
    # orders in cell 1); the hit stops at the first
    assert metrics["regions.build.calls"] == 11
    assert metrics["regions.union.builds_per_query"] == 11 / 2
    total = sum(q[tracer.T1] - q[tracer.T0] for q in queries)
    assert abs(sum(self_s.values()) - total) < 1e-9
