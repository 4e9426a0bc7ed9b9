"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import random
from fractions import Fraction

import pytest

import inputs as I
import stats
import tracing as tr
from workloads import NumericMix, Outcome, _distinct

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9)])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [40, 57, 100, 250, 1000, 1234])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = list(range(n))
    p = stats.tail_percentile(n)
    cut = stats.percentile(values, p)
    assert sum(v > cut for v in values) >= 10
    # the next rung up the ladder would leave fewer than ten
    higher = [pm / 10 for pm in stats.TAIL_LADDER_PERMILLE if pm / 10 > p]
    if higher:
        cut_up = stats.percentile(values, min(higher))
        assert sum(v > cut_up for v in values) < 10


def test_percentile_nearest_rank():
    assert stats.percentile([5, 1, 3, 2, 4], 50) == 3
    assert stats.percentile(list(range(1, 101)), 90) == 90
    assert stats.percentile([7], 99.9) == 7


# -- self time on nested spans -----------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, None, None, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, -1),   # 0
        _span("b", 1.0, 4.0, 0),     # 1
        _span("c", 2.0, 3.0, 1),     # 2
        _span("d", 5.0, 9.0, 0),     # 3
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_time_counts_outermost_calls_once():
    # expr.eval_expr -> contiguous.watson_element -> expr.eval_expr
    spans = [
        _span("expr.eval_expr", 0.0, 10.0, -1),
        _span("contiguous.watson_element", 1.0, 9.0, 0),
        _span("expr.eval_expr", 2.0, 5.0, 1),
    ]
    m = tr.layer_metrics(spans)
    assert m["expr.eval_expr.calls"] == 2
    assert m["expr.eval_expr.time_s"] == pytest.approx(10.0)
    assert m["expr.eval_expr.self_s"] == pytest.approx(2.0 + 3.0)
    assert m["contiguous.watson_element.self_s"] == pytest.approx(5.0)


def test_tracer_nests_spans_and_passes_recursion_through():
    tracer = tr.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("thomae.apply_variant", inner)

    def outer(n):
        if n:
            return traced_outer(n - 1)  # direct recursion: no new span
        return traced_inner(1)

    traced_outer = tracer.wrap("matcher.identify", outer)
    assert traced_outer(3) == 2
    names = [s[tr.NAME] for s in tracer.spans]
    assert names == ["matcher.identify", "thomae.apply_variant"]
    assert tracer.spans[1][tr.PARENT] == 0
    assert not tracer.stack


def test_tracer_records_errors_and_reraises():
    tracer = tr.Tracer()

    def boom():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tracer.wrap("series.sum_series_numeric", boom)()
    m = tr.layer_metrics(tracer.spans)
    assert m["series.sum_series_numeric.errors"] == 1
    assert not tracer.stack


def test_install_rebinds_every_namespace_and_uninstall_restores():
    import hyp321.cli  # noqa: F401  loads every module
    from hyp321 import contiguous, series

    original = series.sum_series_numeric
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert series.sum_series_numeric is not original
        assert contiguous.sum_series_numeric is series.sum_series_numeric
        assert hyp321.cli.sum_series_numeric is series.sum_series_numeric
        series.sum_series_numeric([1, 1], [3])
    finally:
        tracer.uninstall()
    assert series.sum_series_numeric is original
    assert contiguous.sum_series_numeric is original
    assert [s[tr.NAME] for s in tracer.spans] == ["series.sum_series_numeric"]


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(tr.layer_metrics([])) | {"trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == produced


# -- generators and references -----------------------------------------------

def test_identify_queries_are_deterministic():
    a = I.identify_queries(random.Random(5), 2)
    b = I.identify_queries(random.Random(5), 2)
    assert a == b
    assert [q.kind for q in a[0]] == ["numeric", "symbolic", "random"]
    assert a != I.identify_queries(random.Random(6), 2)


def _base_ids(pools):
    return [[e.id for e in pool if not e.id.startswith("Z.")]
            for pool, _ in pools]


def test_cull_pools_are_deterministic():
    a = I.cull_pools(random.Random(3), 6, 2)
    b = I.cull_pools(random.Random(3), 6, 2)
    assert [pool for pool, _ in a] == [pool for pool, _ in b]
    seen = [i for ids in _base_ids(a) for i in ids]
    assert len(seen) == len(set(seen))  # the pools split the database
    # another seed plants other images into the same split
    c = I.cull_pools(random.Random(4), 6, 2)
    assert _base_ids(c) == _base_ids(a)
    assert [pool for pool, _ in c] != [pool for pool, _ in a]


def test_distinct_keeps_first_result_and_flags_differing_repeats():
    res = Outcome()
    plain = [(0, {"v": 1.0, "t": 0.1}), (1, {"v": float("nan"), "t": 0.2}),
             (0, {"v": 1.0, "t": 0.3}), (1, {"v": float("nan"), "t": 0.4})]
    first = _distinct(plain, [(0, {"v": 1.0, "t": 0.5})],
                      lambda r: r["v"], res)
    assert [(k, r["t"]) for k, r in first.items()] == [(0, 0.1), (1, 0.2)]
    assert res.errors == []  # repeats may differ in time, not in output
    _distinct(plain, [(0, {"v": 2.0}), (0, {"v": 3.0})], lambda r: r["v"], res)
    assert res.errors == ["operation 0: outputs differ between runs"]


def test_numeric_inputs_are_deterministic():
    assert NumericMix().generate(9, 5) == NumericMix().generate(9, 5)


def test_exact_terminating_sum_of_the_cancelling_input():
    up, lo = [-40, Fraction(41, 2), Fraction(61, 2)], [Fraction(3, 2),
                                                      Fraction(5, 2)]
    value = I.exact_terminating_sum(up, lo)
    assert abs(float(value) / 1.2077e17 - 1) < 1e-4
    assert I.exact_terminating_sum([-2, 1, 1], [1, 1]) == 1 - 2 + 1
    assert I.exact_terminating_sum([Fraction(1, 2), 1, 1], [2, 2]) is None


def test_layer_map_names_only_traced_functions():
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    assert set(layers) == set(tr.LAYERS)
    for layer, info in layers.items():
        assert set(info.get("must_call", {})) <= set(tr.LAYERS[layer])


def test_close_lower_exists_for_every_upper_triple():
    # upper parameters this small once left no e in [0.5, 2.5] with f > 0
    up = [0.1, 0.1, 0.12]
    e, f = I._close_lower(random.Random(1), up, 0.05, 0.3, 0.5, 2.5)
    assert e > 0 and f >= 0.3 - 1e-12
    assert 0.05 <= e + f - sum(up) <= 0.3
