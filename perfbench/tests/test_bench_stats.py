"""How query_p50_ms, query_p90_ms and queries_per_s are computed."""

import pytest

import run
from run import hd_quantile


def test_hd_quantile_known_values():
    # scipy.stats.mstats.hdquantiles gives 5.5 and 9.43511518 on these
    # inputs; the numeric integration here agrees to 0.1 %.
    assert hd_quantile(range(1, 11), 0.5) == pytest.approx(5.5, rel=1e-3)
    assert hd_quantile(range(1, 11), 0.9) == pytest.approx(9.43511518,
                                                           rel=1e-3)
    assert hd_quantile([7.0], 0.9) == 7.0
    assert hd_quantile([3.0] * 46, 0.9) == pytest.approx(3.0)


def test_hd_quantile_moves_little_when_neighbours_swap():
    base = [float(v) for v in range(100, 146)]
    swapped = base[:22] + [base[23] + 0.5, base[22] - 0.5] + base[24:]
    assert abs(hd_quantile(swapped, 0.5) - hd_quantile(base, 0.5)) < 0.01


def test_end_to_end_uses_each_querys_best_latency():
    passes = [run.Pass({"a": 10.0, "b": 300.0}, 0.31, 2, 2, 0),
              run.Pass({"a": 14.0, "b": 200.0}, 0.21, 2, 2, 0)]
    assert run.best_latencies(passes) == {"a": 10.0, "b": 200.0}
    metrics = run.end_to_end(passes, [0.2, 0.1, 0.3])
    assert metrics["queries_per_s"] == (pytest.approx(2 / 0.21), "1/s")
    assert metrics["query_p50_ms"][0] == pytest.approx(105.0)
    assert metrics["setup_s"] == (0.2, "s")
