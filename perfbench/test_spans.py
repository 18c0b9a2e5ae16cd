"""Tests for the span tracer: self time on a synthetic span tree, wrapping.

    python3 -m pytest perfbench/test_spans.py
"""

import math

import numpy as np
import pytest

from spans import Tracer, self_times


def test_self_time_is_span_minus_direct_children():
    # 0 [0, 10]
    # |- 1 [1, 4]
    # |  `- 2 [2, 3]
    # `- 3 [5, 9]
    #    |- 4 [5, 6]
    #    `- 5 [7, 8.5]
    # 6 [11, 12]   (a second root)
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 7.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.5, 12.0])
    parent = np.array([-1, 0, 1, 0, 3, 3, -1])
    expected = [10 - 3 - 4, 3 - 1, 1, 4 - 1 - 1.5, 1, 1.5, 1]
    assert np.allclose(self_times(start, end, parent), expected)


def test_self_times_add_up_to_root_durations():
    rng = np.random.default_rng(0)
    tracer = Tracer()

    def leaf():
        return float(np.sum(rng.standard_normal(100)))

    def middle(n):
        return sum(wrapped_leaf() for _ in range(n))

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    root = tracer.wrap("root", lambda: [wrapped_middle(k) for k in range(1, 5)])
    root()
    root()
    summary = tracer.summary()
    assert summary["root"]["calls"] == 2
    assert summary["middle"]["calls"] == 8
    assert summary["leaf"]["calls"] == 2 * (1 + 2 + 3 + 4)
    own = sum(row["self_s"] for row in summary.values())
    assert math.isclose(own, summary["root"]["total_s"], rel_tol=1e-9)
    assert summary["leaf"]["self_s"] == pytest.approx(summary["leaf"]["total_s"])
    assert tracer.calls_under("leaf", "middle") == summary["leaf"]["calls"]
    assert tracer.calls_under("middle", "leaf") == 0


def test_exception_ends_span_and_is_counted():
    tracer = Tracer()

    def fails():
        raise ValueError("probe")

    wrapped = tracer.wrap("fails", fails)
    outer = tracer.wrap("outer", lambda: [pytest.raises(ValueError, wrapped) for _ in range(3)])
    outer()
    summary = tracer.summary()
    assert summary["fails"]["calls"] == 3
    assert tracer.counters["fails.raised"] == 3
    assert tracer.calls_under("fails", "outer") == 3
    assert not tracer._open


def test_patched_restores_bindings():
    class Namespace:
        value = staticmethod(lambda: 1)

    tracer = Tracer()
    original = Namespace.value
    wrapper = tracer.wrap("value", original)
    with tracer.patched([(Namespace, "value", wrapper)]):
        assert Namespace.value() == 1
    assert Namespace.value is original
    assert tracer.summary()["value"]["calls"] == 1
