"""Arithmetic of the benchmark's tracer: run with ``python -m pytest bench``."""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from spans import (PieceClock, Tracer, fastest_of_label, percentile,  # noqa: E402
                   rate, tape_census)


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    # outer spans 0..10 and calls inner over 1..3 and 4..4.5
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 4.5, 10.0]))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body)()
    table = tracer.table()
    assert table["m.outer"]["calls"] == 1
    assert table["m.outer"]["total_s"] == 10.0
    assert table["m.outer"]["self_s"] == 7.5
    assert table["m.inner"]["calls"] == 2
    assert table["m.inner"]["self_s"] == 2.5
    assert tracer.self_s_within("m.inner", "m.outer") == 2.5
    assert tracer.self_s_within("m.outer", "m.inner") == 0.0
    assert tracer.count_within("m.inner", "m.outer") == 2


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=fake_clock([0.0, 2.0]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert tracer.table()["m.boom"]["total_s"] == 2.0


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 2.5
    assert percentile(xs, 95) == pytest.approx(3.85)
    assert percentile(xs, 100) == 4.0
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tokens_per_second():
    assert rate(1000, 0.5) == 2000.0
    with pytest.raises(ValueError):
        rate(1000, 0.0)


def test_piece_clock_sums_a_quantile_of_each_piece():
    # three passes cut alike: a(1, then 4) b(2) / a(3, then 1) b(5) /
    # a(2, then 2) b(9)
    clock = PieceClock(fake_clock([0, 1, 5, 7, 10, 13, 14, 19, 20, 22, 24, 33,
                                   40, 41]))
    for _ in range(3):
        clock.begin("a")
        clock.mark()
        clock.mark("b")
        clock.end()
    assert clock.passes[0] == [("a", 1), ("a", 4), ("b", 2)]
    assert clock.passes[2] == [("a", 2), ("a", 2), ("b", 9)]
    assert clock.aligned()
    assert clock.quantile(0) == {"a": 1 + 1, "b": 2}
    assert clock.quantile(50) == {"a": 2 + 2, "b": 5}
    # third quartiles: a (1, 3, 2) -> 2.5, a (4, 1, 2) -> 3, b (2, 5, 9) -> 7
    assert clock.quantile(75) == {"a": 2.5 + 3, "b": 7}
    assert clock.mean() == pytest.approx({"a": 13 / 3, "b": 16 / 3})
    clock.begin("a")
    clock.end()
    assert not clock.aligned()


def test_fastest_of_label_counts_repeats_at_their_fastest():
    pieces = [("c", 0.5), ("c.eval", 3.0), ("c", 0.1), ("c.eval", 2.0),
              ("c", 0.1), ("c.eval", 4.0), ("d.eval", 1.0), ("d", 0.25)]
    assert fastest_of_label(pieces, ".eval") == pytest.approx(
        {"c": 0.7, "c.eval": 3 * 2.0, "d.eval": 1.0, "d": 0.25})


def test_piece_clock_reports_the_running_label():
    clock = PieceClock(fake_clock([0, 1, 2]))
    clock.begin("a")
    assert clock.label == "a"
    clock.mark("b")
    assert clock.label == "b"
    clock.end()
    assert clock.passes == [[("a", 1), ("b", 1)]]


def test_install_rebinds_every_lookup_and_restores_them():
    lib = types.ModuleType("pkg.lib")
    exec("def work(x):\n    return x + 1\n", lib.__dict__)
    user = types.ModuleType("pkg.user")
    user.work = lib.work                      # ``from .lib import work``
    user.TABLE = {"w": lib.work}              # a registry of functions
    original = lib.work
    tracer = Tracer()
    with tracer.installed([lib, user]):
        assert lib.work(1) == user.work(1) == user.TABLE["w"](1) == 2
    assert lib.work is user.work is user.TABLE["w"] is original
    assert tracer.table()["lib.work"]["calls"] == 3


def test_tape_census_counts_recorded_nodes_once():
    from refnet import autodiff as ad
    x = ad.parameter([1.0, 2.0])
    y = x * x
    loss = ad.sum_(y + y)          # y is shared: counted once
    nodes, nbytes, ops = tape_census(loss)
    assert ops == {"mul": 1, "add": 1, "sum_": 1}
    assert nodes == 3
    assert nbytes == 2 * 16 + 8
