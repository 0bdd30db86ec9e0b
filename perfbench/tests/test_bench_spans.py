"""Self-time arithmetic, counters and the timing statistics."""

import pytest

from perfbench.spans import Tracer, tail_percentile, timing_summary


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_nested_self_times():
    # outer [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 6]
    tr = Tracer(FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("c"):
                pass
        with tr.span("b"):
            pass
    (ph,) = tr.phases()
    assert ph.name == "outer" and ph.wall_s == 10
    assert dict(ph.self_s) == {"outer": 6, "a": 2, "c": 1, "b": 1}
    assert sum(ph.self_s.values()) == ph.wall_s


def test_phases_split_by_outermost_span():
    tr = Tracer(FakeClock(range(100)))
    with tr.span("setup"):
        with tr.span("x"):
            tr.count("n", 2)
    with tr.span("pass"):
        with tr.span("x"):
            pass
        with tr.span("x"):
            tr.count("n")
    setup, pss = tr.phases()
    assert (setup.name, pss.name) == ("setup", "pass")
    assert setup.calls["x"] == 1 and pss.calls["x"] == 2
    assert setup.counts["n"] == 2 and pss.counts["n"] == 1


def test_span_closes_on_exception():
    tr = Tracer(FakeClock(range(10)))
    with pytest.raises(ValueError):
        with tr.span("outer"):
            with tr.span("inner"):
                raise ValueError
    (ph,) = tr.phases()
    assert ph.calls == {"outer": 1, "inner": 1}
    with tr.span("next"):
        pass
    assert tr.spans[-1].parent is None


def test_count_outside_span_raises():
    with pytest.raises(RuntimeError):
        Tracer().count("n")


@pytest.mark.parametrize("n, pct", [(10, None), (99, None), (100, 90.0),
                                    (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_timing_summary():
    s = timing_summary([float(i) for i in range(1, 101)])
    assert s["median"] == 50.5 and s["n"] == 100 and s["tail_pct"] == 90.0
    # ten samples (91..100) lie above the 90th percentile
    assert 90.0 < s["tail"] < 91.0
    short = timing_summary([1.0, 3.0, 2.0])
    assert short["median"] == 2.0 and short["tail"] is None
