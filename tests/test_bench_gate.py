"""The perf gates' shared harness: paired A/B timing and the runner."""

import json

import pytest

from benchmarks import gate


class FakeClock:
    """A clock the timed callables advance by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def sides(clock, base_s, cand_s, calls):
    """Stub base/candidate callables that log their order and take the
    given times (after one untimed warm call each, which takes 0 s)."""
    base_times, cand_times = iter([0.0, *base_s]), iter([0.0, *cand_s])

    def base():
        calls.append("base")
        clock.t += next(base_times)

    def cand():
        calls.append("cand")
        clock.t += next(cand_times)

    return base, cand


class TestPaired:
    def test_warm_call_then_alternating_order(self):
        clock, calls = FakeClock(), []
        base, cand = sides(clock, [1.0] * 4, [1.0] * 4, calls)
        gate.paired(base, cand, 4, clock=clock)
        assert calls == ["base", "cand",              # untimed warm-up
                         "base", "cand", "cand", "base",
                         "base", "cand", "cand", "base"]

    def test_times_follow_their_side(self):
        clock, calls = FakeClock(), []
        base, cand = sides(clock, [1.0, 2.0, 4.0, 4.0],
                           [1.5, 3.0, 5.0, 3.0], calls)
        pairs = gate.paired(base, cand, 4, clock=clock)
        assert pairs.base_s == (1.0, 2.0, 4.0, 4.0)
        assert pairs.cand_s == (1.5, 3.0, 5.0, 3.0)
        assert pairs.ratios()["ratios"] == [1.5, 1.0]

    @pytest.mark.parametrize("pairs", [0, 2, 5])
    def test_needs_two_whole_blocks(self, pairs):
        with pytest.raises(ValueError, match="even and at least 4"):
            gate.paired(lambda: None, lambda: None, pairs)


class TestRatios:
    def test_median_and_quartiles(self):
        # Blocks of two pairs: candidate/base ratios of the summed times.
        pairs = gate.Pairs(base_s=(1.0,) * 10,
                           cand_s=(1.3, 1.3, 0.9, 0.9, 1.0, 1.2,
                                   1.0, 1.0, 1.2, 1.2))
        ratio = pairs.ratios()
        assert ratio["ratios"] == pytest.approx([1.3, 0.9, 1.1, 1.0, 1.2])
        assert ratio["median"] == pytest.approx(1.1)
        assert ratio["q1"] == pytest.approx(1.0)
        assert ratio["q3"] == pytest.approx(1.2)

    def test_order_effect_cancels_in_a_block(self):
        # The side that runs second pays 0.5 s more: every block ratio
        # is the true one, whichever side ran first.
        pairs = gate.Pairs(base_s=(1.0, 1.5, 1.0, 1.5),
                           cand_s=(2.5, 2.0, 2.5, 2.0))
        ratio = pairs.ratios()
        assert ratio["ratios"] == [1.8, 1.8]
        assert ratio["median"] == 1.8

    def test_swapped_sides_give_the_speedup(self):
        # A throughput gate puts the faster engine on the base side, so
        # the ratio baseline/engine reads as its speedup.
        engine_s, baseline_s = (2.0, 2.0, 1.0, 1.0), (4.0, 4.0, 3.0, 3.0)
        assert gate.Pairs(engine_s, baseline_s).ratios()["ratios"] == \
            [2.0, 3.0]
        assert gate.Pairs(baseline_s, engine_s).ratios()["ratios"] == \
            [0.5, pytest.approx(1 / 3)]


class TestRun:
    @pytest.fixture(autouse=True)
    def results(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "RESULTS", tmp_path / "results")
        return tmp_path / "results"

    def test_writes_reports_and_returns(self, results, capsys):
        result = gate.run("demo", lambda: {"overhead": 0.01},
                          lambda r: None, lambda r: "demo report")
        assert result == {"overhead": 0.01}
        assert json.loads((results / "BENCH_demo.json").read_text()) == \
            result
        assert "demo report" in capsys.readouterr().out

    def test_failing_check_raises_after_writing(self, results):
        def check(result):
            assert result["overhead"] < 0.05, "too slow"

        with pytest.raises(AssertionError, match="too slow"):
            gate.run("demo", lambda: {"overhead": 0.2}, check,
                     lambda r: "report")
        assert json.loads((results / "BENCH_demo.json").read_text()) == \
            {"overhead": 0.2}
