"""Optimizer toolkit tests."""

import numpy as np
import pytest

from headsparse.distill import Stage2Config
from headsparse.errors import ArgumentError
from headsparse.indexer import Stage1Config
from headsparse.optim import (
    SCHEDULES,
    AdamW,
    clip_global_norm,
    make_schedule,
    smooth_trace,
    warmup_constant,
    warmup_cosine,
)


class TestSchedules:
    def test_warmup_ramp(self):
        lr = warmup_cosine(1.0, 10, 100)
        assert lr(0) == pytest.approx(0.1)
        assert lr(4) == pytest.approx(0.5)
        assert lr(9) == pytest.approx(1.0)

    def test_cosine_endpoints(self):
        lr = warmup_cosine(2.0, 0, 100)
        assert lr(0) == pytest.approx(2.0)
        assert lr(50) == pytest.approx(1.0)
        assert lr(100) == pytest.approx(0.0, abs=1e-12)
        assert lr(500) == pytest.approx(0.0, abs=1e-12)

    def test_constant_after_warmup(self):
        lr = warmup_constant(0.5, 4)
        assert lr(0) == pytest.approx(0.125)
        assert lr(4) == 0.5
        assert lr(4000) == 0.5

    def test_make_schedule_dispatch(self):
        assert make_schedule("cosine", 1.0, 0, 10)(10) == pytest.approx(0.0, abs=1e-12)
        assert make_schedule("constant", 1.0, 0, 10)(10) == 1.0
        with pytest.raises(ArgumentError):
            make_schedule("linear", 1.0, 0, 10)

    @pytest.mark.parametrize("config", [Stage1Config, Stage2Config])
    def test_configs_take_the_names_make_schedule_takes(self, config):
        for name in SCHEDULES:
            assert config(schedule=name).schedule == name
            make_schedule(name, 1.0, 0, 10)
        with pytest.raises(ArgumentError, match="unknown schedule 'linear'"):
            config(schedule="linear")

    @pytest.mark.parametrize("name", ["cosine", "constant"])
    @pytest.mark.parametrize("warmup", [5, 100, 200])
    def test_warmup_longer_than_the_run_reaches_max_lr(self, name, warmup):
        # the stage defaults (100 and 200 warmup steps) against a 5-step run
        lr = make_schedule(name, 0.3, warmup, 5)
        rates = [lr(step) for step in range(5)]
        assert rates == sorted(rates)
        assert rates[-1] == pytest.approx(0.3)


class TestClip:
    def test_below_threshold_untouched(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        out, norm = clip_global_norm(g, 10.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_array_equal(out["a"], g["a"])

    def test_above_threshold_scaled_jointly(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        out, norm = clip_global_norm(g, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(out["a"][0] ** 2 + out["b"][0] ** 2)
        assert total == pytest.approx(1.0)
        # direction preserved
        assert out["b"][0] / out["a"][0] == pytest.approx(4 / 3)


class TestAdamW:
    def test_minimizes_quadratic(self):
        x = {"x": np.array([5.0, -3.0])}
        opt = AdamW(x, lambda t: 0.1)
        for _ in range(300):
            opt.step({"x": 2 * x["x"]})
        assert np.abs(x["x"]).max() < 1e-3

    def test_zero_lr_freezes_params(self):
        x = {"x": np.array([1.0, 2.0])}
        opt = AdamW(x, lambda t: 0.0, weight_decay=0.5)
        before = x["x"].copy()
        for _ in range(5):
            opt.step({"x": np.array([10.0, -10.0])})
        np.testing.assert_array_equal(x["x"], before)

    def test_decoupled_decay_shrinks_params(self):
        x = {"x": np.array([1.0])}
        opt = AdamW(x, lambda t: 0.01, weight_decay=1.0)
        opt.step({"x": np.array([0.0])})
        assert x["x"][0] == pytest.approx(0.99)

    def test_key_mismatch(self):
        opt = AdamW({"x": np.zeros(2)}, lambda t: 0.1)
        with pytest.raises(ArgumentError):
            opt.step({"y": np.zeros(2)})


class TestSmoothTrace:
    def test_window_average(self):
        t = np.array([4.0, 2.0, 0.0])
        out = smooth_trace(t, window=2)
        np.testing.assert_allclose(out, [4.0, 3.0, 1.0])

    def test_long_window_is_running_mean(self):
        t = np.arange(5.0)
        out = smooth_trace(t, window=100)
        np.testing.assert_allclose(out, np.cumsum(t) / np.arange(1, 6))
