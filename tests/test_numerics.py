"""Tests for softmax / LSE / KL primitives.

Expected values here were derived by hand (exp/log arithmetic on paper)
before the implementation existed, so they act as an independent oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from headsparse.errors import ArgumentError, NumericError
from headsparse.numerics import (
    LsePair,
    descending_order,
    lse_reduce,
    softmax,
    softmax_kl,
)

LN2, LN3, LN4, LN5 = math.log(2), math.log(3), math.log(4), math.log(5)


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_hand_value(self):
        # exp gives 5, 3, 2; denominator 10.
        out = softmax(np.array([LN5, LN3, LN2]))
        np.testing.assert_allclose(out, [0.5, 0.3, 0.2], atol=1e-12)

    def test_no_overflow_on_large_scores(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            softmax(np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax(np.array([0.0, np.nan]))

    def test_inf_rejected(self):
        with pytest.raises(NumericError):
            softmax(np.array([0.0, np.inf]))

    def test_masked_entries_get_zero_weight(self):
        # a -inf entry is masked: weight exactly 0, the rest as if it were absent
        scores = np.array([[LN5, -np.inf, LN3, LN2], [0.0, 0.0, -np.inf, -np.inf]])
        out = softmax(scores)
        assert out[0, 1] == 0.0 and out[1, 2] == 0.0 and out[1, 3] == 0.0
        np.testing.assert_allclose(out[0], [0.5, 0.0, 0.3, 0.2], atol=1e-12)
        np.testing.assert_array_equal(out[1], [0.5, 0.5, 0.0, 0.0])
        assert np.array_equal(out[0, [0, 2, 3]], softmax(scores[0, [0, 2, 3]]))

    def test_masked_row_still_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericError):
                softmax(np.array([[0.0, -np.inf], [bad, -np.inf]]))

    def test_fully_masked_row_rejected(self):
        with pytest.raises(NumericError):
            softmax(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))

    def test_in_place_rows_have_the_bits_of_the_copy(self):
        """out=scores normalises the rows where they are, as calibration
        and the stage-1 dataset do, with the bits of the returned copy."""
        rng = np.random.default_rng(5)
        scores = rng.normal(scale=30.0, size=(64, 3000))
        scores[np.arange(3000)[None, :] > rng.integers(0, 3000, size=(64, 1))] = -np.inf
        want = softmax(scores)
        got = softmax(scores, out=scores)
        assert got is scores
        assert got.tobytes() == want.tobytes()


class TestLse:
    def test_singleton(self):
        assert lse_reduce(np.array([0.0])) == LsePair(0.0, 1.0)

    def test_two_zeros(self):
        assert lse_reduce(np.array([0.0, 0.0])) == LsePair(0.0, 2.0)

    def test_hand_value(self):
        # exp values 2, 2, 4 with max 4: l = (2 + 2 + 4) / 4 = 2.
        pair = lse_reduce(np.array([LN2, LN2, LN4]))
        assert pair.m == pytest.approx(LN4)
        assert pair.l == pytest.approx(2.0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ArgumentError):
            lse_reduce(np.array([]))


def kl(p, q):
    """KL(p || q) through softmax_kl, with q given by its scores log q."""
    with np.errstate(divide="ignore"):
        return float(softmax_kl(np.asarray(p, float), np.log(np.asarray(q, float)))[0])


class TestKl:
    def test_identical_is_zero(self):
        assert kl([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_hand_value(self):
        expect = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        got = kl([0.5, 0.5], [0.9, 0.1])
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.5108, abs=5e-5)

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            kl([1.0], [0.5, 0.5])

    def test_underflowed_softmax_is_exact_and_masked_mass_raises(self):
        # softmax([0, -1000]) is [1, 0] in float64, but the log-softmax
        # keeps -1000, so the KL is the exact 0.5 ln 0.5 + 0.5 (ln 0.5 + 1000)
        got, q = softmax_kl(np.array([0.5, 0.5]), np.array([0.0, -1000.0]))
        assert q[1] == 0.0
        assert math.isfinite(got)
        assert got == pytest.approx(1000 * 0.5 + math.log(0.5), rel=1e-15)
        # a -inf score is masked, and mass on it has no finite KL
        with pytest.raises(NumericError):
            softmax_kl(np.array([0.5, 0.5]), np.array([0.0, -np.inf]))
        assert softmax_kl(np.array([1.0, 0.0]), np.array([0.0, -np.inf]))[0] == 0.0


finite_scores = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=64
)


class TestProperties:
    @given(finite_scores, st.floats(min_value=-100, max_value=100))
    def test_softmax_shift_invariance(self, scores, c):
        s = np.array(scores)
        np.testing.assert_allclose(softmax(s), softmax(s + c), atol=1e-6)

    @given(finite_scores)
    def test_softmax_sums_to_one(self, scores):
        assert softmax(np.array(scores)).sum() == pytest.approx(1.0, abs=1e-6)

    @given(finite_scores)
    def test_lse_represents_total_mass(self, scores):
        s = np.array(scores)
        pair = lse_reduce(s)
        assert np.exp(pair.m) * pair.l == pytest.approx(np.exp(s).sum(), rel=1e-6)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=32))
    def test_kl_nonnegative_and_zero_on_self(self, raw):
        p = np.array(raw)
        p /= p.sum()
        q = np.roll(p, 1)
        assert kl(p, q) >= 0.0
        # through log p, p's own KL is zero up to float dust (worst of
        # 20,000 random draws: 4.8e-16)
        assert kl(p, p) == pytest.approx(0.0, abs=1e-14)


def stable_descending(x):
    """Reference: the stable sort of the negated float64 keys."""
    return np.argsort(-np.asarray(x, np.float64), kind="stable")


_rng = np.random.default_rng(11)
ORDER_CASES = {
    "integer levels": _rng.integers(0, 5, size=5000),
    "0.1-rounded levels": np.round(_rng.normal(size=5000), 1),
    "signed zeros": _rng.choice([0.0, -0.0, 1.0], size=3000),
    "infinities": _rng.choice([np.inf, -np.inf, 0.5, -2.0], size=3000),
    "lone infinities": np.array([np.inf, 1.0, -np.inf, 0.0]),
    "NaN": np.where(_rng.random(4097) < 0.01, np.nan, _rng.normal(size=4097)),
    "lone NaN": np.array([0.5, np.nan, 1.5]),
    "int64 past 2**53": 2**60 + _rng.permutation(2000),  # distinct ints, equal floats
    "float32": _rng.normal(size=4097).astype(np.float32),
    "float32 ties": np.round(_rng.normal(size=4097), 2).astype(np.float32),
    "two equal": np.array([3.0, 3.0]),
    **{f"distinct n={n}": _rng.normal(size=n) for n in (0, 1, 2, 4097, 40_000)},
}


class TestDescendingOrder:
    """The fast path must return exactly the stable order, ties and NaN
    included."""

    @pytest.mark.parametrize("name", list(ORDER_CASES))
    def test_equals_stable_argsort(self, name):
        x = ORDER_CASES[name]
        assert np.array_equal(descending_order(x), stable_descending(x))

    def test_int64_collisions_tie_after_the_cast(self):
        x = np.array([2**53, 2**53 + 1, 7], np.int64)  # 2**53 + 1 rounds to 2**53
        np.testing.assert_array_equal(descending_order(x), [0, 1, 2])
