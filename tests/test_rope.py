"""Rotary embedding tests: hand-checked rotations, offset invariance,
and the frequency decomposition."""

import math

import numpy as np
import pytest
from helpers import pair_coefficients, rope_score, score_decomposition

import headsparse.rope as rope_module
from headsparse.errors import ArgumentError
from headsparse.rope import (
    RopeParams,
    _turn,
    rope_apply,
    rope_rotate,
    rope_rotate_many,
    rope_table,
    row_blocks,
)


@pytest.fixture
def params64():
    return RopeParams(head_dim=64)


class TestParams:
    def test_theta_values(self):
        p = RopeParams(head_dim=4, base=100.0)
        np.testing.assert_allclose(p.thetas, [1.0, 100.0 ** (-0.5)])

    def test_thetas_strictly_decreasing(self, params64):
        assert np.all(np.diff(params64.thetas) < 0)

    def test_odd_dim_rejected(self):
        with pytest.raises(ArgumentError):
            RopeParams(head_dim=5)

    def test_bad_base_rejected(self):
        with pytest.raises(ArgumentError):
            RopeParams(head_dim=4, base=0.0)


class TestRotate:
    def test_position_zero_is_identity(self, params64):
        rng = np.random.default_rng(0)
        v = rng.normal(size=64)
        np.testing.assert_allclose(rope_rotate(v, 0, params64), v)

    def test_hand_value_d2(self):
        # d=2 has a single pair with theta = 1 regardless of base.
        p = RopeParams(head_dim=2)
        out = rope_rotate(np.array([1.0, 0.0]), 1, p)
        np.testing.assert_allclose(out, [math.cos(1), math.sin(1)], atol=1e-12)
        np.testing.assert_allclose(out, [0.5403, 0.8415], atol=5e-5)

    def test_norm_preserved(self, params64):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=64)
            m = int(rng.integers(0, 100000))
            assert np.linalg.norm(rope_rotate(v, m, params64)) == pytest.approx(
                np.linalg.norm(v), abs=1e-6
            )

    def test_length_mismatch(self, params64):
        with pytest.raises(ArgumentError):
            rope_rotate(np.zeros(63), 0, params64)

    def test_negative_position_rejected(self, params64):
        with pytest.raises(ArgumentError):
            rope_rotate(np.zeros(64), -1, params64)

    def test_batch_matches_single(self, params64):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(10, 64))
        pos = rng.integers(0, 5000, size=10)
        batch = rope_rotate_many(mat, pos, params64)
        for i in range(10):
            np.testing.assert_allclose(batch[i], rope_rotate(mat[i], int(pos[i]), params64))

    def test_stack_at_one_position_matches_batch(self, params64):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(6, 64))
        for pos in (0, 3, 70_000):
            stack = rope_rotate(mat, pos, params64)
            assert np.array_equal(stack, rope_rotate_many(mat, np.full(6, pos), params64))
        with pytest.raises(ArgumentError):
            rope_rotate(np.zeros((2, 2, 64)), 0, params64)
        with pytest.raises(ArgumentError):
            rope_rotate(np.zeros((2, 63)), 0, params64)

    def test_unrotate_inverts(self, params64):
        from headsparse.rope import rope_unrotate_many

        rng = np.random.default_rng(3)
        mat = rng.normal(size=(12, 64))
        pos = rng.integers(0, 3000, size=12)
        round_trip = rope_unrotate_many(rope_rotate_many(mat, pos, params64), pos, params64)
        np.testing.assert_allclose(round_trip, mat, atol=1e-9)

    def test_unrotate_is_transpose(self, params64):
        # <R a, b> == <a, R^T b> for every pair rotation
        from headsparse.rope import rope_unrotate_many

        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 5, 64))
        pos = np.array([0, 7, 31, 900, 12345])
        lhs = np.sum(rope_rotate_many(a, pos, params64) * b, axis=1)
        rhs = np.sum(a * rope_unrotate_many(b, pos, params64), axis=1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestTable:
    def test_rows_are_the_angles_of_each_position(self, params64):
        pos = np.array([0, 1, 7, 4096, 131071])
        table = rope_table(pos, params64)
        for row, t in enumerate(pos):
            ang = params64.thetas * int(t)
            assert np.array_equal(table.cos[row], np.cos(ang))
            assert np.array_equal(table.sin[row], np.sin(ang))

    def test_apply_matches_rotate_many(self, params64):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(40, 64))
        pos = np.arange(40) * 37
        assert np.array_equal(rope_apply(mat, pos, params64, rope_table(pos, params64)),
                              rope_rotate_many(mat, pos, params64))

    def test_apply_keeps_float32_as_rounded_float64_turn(self, params64):
        rng = np.random.default_rng(6)
        mat = (rng.normal(size=(40, 64)) * 12).astype(np.float32)
        pos = np.arange(40)
        table = rope_table(pos, params64)
        got = rope_apply(mat, pos, params64, table)
        assert got.dtype == np.float32
        want = rope_apply(mat.astype(np.float64), pos, params64, table).astype(np.float32)
        assert np.array_equal(got, want)
        wide = rope_apply(mat, pos, params64, out=np.full((40, 64), np.nan))
        assert np.array_equal(wide, want.astype(np.float64))

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("n", [1, 63, 130])
    def test_blocks_match_one_turn(self, params64, monkeypatch, block, n):
        """Block by block, with or without the caller's table, rope_apply
        writes what one turn of the whole matrix by one table gives."""
        rng = np.random.default_rng(block * n)
        mat = (rng.normal(size=(n, 64)) * 12).astype(np.float32)
        pos = np.sort(rng.choice(200_000, size=n, replace=False))
        table = rope_table(pos, params64)
        want = _turn(mat, table.cos, table.sin).astype(np.float64)
        monkeypatch.setattr(rope_module, "ROPE_BLOCK", block)
        for shared in (table, None):
            out = np.full((n, 64), np.nan)
            assert rope_apply(mat, pos, params64, shared, out) is out
            assert np.array_equal(out, want)

    def test_apply_rejects_mismatched_table(self, params64):
        table = rope_table(np.arange(5), params64)
        with pytest.raises(ArgumentError):
            rope_apply(np.zeros((4, 64)), np.arange(4), params64, table)
        with pytest.raises(ArgumentError):
            rope_apply(np.zeros((5, 32)), np.arange(5), params64, table)
        with pytest.raises(ArgumentError):
            rope_apply(np.zeros(64), np.arange(1), params64)
        with pytest.raises(ArgumentError):
            rope_apply(np.zeros((5, 64)), np.arange(4), params64)
        with pytest.raises(ArgumentError):
            rope_apply(np.zeros((5, 64)), np.arange(5), params64, out=np.zeros((4, 64)))

    def test_bad_positions_rejected(self, params64):
        for bad in ([-1, 2], [0.5], [[1, 2]]):
            with pytest.raises(ArgumentError):
                rope_table(np.array(bad), params64)


class TestScore:
    def test_zero_offset_is_plain_dot(self, params64):
        rng = np.random.default_rng(3)
        q, k = rng.normal(size=64), rng.normal(size=64)
        assert rope_score(q, k, 7, 7, params64) == pytest.approx(float(q @ k), abs=1e-9)

    def test_hand_value_d2(self):
        p = RopeParams(head_dim=2)
        got = rope_score(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1, 0, p)
        assert got == pytest.approx(math.cos(1), abs=1e-12)

    def test_shift_invariance_1000_instances(self, params64):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            q, k = rng.normal(size=64), rng.normal(size=64)
            n = int(rng.integers(0, 10000))
            m = n + int(rng.integers(0, 10000))
            d = int(rng.integers(0, 10000))
            s0 = rope_score(q, k, m, n, params64)
            s1 = rope_score(q, k, m + d, n + d, params64)
            assert abs(s0 - s1) <= 1e-5


class TestDecomposition:
    def test_delta_zero_gives_pair_dots(self, params64):
        rng = np.random.default_rng(5)
        q, k = rng.normal(size=64), rng.normal(size=64)
        contrib = score_decomposition(q, k, 0, params64)
        a, _ = pair_coefficients(q, k, params64)
        np.testing.assert_allclose(contrib, a)
        assert contrib.sum() == pytest.approx(float(q @ k), abs=1e-9)

    def test_single_pair_support(self, params64):
        v = np.zeros(64)
        v[0] = 1.0
        contrib = score_decomposition(v, v, 13, params64)
        assert np.count_nonzero(contrib[1:]) == 0

    def test_sum_matches_rope_score(self, params64):
        rng = np.random.default_rng(6)
        for _ in range(100):
            q, k = rng.normal(size=64), rng.normal(size=64)
            delta = int(rng.integers(0, 20000))
            total = score_decomposition(q, k, delta, params64).sum()
            assert total == pytest.approx(rope_score(q, k, delta, 0, params64), abs=1e-5)

    def test_slowest_pair_lipschitz_bound(self, params64):
        # The smallest-theta pair moves slowly: its step-to-step change is
        # bounded by theta * (|a| + |b|).
        rng = np.random.default_rng(7)
        q, k = rng.normal(size=64), rng.normal(size=64)
        a, b = pair_coefficients(q, k, params64)
        last = params64.n_pairs - 1
        bound = params64.thetas[last] * (abs(a[last]) + abs(b[last]))
        for delta in range(0, 500):
            c0 = score_decomposition(q, k, delta, params64)[last]
            c1 = score_decomposition(q, k, delta + 1, params64)[last]
            assert abs(c1 - c0) <= bound + 1e-12


@pytest.mark.parametrize("size", [None, 1, 16])
def test_row_blocks_cover_the_rows_with_no_short_last_block(monkeypatch, size):
    """Blocks start at multiples of the size (ROPE_BLOCK, read at the call,
    by default), tile 0..n-1 in order, and a remainder joins the last
    block, so only a run shorter than the size makes a short block."""
    monkeypatch.setattr(rope_module, "ROPE_BLOCK", 7)
    step = 7 if size is None else size
    for n in (0, 1, step - 1, step, step + 1, 2 * step - 1, 2 * step, 5 * step + 3):
        blocks = row_blocks(n, size)
        assert [b.start for b in blocks] == list(range(0, len(blocks) * step, step))
        assert (blocks[-1].stop if blocks else 0) == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(step <= b.stop - b.start < 2 * step for b in blocks if n >= step)
        assert len(blocks) == (0 if n == 0 else max(n // step, 1))
