"""Selection tests: exact top-p / top-k, the block table, the histogram
threshold path, and split merging."""

import math

import numpy as np
import pytest
from helpers import block_top_p_exact, split_merge, split_table
from hypothesis import given, settings
from hypothesis import strategies as st

from headsparse.errors import ArgumentError
from headsparse.numerics import lse_reduce, softmax
from headsparse.selection import (
    BIN_WIDTH,
    HIST_RANGE,
    N_BINS,
    BlockTable,
    SelectionResult,
    _bin_indices,
    block_table,
    histogram_threshold,
    histogram_threshold_scores,
    top_k_static,
    top_p_exact,
)

LN5, LN3, LN2 = math.log(5), math.log(3), math.log(2)
THREE_SCORES = np.array([LN5, LN3, LN2])  # softmax 0.5 / 0.3 / 0.2


class TestTopPExact:
    def test_hand_case_p_half(self):
        res = top_p_exact(THREE_SCORES, 0.5)
        assert res.active_set.tolist() == [0]
        assert res.covered_mass == pytest.approx(0.5, abs=1e-12)

    def test_hand_case_p_085(self):
        # prefix masses 0.5, 0.8: 0.8 < 0.85 forces the full set.
        res = top_p_exact(THREE_SCORES, 0.85)
        assert res.active_set.tolist() == [0, 1, 2]

    def test_p_one_takes_all(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=40)
        res = top_p_exact(s, 1.0)
        assert res.active_set.tolist() == list(range(40))
        assert res.covered_mass == pytest.approx(1.0, abs=1e-9)

    def test_ties_toward_lower_index(self):
        res = top_p_exact(np.zeros(4), 0.5)
        assert res.active_set.tolist() == [0, 1]

    def test_minimality(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = rng.normal(size=50) * 3
            p = rng.uniform(0.2, 0.99)
            res = top_p_exact(s, p)
            assert res.covered_mass >= p
            probs = softmax(s)
            least = res.active_set[np.argmin(probs[res.active_set])]
            assert res.covered_mass - probs[least] < p

    def test_bad_p(self):
        for p in (0.0, -0.1, 1.01):
            with pytest.raises(ArgumentError):
                top_p_exact(THREE_SCORES, p)

    def test_shift_does_not_change_selection(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=30)
        a = top_p_exact(s, 0.9).active_set
        b = top_p_exact(s + 123.0, 0.9).active_set
        np.testing.assert_array_equal(a, b)


class TestTopKStatic:
    def test_budget_saturation(self):
        res = top_k_static(THREE_SCORES, 10)
        assert res.active_set.tolist() == [0, 1, 2]
        assert res.covered_mass == pytest.approx(1.0, abs=1e-12)

    def test_hand_case_k2(self):
        res = top_k_static(THREE_SCORES, 2)
        assert res.active_set.tolist() == [0, 1]
        assert res.covered_mass == pytest.approx(0.8, abs=1e-12)

    def test_argmax(self):
        res = top_k_static(np.array([5.0, 4.0, 3.0]), 1)
        assert res.active_set.tolist() == [0]

    def test_k_bound(self):
        with pytest.raises(ArgumentError):
            top_k_static(THREE_SCORES, 0)

    def test_mass_monotone_in_k(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.normal(size=64) * 2
            masses = [top_k_static(s, k).covered_mass for k in range(1, 65)]
            assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def table(*rows):
    """A BlockTable from (start, length, m, l) rows."""
    starts, lengths, m, l = (np.array(col) for col in zip(*rows))
    return BlockTable(m.astype(np.float64), l.astype(np.float64),
                      starts, starts + lengths)


def tables_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestBlockPartition:
    def test_single_block(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=64)
        t = block_table(s, 64)
        assert t.m.size == 1
        assert (t.stops - t.starts).tolist() == [64]
        assert (t.m[0], t.l[0]) == lse_reduce(s)

    def test_130_tokens_block_64(self):
        t = block_table(np.zeros(130), 64)
        assert (t.stops - t.starts).tolist() == [64, 64, 2]
        assert t.starts.tolist() == [0, 64, 128]

    def test_merge_matches_whole(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=300) * 5
        t = block_table(s, 64)
        whole = lse_reduce(s)
        m = float(t.m.max())
        assert m == whole.m
        assert float(np.sum(t.l * np.exp(t.m - m))) == pytest.approx(whole.l, rel=1e-10)

    def test_start_offsets(self):
        t = split_table(np.zeros(10), 4, 100)
        assert t.starts.tolist() == [100, 104, 108]
        assert t.stops.tolist() == [104, 108, 110]

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            block_table(np.array([]), 64)


def hist_mass(t, mask):
    masses = [l * math.exp(m - float(t.m.max())) for m, l in zip(t.m, t.l)]
    total = math.fsum(masses)
    return math.fsum(m for m, keep in zip(masses, mask) if keep) / total


class TestHistogramThreshold:
    def test_single_block(self):
        res = histogram_threshold(block_table(np.zeros(10), 64), 0.9)
        assert res.block_mask.tolist() == [True]
        assert res.covered_mass == pytest.approx(1.0)
        assert res.active_set.tolist() == list(range(10))

    def test_two_block_hand_case(self):
        # Masses 19 and e * e^{-1} = 1: fractions 0.95 / 0.05, with block
        # maxima 1.0 apart = 8 bins.  p = 0.9 keeps only the heavy block.
        blocks = table((0, 64, 0.0, 19.0), (64, 64, -1.0, math.e))
        res = histogram_threshold(blocks, 0.9)
        assert res.block_mask.tolist() == [True, False]
        assert res.covered_mass == pytest.approx(0.95, abs=1e-12)
        assert res.threshold_bin == N_BINS - 1

    def test_shared_bin_selects_all(self):
        # Maxima within one bin width land in the same bin.
        blocks = table(
            (0, 8, 0.0, 3.0),
            (8, 8, -BIN_WIDTH / 3, 2.0),
            (16, 8, -BIN_WIDTH / 2.5, 1.0),
        )
        for p in (0.1, 0.5, 0.99):
            res = histogram_threshold(blocks, p)
            assert res.block_mask.all()

    def test_coverage_guarantee_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            s = rng.normal(size=int(rng.integers(5, 400))) * rng.uniform(0.5, 8)
            blocks = block_table(s, 16)
            for p in (0.5, 0.9, 0.99):
                res = histogram_threshold(blocks, p)
                assert res.covered_mass >= p
                assert hist_mass(blocks, res.block_mask) >= p

    def test_overshoot_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = rng.normal(size=int(rng.integers(30, 500))) * rng.uniform(0.5, 6)
            blocks = block_table(s, 16)
            p = float(rng.uniform(0.3, 0.99))
            res = histogram_threshold(blocks, p)
            exact_count = block_top_p_exact(blocks, p)
            m = blocks.m
            m_star = m.max()
            idx = np.clip(((m - (m_star - HIST_RANGE)) / BIN_WIDTH).astype(int), 0, N_BINS - 1)
            in_threshold_bin = int((idx == res.threshold_bin).sum())
            assert int(res.block_mask.sum()) <= exact_count + in_threshold_bin

    def test_far_below_blocks_clamp_to_bin_zero(self):
        # the global max sits on the top edge, far-below maxima clamp to bin 0
        idx = _bin_indices(np.array([0.0, -500.0, -HIST_RANGE]), 0.0)
        assert idx.tolist() == [N_BINS - 1, 0, 0]

    def test_p_one_reaches_every_representable_block(self):
        # p = 1 needs every scrap of f64-visible mass, even 20 logs down.
        res = histogram_threshold(table((0, 4, 0.0, 2.0), (4, 4, -20.0, 3.0)), 1.0)
        assert res.block_mask.all()
        assert res.covered_mass == pytest.approx(1.0)

    def test_mask_consistent_with_active_set(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=200)
        blocks = block_table(s, 32)
        res = histogram_threshold(blocks, 0.8)
        expect = []
        for a, b, keep in zip(blocks.starts, blocks.stops, res.block_mask):
            if keep:
                expect.extend(range(a, b))
        assert res.active_set.tolist() == expect

    def test_empty_blocks_rejected(self):
        with pytest.raises(ArgumentError):
            histogram_threshold(BlockTable(*[np.empty(0)] * 4), 0.9)


class TestSplitMerge:
    def test_single_split_identity(self):
        s = np.random.default_rng(9).normal(size=100)
        blocks = block_table(s, 32)
        assert tables_equal(split_merge([blocks]), blocks)

    def test_two_splits_match_unsplit(self):
        s = np.random.default_rng(10).normal(size=256)
        left = split_table(s[:128], 64, 0)
        right = split_table(s[128:], 64, 128)
        merged = split_merge([left, right])
        assert tables_equal(merged, block_table(s, 64))

    def test_selection_identical_after_merge(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=500) * 4
        cut = 192
        merged = split_merge([
            split_table(s[:cut], 64, 0),
            split_table(s[cut:], 64, cut),
        ])
        direct = block_table(s, 64)
        a = histogram_threshold(merged, 0.9)
        b = histogram_threshold(direct, 0.9)
        np.testing.assert_array_equal(a.active_set, b.active_set)
        np.testing.assert_array_equal(a.block_mask, b.block_mask)
        assert a.covered_mass == b.covered_mass

    def test_merged_spans_match_whole(self):
        # Splits of a KV range that starts at token `base` and ends in a
        # ragged block: the merged selection's runs are the whole vector's
        # runs shifted by base.
        rng = np.random.default_rng(12)
        for _ in range(200):
            bs = int(rng.choice([1, 7, 16, 64]))
            n_blocks = int(rng.integers(2, 40))
            n = n_blocks * bs - int(rng.integers(1, bs)) if bs > 1 else n_blocks
            s = rng.normal(size=n) * rng.uniform(0.5, 8)
            base = bs * int(rng.integers(1, 50))
            cuts = np.sort(rng.choice(np.arange(1, n_blocks),
                                      size=min(3, n_blocks - 1), replace=False))
            bounds = [0] + [int(c) * bs for c in cuts] + [n]
            merged = split_merge([
                split_table(s[a:b], bs, base + a)
                for a, b in zip(bounds, bounds[1:])
            ])
            for p in (0.3, 0.9, 0.99, 1.0):
                got = histogram_threshold(merged, p)
                whole = histogram_threshold_scores(s, bs, p)
                assert got.spans == tuple(slice(sp.start + base, sp.stop + base)
                                          for sp in whole.spans)
                assert np.array_equal(got.active_set, whole.active_set + base)

    def test_gap_rejected(self):
        s = np.zeros(256)
        left = split_table(s[:64], 64, 0)
        right = split_table(s[128:], 64, 128)
        with pytest.raises(ArgumentError, match="gap at token 64"):
            split_merge([left, right])

    def test_overlap_rejected(self):
        s = np.zeros(256)
        left = split_table(s[:128], 64, 0)
        right = split_table(s[64:], 64, 64)
        with pytest.raises(ArgumentError, match="overlap"):
            split_merge([left, right])

    def test_unaligned_rejected(self):
        s = np.zeros(200)
        left = split_table(s[:100], 64, 0)   # 64 + 36: not aligned
        right = split_table(s[100:], 64, 100)
        with pytest.raises(ArgumentError, match="block-aligned"):
            split_merge([left, right])

    def test_empty_list_rejected(self):
        with pytest.raises(ArgumentError):
            split_merge([])


class TestSelectionProperties:
    @settings(max_examples=150)
    @given(
        st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=128),
        st.sampled_from([0.5, 0.9, 0.99]),
    )
    def test_histogram_coverage_property(self, raw, p):
        res = histogram_threshold(block_table(np.array(raw), 16), p)
        assert res.covered_mass >= p

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=80))
    def test_exact_beats_or_equals_blocks_in_size(self, raw):
        # Token-level selection can never need more tokens than the block
        # route selects for the same p.
        s = np.array(raw)
        exact = top_p_exact(s, 0.9)
        hist = histogram_threshold(block_table(s, 8), 0.9)
        assert exact.size <= hist.size


def reference_cut(bins, target):
    """Top-down scan one bin at a time; bin 0 when the total falls short."""
    cum = 0.0
    for b in range(N_BINS - 1, -1, -1):
        cum += float(bins[b])
        if cum >= target:
            return b
    return 0


def reference_scan(m, l, p):
    """The histogram scan deposited with np.add.at and walked bin by bin:
    (threshold bin, block mask, covered mass)."""
    m_star = float(m.max())
    masses = l * np.exp(m - m_star)
    idx = _bin_indices(m, m_star)
    bins = np.zeros(N_BINS)
    np.add.at(bins, idx, masses)
    threshold = reference_cut(bins, p * float(masses.sum()))
    mask = idx >= threshold
    return threshold, mask, float(math.fsum(masses[mask]) / math.fsum(masses))


def reference_block_count(table, p):
    """The block walk one block at a time, a running float sum in descending
    block-max order (ties to the lower index)."""
    masses = table.l * np.exp(table.m - float(table.m.max()))
    target = p * float(masses.sum())
    cum = 0.0
    for count, b in enumerate(np.argsort(-table.m, kind="stable"), start=1):
        cum += float(masses[b])
        if cum >= target:
            return count
    return int(table.m.size)


class TestScanReference:
    """The vectorized histogram scan must reproduce the bin-by-bin walk."""

    @pytest.mark.parametrize("maxima", ["random", "tied"])
    def test_block_count_matches_running_sum(self, maxima):
        rng = np.random.default_rng(78)
        for _ in range(200):
            n = int(rng.integers(1, 700))
            m = rng.normal(size=n) * 8 if maxima == "random" else rng.integers(-9, 1, n) * 1.0
            l = rng.uniform(1.0, 64.0, size=n)
            starts = np.arange(n, dtype=np.int64) * 4
            t = BlockTable(m, l, starts, starts + 4)
            for p in (0.1, 0.5, 0.9, 0.99, 1.0):
                assert block_top_p_exact(t, p) == reference_block_count(t, p)

    @pytest.mark.parametrize("maxima", ["random", "tied", "all_equal"])
    def test_scan_matches_reference(self, maxima):
        rng = np.random.default_rng(76)
        for _ in range(300):
            n = int(rng.integers(1, 700))
            if maxima == "random":
                m = rng.normal(size=n) * rng.uniform(0.5, 12)
            elif maxima == "tied":
                m = rng.integers(-40, 1, size=n) * BIN_WIDTH * rng.integers(1, 9)
            else:
                m = np.full(n, float(rng.normal()))
            l = rng.uniform(1.0, 64.0, size=n)
            starts = np.arange(n, dtype=np.int64) * 4
            for p in (0.1, 0.5, 0.9, 0.99, 1.0):
                res = histogram_threshold(BlockTable(m, l, starts, starts + 4), p)
                threshold, mask, covered = reference_scan(m, l, p)
                assert res.threshold_bin == threshold
                assert np.array_equal(res.block_mask, mask)
                assert res.covered_mass == covered

    def test_total_a_hair_under_target_clamps_to_bin_zero(self):
        from headsparse.selection import _cut

        rng = np.random.default_rng(77)
        for _ in range(50):
            idx = rng.integers(0, N_BINS, size=int(rng.integers(1, 2000)))
            masses = rng.exponential(size=idx.size)
            bins = np.zeros(N_BINS)
            np.add.at(bins, idx, masses)
            total = float(np.cumsum(bins[::-1])[-1])
            short = float(np.nextafter(total, np.inf))
            assert _cut(idx, masses, short) == reference_cut(bins, short) == 0
            assert _cut(idx, masses, total) == reference_cut(bins, total)
            for target in rng.uniform(0, total, size=8):
                assert _cut(idx, masses, target) == reference_cut(bins, target)


class TestFastPathEquivalence:
    """The large-input routes must reproduce the reference routes exactly."""

    def test_partitioned_walk_matches_sorted_walk(self):
        from headsparse.selection import _top_p_partitioned, _top_p_sorted

        rng = np.random.default_rng(71)
        for n in (500, 3000, 6000, 9000):
            for p in (0.5, 0.9, 0.99):
                s = rng.normal(size=n) * rng.uniform(0.5, 5)
                probs = softmax(s)
                fast = _top_p_partitioned(s, probs, p)
                ref = _top_p_sorted(s, probs, p)
                assert np.array_equal(fast.active_set, ref.active_set)
                assert fast.covered_mass == ref.covered_mass

    def test_partitioned_walk_survives_heavy_tie_fuzz(self):
        # Discrete score levels put whole tied cohorts on the pool edge and
        # in single bins; every p must still walk the sorted prefix.
        from headsparse.selection import (
            _SORT_CUTOFF,
            _top_p_partitioned,
            _top_p_sorted,
        )

        rng = np.random.default_rng(72)
        for trial in range(48):
            n = int(rng.integers(_SORT_CUTOFF + 1, 40_001))
            if trial % 2:
                s = np.round(rng.normal(size=n) * rng.uniform(0.5, 6), 1)
            else:
                s = rng.integers(0, rng.integers(2, 40), size=n).astype(np.float64)
            probs = softmax(s)
            for p in (0.3, 0.9, 0.99, 1 - 1e-6):
                fast = _top_p_partitioned(s, probs, p)
                ref = _top_p_sorted(s, probs, p)
                assert np.array_equal(fast.active_set, ref.active_set)
                assert fast.covered_mass == ref.covered_mass

    def test_partitioned_walk_near_full_mass(self):
        # Scores spread past HIST_RANGE with p within rounding of 1: the
        # pool reaches the lumped last bin and the full sort decides.
        from headsparse.selection import _top_p_partitioned, _top_p_sorted

        rng = np.random.default_rng(76)
        for p in (1 - 1e-13, 1 - 1e-15):
            s = rng.normal(size=10_000) * 8
            probs = softmax(s)
            fast = _top_p_partitioned(s, probs, p)
            ref = _top_p_sorted(s, probs, p)
            assert np.array_equal(fast.active_set, ref.active_set)
            assert fast.covered_mass == ref.covered_mass

    def test_public_entry_uses_fast_path_above_cutoff(self):
        from headsparse.selection import _SORT_CUTOFF, _top_p_sorted

        rng = np.random.default_rng(73)
        s = rng.normal(size=_SORT_CUTOFF + 500) * 3
        res = top_p_exact(s, 0.9)
        ref = _top_p_sorted(s, softmax(s), 0.9)
        assert np.array_equal(res.active_set, ref.active_set)
        assert res.covered_mass == ref.covered_mass

    def test_block_lse_bitwise(self):
        rng = np.random.default_rng(74)
        for n, bs in ((640, 64), (613, 64), (40, 64), (129, 16)):
            s = rng.normal(size=n) * 4
            t = block_table(s, bs)
            for b in range(t.m.size):
                pair = lse_reduce(s[b * bs : min((b + 1) * bs, n)])
                assert t.m[b] == pair.m
                assert t.l[b] == pair.l

    def test_fused_histogram_validation(self):
        with pytest.raises(ArgumentError):
            histogram_threshold_scores(np.ones(10), 0, 0.9)
        with pytest.raises(ArgumentError):
            histogram_threshold_scores(np.ones(10), 4, 0.0)
        with pytest.raises(ArgumentError):
            histogram_threshold_scores(np.array([]), 4, 0.9)


def reference_expansion(starts, stops, mask):
    """The kept blocks as tokens, one np.arange per block concatenated."""
    return np.concatenate([np.arange(a, b) for a, b in zip(starts[mask], stops[mask])])


class TestMergedRuns:
    """The histogram route hands out its kept blocks merged into runs; the
    runs expand to exactly the per-block token list."""

    @staticmethod
    def check(res, starts, stops):
        ref = reference_expansion(starts, stops, res.block_mask)
        assert res.active_set.dtype == ref.dtype
        assert np.array_equal(res.active_set, ref)
        assert len(res) == res.size == ref.size
        bounds = [(sp.start, sp.stop) for sp in res.spans]
        assert all(a < b for a, b in bounds)
        # sorted, disjoint, and merged: a gap separates consecutive runs
        assert all(b < a for (_, b), (a, _) in zip(bounds, bounds[1:]))
        assert np.array_equal(np.r_[res.spans], res.active_set)

    @staticmethod
    def block_bounds(n, block_size):
        starts = np.arange(0, n, block_size, dtype=np.int64)
        return starts, np.minimum(starts + block_size, n)

    def select(self, s, block_size, p):
        res = histogram_threshold_scores(s, block_size, p)
        self.check(res, *self.block_bounds(s.size, block_size))
        return res

    def test_single_block(self):
        res = self.select(np.zeros(10), 64, 0.9)
        assert res.spans == (slice(0, 10),)

    def test_kept_ragged_tail(self):
        s = np.full(200, -30.0)
        s[195] = 10.0
        res = self.select(s, 64, 0.9)
        assert res.spans == (slice(192, 200),)

    def test_all_blocks_kept(self):
        res = self.select(np.zeros(300), 64, 0.9)
        assert res.block_mask.all()
        assert res.spans == (slice(0, 300),)

    def test_non_adjacent_blocks(self):
        s = np.full(640, -30.0)
        s[[5, 70, 200, 330, 600]] = 10.0   # blocks 0, 1, 3, 5, 9
        res = self.select(s, 64, 0.99)
        assert res.spans == (slice(0, 128), slice(192, 256), slice(320, 384),
                             slice(576, 640))

    def test_p_one(self):
        rng = np.random.default_rng(80)
        s = rng.normal(size=1000) * 3
        res = self.select(s, 64, 1.0)
        assert res.spans == (slice(0, 1000),)

    def test_random_masks(self):
        rng = np.random.default_rng(81)
        for _ in range(300):
            n = int(rng.integers(1, 3000))
            bs = int(rng.integers(1, 100))
            s = rng.normal(size=n) * rng.uniform(0.5, 12)
            for p in (0.3, 0.9, 0.99):
                self.select(s, bs, p)

    def test_block_stats_route(self):
        # a table that starts at token 1000 merges the same runs, shifted
        rng = np.random.default_rng(82)
        for n, bs in ((613, 64), (100, 8), (5, 4)):
            s = rng.normal(size=n) * 6
            blocks = split_table(s, bs, 1000)
            res = histogram_threshold(blocks, 0.9)
            self.check(res, blocks.starts, blocks.stops)
            assert res.spans == tuple(
                slice(sp.start + 1000, sp.stop + 1000)
                for sp in histogram_threshold_scores(s, bs, 0.9).spans)

    def test_expansion_of_arbitrary_runs(self):
        from headsparse.selection import _expand_runs, _merged_runs

        rng = np.random.default_rng(83)
        for _ in range(200):
            lengths = rng.integers(1, 50, size=int(rng.integers(1, 40)))
            gaps = rng.integers(0, 3, size=lengths.size)   # 0: adjacent blocks
            stops = np.cumsum(lengths + gaps) + 1000
            starts = stops - lengths
            mask = rng.random(lengths.size) < rng.uniform(0.1, 1.0)
            if not mask.any():
                mask[int(rng.integers(0, mask.size))] = True
            run_starts, run_stops = _merged_runs(starts[mask], stops[mask])
            assert np.array_equal(_expand_runs(run_starts, run_stops),
                                  reference_expansion(starts, stops, mask))

    def test_exact_routes_have_no_spans(self):
        s = np.random.default_rng(84).normal(size=500)
        assert top_p_exact(s, 0.9).spans is None
        assert top_k_static(s, 10).spans is None
