import math
from fractions import Fraction

import numpy as np
import pytest

from dvskit.errors import BoundsError, ShapeError, ValidationError
from dvskit.frames import (
    BatchedFrames,
    active_mask,
    empty_frame,
    frame_from_dict,
    frame_mass,
    frame_to_dict,
    from_entries,
    merge_add,
    merge_average,
    to_dense,
)
from oracles import dense_fraction_view, dense_scatter, random_frame


class TestFromEntries:
    def test_duplicates_folded(self):
        f = from_entries([(2, 1, "pos", 1), (2, 1, "pos", 2)], 4, 4)
        assert f.pos.tolist() == [[2, 1, 3, 1]]
        assert f.neg.tolist() == []

    def test_empty(self):
        f = from_entries([], 4, 4)
        assert f.n_entries == 0

    def test_out_of_bounds(self):
        with pytest.raises(BoundsError):
            from_entries([(4, 0, "pos", 1)], 4, 4)

    def test_zero_values_dropped(self):
        f = from_entries([(0, 0, "pos", 0), (1, 1, "neg", 2)], 4, 4)
        assert len(f.pos) == 0
        assert f.neg.tolist() == [[1, 1, 2, 1]]

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            from_entries([(0, 0, "pos", -1)], 4, 4)

    def test_canonical_ordering(self):
        f = from_entries(
            [(3, 0, "pos", 1), (0, 2, "pos", 1), (0, 1, "pos", 1)], 4, 4
        )
        assert f.pos[:, :2].tolist() == [[0, 1], [0, 2], [3, 0]]

    def test_rational_values_reduced(self):
        f = from_entries(
            [(1, 1, "pos", Fraction(1, 4)), (1, 1, "pos", Fraction(1, 4))], 4, 4
        )
        assert f.pos.tolist() == [[1, 1, 1, 2]]

    def test_random_entries_match_dense_scatter(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            frame, entries = random_frame(rng, 12, 9, max_entries=500 // 10, rational=True)
            pos, neg = dense_scatter(entries, 12, 9)
            got_pos, got_neg = dense_fraction_view(frame)
            assert np.array_equal(pos, got_pos)
            assert np.array_equal(neg, got_neg)


class TestCanonicalForm:
    def test_channels_share_one_denominator(self):
        f = from_entries([(0, 0, "pos", Fraction(1, 2)), (1, 1, "neg", Fraction(1, 3))], 2, 2)
        assert f.pos.tolist() == [[0, 0, 3, 6]]
        assert f.neg.tolist() == [[1, 1, 2, 6]]
        assert f.den == 6

    def test_integer_frame_has_denominator_one(self):
        f = from_entries([(0, 0, "pos", Fraction(3, 3)), (1, 1, "neg", 4)], 2, 2)
        assert f.den == 1
        assert empty_frame(2, 2).den == 1

    def test_random_frames_hold_one_reduced_denominator(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            a, _ = random_frame(rng, 7, 5, rational=True)
            b, _ = random_frame(rng, 7, 5, rational=True)
            for frame in (a, merge_add([a, b]), merge_average([a, b, b])):
                entries = np.concatenate([frame.pos, frame.neg])
                if len(entries) == 0:
                    continue
                assert set(entries[:, 3].tolist()) == {frame.den}
                assert math.gcd(frame.den, *entries[:, 2].tolist()) == 1


class TestOverflow:
    def test_pixel_sum_beyond_int64_raises_instead_of_wrapping(self):
        entries = [(0, 0, "pos", 2**31 - 1)] * 8 + [(0, 0, "pos", Fraction(1, 2**30 + 1))]
        with pytest.raises(OverflowError, match="int64"):
            from_entries(entries, 2, 2)

    def test_merge_add_sum_beyond_int64_raises(self):
        f = from_entries([(1, 1, "neg", 2**62)], 2, 2)
        with pytest.raises(OverflowError, match="int64"):
            merge_add([f, f])

    def test_common_denominator_beyond_int64_raises(self):
        coprime = [Fraction(1, 2**30 - 1), Fraction(1, 2**30), Fraction(1, 2**30 + 1)]
        entries = [(0, i, "pos", v) for i, v in enumerate(coprime)]
        with pytest.raises(OverflowError, match="int64"):
            from_entries(entries, 4, 4)
        f = from_entries([(0, 0, "pos", Fraction(1, 2**62))], 4, 4)
        with pytest.raises(OverflowError, match="int64"):
            merge_average([f, f, f])

    def test_rescale_beyond_int64_raises(self):
        entries = [(0, 0, "pos", 2**62), (1, 1, "neg", Fraction(1, 3))]
        with pytest.raises(OverflowError, match="int64"):
            from_entries(entries, 2, 2)

    def test_mass_beyond_int64_is_exact(self):
        f = from_entries([(0, 0, "pos", 2**62), (1, 1, "pos", 2**62)], 2, 2)
        assert frame_mass(f) == 2**63


class TestToDense:
    def test_empty_frame_all_zero(self):
        g = to_dense(empty_frame(2, 2))
        assert g.pos_num.sum() == 0 and g.neg_num.sum() == 0

    def test_single_entry(self):
        f = from_entries([(0, 1, "pos", 4)], 2, 2)
        g = to_dense(f)
        assert g.pos_num[0, 1] == 4
        assert g.pos_num.sum() == 4

    def test_roundtrip_through_dense(self):
        rng = np.random.default_rng(5)
        frame, _ = random_frame(rng, 8, 8, max_entries=40)
        g = to_dense(frame)
        entries = []
        for (name, num, den) in (("pos", g.pos_num, g.pos_den), ("neg", g.neg_num, g.neg_den)):
            for r, c in zip(*np.nonzero(num)):
                entries.append((int(r), int(c), name, Fraction(int(num[r, c]), int(den[r, c]))))
        again = from_entries(entries, 8, 8, t_ref_us=frame.t_ref_us)
        assert again == frame


class TestMergeAdd:
    def test_pointwise_sum(self):
        a = from_entries([(1, 2, "pos", 3)], 4, 4)
        b = from_entries([(0, 0, "pos", 2), (1, 2, "pos", 1)], 4, 4)
        merged = merge_add([a, b])
        assert merged.pos.tolist() == [[0, 0, 2, 1], [1, 2, 4, 1]]

    def test_singleton_identity(self):
        f, _ = random_frame(np.random.default_rng(2), 6, 6)
        assert merge_add([f]) == f

    def test_t_ref_is_min(self):
        a = from_entries([], 4, 4, t_ref_us=500)
        b = from_entries([], 4, 4, t_ref_us=200)
        assert merge_add([a, b]).t_ref_us == 200

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            merge_add([empty_frame(4, 4), empty_frame(5, 4)])

    def test_mass_conservation_and_dense_oracle(self):
        rng = np.random.default_rng(23)
        frames, all_entries = [], []
        for _ in range(8):
            f, e = random_frame(rng, 10, 7, max_entries=25, rational=True)
            frames.append(f)
            all_entries.extend(e)
        merged = merge_add(frames)
        pos, neg = dense_scatter(all_entries, 10, 7)
        got_pos, got_neg = dense_fraction_view(merged)
        assert np.array_equal(pos, got_pos) and np.array_equal(neg, got_neg)
        assert frame_mass(merged) == sum(frame_mass(f) for f in frames)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(31)
        frames = [random_frame(rng, 6, 6)[0] for _ in range(5)]
        shuffled = [frames[i] for i in [3, 1, 4, 0, 2]]
        assert merge_add(frames) == merge_add(shuffled)


class TestMergeAverage:
    def test_identical_frames_average_to_themselves(self):
        f = from_entries([(2, 2, "pos", 4), (1, 0, "neg", 2)], 4, 4, t_ref_us=9)
        assert merge_average([f, f, f]) == f

    def test_divisor_is_frame_count(self):
        a = from_entries([(1, 2, "pos", 3)], 4, 4)
        b = empty_frame(4, 4)
        avg = merge_average([a, b])
        assert avg.pos.tolist() == [[1, 2, 3, 2]]

    def test_average_equals_add_scaled(self):
        rng = np.random.default_rng(17)
        frames = [random_frame(rng, 9, 5, rational=True)[0] for _ in range(4)]
        avg_pos, avg_neg = dense_fraction_view(merge_average(frames))
        add_pos, add_neg = dense_fraction_view(merge_add(frames))
        assert np.array_equal(avg_pos * 4, add_pos)
        assert np.array_equal(avg_neg * 4, add_neg)

    def test_random_frames_equal_exact_fraction_means(self):
        rng = np.random.default_rng(71)
        for trial in range(80):
            rational = trial % 2 == 1
            drawn = [random_frame(rng, 6, 5, max_entries=20, rational=rational) for _ in range(2)]
            # repeating frames makes every sum a multiple of the repeat count, which must cancel
            drawn = drawn[: int(rng.integers(1, 3))] * int(rng.integers(1, 4))
            k = len(drawn)
            sums = {}
            for _, entries in drawn:
                for row, col, channel, value in entries:
                    sums[row, col, channel] = sums.get((row, col, channel), 0) + Fraction(value)
            frames = [f for f, _ in drawn]
            means = [(row, col, channel, total / k) for (row, col, channel), total in sums.items()]
            t_ref = min(f.t_ref_us for f in frames)
            assert merge_average(frames) == from_entries(means, 6, 5, t_ref_us=t_ref)


class TestConcat:
    def test_order_preserved_bit_equal(self):
        rng = np.random.default_rng(41)
        frames = [random_frame(rng, 5, 5)[0] for _ in range(4)]
        batch = BatchedFrames(tuple(frames))
        assert len(batch) == 4
        for got, want in zip(batch.frames, frames):
            assert got == want

    def test_singleton(self):
        assert len(BatchedFrames((empty_frame(3, 3),))) == 1

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            BatchedFrames((empty_frame(3, 3), empty_frame(3, 4)))


class TestDensity:
    def test_empty_frame(self):
        assert np.count_nonzero(active_mask(empty_frame(8, 8))) / (8 * 8) == 0.0

    def test_four_pixels_on_8x8(self):
        f = from_entries(
            [(0, 0, "pos", 1), (1, 1, "pos", 1), (2, 2, "pos", 1), (3, 3, "pos", 1)], 8, 8
        )
        assert np.count_nonzero(active_mask(f)) / (8 * 8) == 4 / 64

    def test_both_channels_count_once(self):
        f = from_entries([(2, 2, "pos", 1), (2, 2, "neg", 3)], 8, 8)
        assert np.count_nonzero(active_mask(f)) / (8 * 8) == 1 / 64


class TestSerialization:
    def test_dict_roundtrip(self):
        frame, _ = random_frame(np.random.default_rng(53), 7, 7, rational=True)
        assert frame_from_dict(frame_to_dict(frame)) == frame
