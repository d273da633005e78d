import numpy as np
import pytest

from dvskit.binning import BinningSpec, bin_index, to_sparse_frames
from dvskit.errors import BoundsError, ValidationError
from dvskit.events import EventWindow, window_events
from dvskit.frames import frame_mass, from_entries, to_dense
from oracles import dense_binned_counts, rational_bin_index


class TestBinIndex:
    def test_middle_of_window(self):
        # biS = 20, t = 45 -> bin 2
        assert bin_index(45, 0, 100, 5) == 2

    def test_window_start(self):
        assert bin_index(0, 0, 100, 5) == 0

    def test_last_bin_boundary(self):
        assert bin_index(99, 0, 100, 5) == 4

    def test_outside_window_rejected(self):
        with pytest.raises(ValidationError):
            bin_index(100, 0, 100, 5)
        with pytest.raises(ValidationError):
            bin_index(-1, 0, 100, 5)

    def test_matches_rational_oracle_when_indivisible(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            t0 = int(rng.integers(0, 1000))
            span = int(rng.integers(1, 5000))
            n_bins = int(rng.integers(1, 17))
            t = t0 + int(rng.integers(0, span))
            assert bin_index(t, t0, t0 + span, n_bins) == rational_bin_index(
                t, t0, t0 + span, n_bins
            )


class TestConvert:
    def test_empty_window_yields_empty_frames(self):
        win = window_events(np.empty((0, 4), dtype=np.int64), 0, 100)
        frames = to_sparse_frames(win, BinningSpec(4, 8, 8))
        assert len(frames) == 4
        assert all(f.n_entries == 0 for f in frames)
        # empty bins anchor t_ref at the bin start
        assert [f.t_ref_us for f in frames] == [0, 25, 50, 75]

    def test_accumulation_and_row_col_order(self):
        ev = np.array(
            [[5, 1, 2, 1], [5, 1, 2, 1], [5, 1, 2, -1]], dtype=np.int64
        )
        frames = to_sparse_frames(window_events(ev, 0, 10), BinningSpec(1, 4, 4))
        assert len(frames) == 1
        # (row, col) = (y, x)
        assert frames[0].pos.tolist() == [[2, 1, 2, 1]]
        assert frames[0].neg.tolist() == [[2, 1, 1, 1]]
        assert frames[0].t_ref_us == 5

    def test_t_ref_is_earliest_event_in_bin(self):
        ev = np.array([[37, 0, 0, 1], [44, 1, 1, -1]], dtype=np.int64)
        frames = to_sparse_frames(window_events(ev, 0, 100), BinningSpec(2, 4, 4))
        assert frames[0].t_ref_us == 37
        assert frames[1].t_ref_us == 50  # empty second bin -> bin start

    def test_out_of_dims_rejected(self):
        ev = np.array([[5, 9, 0, 1]], dtype=np.int64)
        with pytest.raises(BoundsError):
            to_sparse_frames(window_events(ev, 0, 10), BinningSpec(1, 8, 8))

    def test_event_conservation_exact(self):
        rng = np.random.default_rng(29)
        ev = _random_events(rng, 5000, 64, 48, 0, 99_990)
        frames = to_sparse_frames(window_events(ev, 0, 100_000), BinningSpec(7, 64, 48))
        assert sum(frame_mass(f) for f in frames) == 5000

    def test_output_size_proportional_to_events(self):
        rng = np.random.default_rng(57)
        ev = _random_events(rng, 800, 32, 32, 0, 9_999)
        frames = to_sparse_frames(window_events(ev, 0, 10_000), BinningSpec(8, 32, 32))
        assert len(frames) == 8
        assert sum(f.n_entries for f in frames) <= 800

    def test_against_dense_scatter_oracle(self):
        rng = np.random.default_rng(101)
        ev = _random_events(rng, 10_000, 48, 36, 100, 77_700)
        t0, t1, n_bins = 100, 77_777, 8
        frames = to_sparse_frames(window_events(ev, t0, t1), BinningSpec(n_bins, 48, 36))
        oracle = dense_binned_counts(ev, t0, t1, n_bins, 48, 36)
        for i, f in enumerate(frames):
            g = to_dense(f)
            assert np.array_equal(g.pos_num, oracle[i, 0])
            assert np.array_equal(g.neg_num, oracle[i, 1])
            assert np.all(g.pos_den == 1) and np.all(g.neg_den == 1)

    def test_random_windows_equal_dense_oracle_frames(self):
        rng = np.random.default_rng(43)
        for trial in range(80):
            width, height = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            t0, span = int(rng.integers(-1000, 1000)), int(rng.integers(1, 400))
            n_bins = int(rng.integers(1, 12))  # mostly not dividing the span
            ev = _random_events(rng, int(rng.integers(0, 60)), width, height, t0, t0 + span - 1)
            if trial % 2:
                ev = rng.permutation(ev)  # binning does not depend on event order
            t1 = t0 + span
            spec = BinningSpec(n_bins, width, height)
            frames = to_sparse_frames(EventWindow(t0, t1, ev, 0), spec)
            grid = dense_binned_counts(ev, t0, t1, n_bins, width, height)
            assert len(frames) == n_bins
            for i, frame in enumerate(frames):
                times = [t for t in ev[:, 0].tolist() if rational_bin_index(t, t0, t1, n_bins) == i]
                t_ref = min(times) if times else t0 + i * span // n_bins
                entries = [
                    (int(r), int(c), channel, int(grid[i, k, r, c]))
                    for k, channel in enumerate(("pos", "neg"))
                    for r, c in zip(*np.nonzero(grid[i, k]))
                ]
                assert frame == from_entries(entries, width, height, t_ref)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        ev = _random_events(rng, 500, 16, 16, 0, 999)
        win = window_events(ev, 0, 1000)
        a = to_sparse_frames(win, BinningSpec(3, 16, 16))
        b = to_sparse_frames(win, BinningSpec(3, 16, 16))
        assert a == b


class TestInputDefects:
    def test_out_of_span_events_rejected(self):
        ev = np.array([[-5, 0, 0, 1], [3, 1, 1, 1], [15, 2, 2, -1]], dtype=np.int64)
        for rows in (ev, ev[:1], ev[1:]):
            with pytest.raises(ValidationError):
                to_sparse_frames(EventWindow(0, 10, rows, 0), BinningSpec(2, 4, 4))

    def test_negative_coordinates_rejected(self):
        for x, y in ((-1, 1), (1, -1)):
            ev = np.array([[3, x, y, 1]], dtype=np.int64)
            with pytest.raises(BoundsError):
                to_sparse_frames(EventWindow(0, 10, ev, 0), BinningSpec(2, 4, 4))

    def test_unsorted_window_bins_like_sorted_copy(self):
        ev = np.array([[8, 0, 0, 1], [1, 1, 0, 1], [9, 2, 1, -1], [2, 0, 0, -1]], dtype=np.int64)
        spec = BinningSpec(2, 4, 4)
        got = to_sparse_frames(EventWindow(0, 10, ev, 0), spec)
        ordered = ev[np.argsort(ev[:, 0], kind="stable")]
        assert got == to_sparse_frames(EventWindow(0, 10, ordered, 0), spec)
        assert [f.t_ref_us for f in got] == [1, 8]
        assert frame_mass(got[0]) == 2

    def test_key_space_beyond_int64_raises(self):
        ev = np.array([[1, 0, 0, 1], [2**61, 1, 1, -1]], dtype=np.int64)
        with pytest.raises(OverflowError, match="int64"):
            bin_index(2**61, 0, 2**62, 4)
        with pytest.raises(OverflowError, match="int64"):
            to_sparse_frames(EventWindow(0, 2**62, ev, 0), BinningSpec(4, 4, 4))
        with pytest.raises(OverflowError, match="int64"):
            to_sparse_frames(EventWindow(0, 10, ev[:1], 0), BinningSpec(4, 2**31, 2**30))


def _random_events(rng, n, width, height, t_lo, t_hi):
    ts = np.sort(rng.integers(t_lo, t_hi + 1, size=n))
    return np.column_stack(
        [
            ts,
            rng.integers(0, width, n),
            rng.integers(0, height, n),
            rng.choice([-1, 1], n),
        ]
    ).astype(np.int64)
