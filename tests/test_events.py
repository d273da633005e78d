import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvskit.errors import BoundsError, OrderingError, ParseError, ValidationError
from dvskit.events import (
    SceneSegment,
    SceneSpec,
    dump_events,
    generate_events,
    parse_events,
    scene_from_dict,
    scene_to_dict,
    window_events,
)
from oracles import filter_window


class TestParse:
    def test_single_line(self):
        ev = parse_events("100 3 5 1", width=8, height=8)
        assert ev.tolist() == [[100, 3, 5, 1]]

    def test_empty_input(self):
        assert parse_events("", width=8, height=8).shape == (0, 4)

    def test_x_out_of_bounds(self):
        with pytest.raises(BoundsError):
            parse_events("100 9 5 1", width=8, height=8)

    def test_y_out_of_bounds(self):
        with pytest.raises(BoundsError):
            parse_events("100 5 8 1", width=8, height=8)

    def test_polarity_zero_maps_to_negative(self):
        ev = parse_events("7 1 2 0", width=4, height=4)
        assert ev[0, 3] == -1

    def test_polarity_minus_one_kept(self):
        ev = parse_events("7 1 2 -1", width=4, height=4)
        assert ev[0, 3] == -1

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n10 0 0 1\n# tail\n20 1 1 0\n"
        ev = parse_events(text, width=4, height=4)
        assert ev.tolist() == [[10, 0, 0, 1], [20, 1, 1, -1]]

    def test_decimal_seconds_exact(self):
        ev = parse_events("1.5 0 0 1\n0.000001 1 1 1", width=4, height=4)
        assert ev[:, 0].tolist() == [1_500_000, 1]

    def test_decimal_truncates_below_microsecond(self):
        ev = parse_events("0.1234567 0 0 1", width=4, height=4)
        assert ev[0, 0] == 123_456

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_events("10 0 0 1\nbogus line\n", width=4, height=4)

    @pytest.mark.parametrize("line", ["1 \u00b2 3 1", "\u00b9 2 3 1", "0.\u00b2 1 1 1"])
    def test_superscript_digits_report_number(self, line):
        # str.isdigit accepts superscripts but int() does not
        with pytest.raises(ParseError, match="line 2"):
            parse_events(f"10 0 0 1\n{line}\n", width=4, height=4)

    def test_non_ascii_bytes_report_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_events(b"10 0 0 1\n10 0 \xc2\xb2 1\n", width=4, height=4)

    def test_double_space_rejected(self):
        with pytest.raises(ParseError):
            parse_events("10  0 0 1", width=4, height=4)

    def test_bad_polarity_rejected(self):
        with pytest.raises(ParseError):
            parse_events("10 0 0 2", width=4, height=4)

    def test_count_matches_wellformed_lines(self):
        lines = "\n".join(f"{10 * i} {i % 4} {i % 4} 1" for i in range(50))
        assert len(parse_events(lines, width=4, height=4)) == 50


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 10**9),
            st.integers(0, 31),
            st.integers(0, 23),
            st.sampled_from([-1, 1]),
        ),
        max_size=60,
    )
)
def test_parse_serialize_roundtrip(rows):
    events = np.array(rows, dtype=np.int64).reshape(-1, 4)
    again = parse_events(dump_events(events), width=32, height=24)
    assert np.array_equal(events, again)


class TestWindow:
    def test_half_open_interval(self):
        ev = np.array([[5, 0, 0, 1], [10, 0, 0, 1], [20, 0, 0, 1]], dtype=np.int64)
        win = window_events(ev, 10, 20)
        assert win.events[:, 0].tolist() == [10]
        assert win.dropped == 2

    def test_covering_window_drops_nothing(self):
        ev = np.array([[5, 0, 0, 1], [10, 0, 0, 1]], dtype=np.int64)
        win = window_events(ev, 0, 100)
        assert win.dropped == 0
        assert len(win) == 2

    def test_unsorted_input_rejected(self):
        ev = np.array([[10, 0, 0, 1], [5, 0, 0, 1]], dtype=np.int64)
        with pytest.raises(OrderingError):
            window_events(ev, 0, 100)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValidationError):
            window_events(np.empty((0, 4), dtype=np.int64), 10, 10)

    def test_random_windows_match_linear_scan(self):
        rng = np.random.default_rng(7)
        ts = np.sort(rng.integers(0, 10_000, size=1000))
        ev = np.column_stack(
            [
                ts,
                rng.integers(0, 16, 1000),
                rng.integers(0, 16, 1000),
                rng.choice([-1, 1], 1000),
            ]
        ).astype(np.int64)
        for _ in range(25):
            a = int(rng.integers(0, 9_000))
            b = a + int(rng.integers(1, 2_000))
            win = window_events(ev, a, b)
            assert win.events.tolist() == filter_window(ev, a, b)
            assert win.dropped == len(ev) - len(win.events)

    def test_windowing_idempotent(self):
        rng = np.random.default_rng(3)
        ts = np.sort(rng.integers(0, 1000, size=200))
        ev = np.column_stack([ts, np.zeros((200, 2), dtype=np.int64), np.ones(200, dtype=np.int64)])
        first = window_events(ev, 100, 600)
        second = window_events(first.events, 100, 600)
        assert np.array_equal(first.events, second.events)
        assert second.dropped == 0


class TestSyntheticScene:
    def _spec(self, **kwargs):
        defaults = dict(
            width=32,
            height=32,
            duration_us=1_000_000,
            seed=42,
            segments=(SceneSegment(0, 1_000_000, 10_000.0),),
        )
        defaults.update(kwargs)
        return SceneSpec(**defaults)

    def test_zero_rate_gives_empty_stream(self):
        spec = self._spec(segments=(SceneSegment(0, 1_000_000, 0.0),))
        assert len(generate_events(spec)) == 0

    def test_same_seed_identical(self):
        spec = self._spec()
        a, b = generate_events(spec), generate_events(spec)
        assert np.array_equal(a, b)

    def test_rate_within_ten_percent(self):
        # 10000 ev/s over 1 s: count within +/- 1000
        n = len(generate_events(self._spec()))
        assert 9_000 <= n <= 11_000

    def test_events_time_sorted_and_in_region(self):
        spec = self._spec(
            segments=(
                SceneSegment(0, 400_000, 5_000.0, region=(4, 8, 8, 4)),
                SceneSegment(600_000, 1_000_000, 2_000.0),
            )
        )
        ev = generate_events(spec)
        assert np.all(np.diff(ev[:, 0]) >= 0)
        burst = ev[ev[:, 0] < 400_000]
        assert burst[:, 1].min() >= 4 and burst[:, 1].max() < 12
        assert burst[:, 2].min() >= 8 and burst[:, 2].max() < 12
        assert set(np.unique(ev[:, 3])) <= {-1, 1}

    def test_per_segment_rates(self):
        spec = self._spec(
            duration_us=2_000_000,
            segments=(
                SceneSegment(0, 1_000_000, 3_000.0),
                SceneSegment(1_000_000, 2_000_000, 20_000.0),
            ),
        )
        ev = generate_events(spec)
        first = int(np.sum(ev[:, 0] < 1_000_000))
        second = len(ev) - first
        assert abs(first - 3_000) <= 300
        assert abs(second - 20_000) <= 2_000

    def test_zero_area_region_rejected(self):
        with pytest.raises(ValidationError):
            self._spec(segments=(SceneSegment(0, 1000, 5.0, region=(0, 0, 0, 4)),))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValidationError):
            self._spec(segments=(SceneSegment(0, 1000, rate),))

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ValidationError):
            self._spec(
                segments=(SceneSegment(0, 600, 5.0), SceneSegment(500, 1000, 5.0))
            )

    def test_scene_dict_roundtrip(self):
        spec = self._spec(
            segments=(SceneSegment(0, 500_000, 100.0, region=(1, 2, 3, 4)),)
        )
        assert scene_from_dict(scene_to_dict(spec)) == spec

    def test_scene_dict_ignores_stale_theta(self):
        spec = self._spec()
        assert scene_from_dict({**scene_to_dict(spec), "theta": 0.2}) == spec
