import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvskit.errors import BoundsError, OrderingError, ParseError, ValidationError
from dvskit.events import (
    SceneSegment,
    SceneSpec,
    as_event_array,
    dump_events,
    generate_events,
    parse_events,
    scene_from_dict,
    scene_to_dict,
    window_events,
)
from oracles import dump_event_rows, filter_window, unsorted_scene_events


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

    @pytest.mark.parametrize(
        "text, line", [("1\u0663 2 \u0663 1", 1), ("10 0 0 1\n1\u0663 2 \u0663 1\n", 2)]
    )
    def test_non_ascii_str_reports_number(self, text, line):
        # Arabic-Indic digits pass str.isdecimal and int(); the format is ASCII
        with pytest.raises(ParseError, match=f"line {line}"):
            parse_events(text, width=8, height=8)

    def test_non_ascii_line_in_iterable_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_events(["10 0 0 1", "1\u0663 2 \u0663 1"], width=8, height=8)

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


# digit-width edges of a column, int64 max included
EDGES = [0, 9, 10, 99, 100, 10**18 - 1, 10**18, np.iinfo(np.int64).max]


class TestDump:
    @pytest.mark.parametrize(
        "rows",
        [[], [[0, 0, 0, -1]]] + [[[v, v, v, 1], [v // 10, 0, v, -1]] for v in EDGES],
    )
    def test_matches_row_writer(self, rows):
        events = np.array(rows, dtype=np.int64).reshape(-1, 4)
        assert dump_events(events) == dump_event_rows(events)

    def test_random_arrays_match_row_writer(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.choice([0, 1, int(rng.integers(2, 80))]))
            cols = []
            for _ in range(3):
                mags = 10 ** rng.integers(0, 19, size=n).astype(np.float64)
                col = (rng.random(n) * mags).astype(np.int64)
                edge = rng.random(n) < 0.3
                col[edge] = rng.choice(EDGES, size=int(edge.sum()))
                cols.append(col)
            cols.append(rng.choice([-1, 1], size=n))
            events = np.stack(cols, axis=1).astype(np.int64).reshape(-1, 4)
            assert dump_events(events) == dump_event_rows(events)

    @pytest.mark.parametrize(
        "rows",
        [
            [[5, 1, 2, 0], [-3, -1, 2, 7]],
            [[5, 1, 2, 0]],
            [[5, 1, 2, 2]],
            [[5, 1, 2, -2]],
            [[-3, 1, 2, 1]],
            [[3, -1, 2, 1]],
            [[3, 1, -2, 1]],
        ],
    )
    def test_rejects_what_parse_cannot_read_back(self, rows):
        with pytest.raises(ValidationError):
            dump_events(rows)

    def test_peak_memory_bounded(self):
        # the per-row writer peaks at about 60 MB on these 300 k events
        events = generate_events(
            SceneSpec(346, 260, 150_000, seed=1, segments=(SceneSegment(0, 150_000, 2e6),))
        )
        tracemalloc.start()
        try:
            text = dump_events(events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == 300_018 and len(text) == 4_805_685
        assert peak < 32e6


class TestEventArray:
    @pytest.mark.parametrize(
        "rows",
        [
            [[1.7, 2, 3, 1]],
            np.ones((2, 4), dtype=np.float32),
            np.ones((2, 4), dtype=bool),
            [[1, 2, 3, 2**70]],
            [["1", "2", "3", "1"]],
        ],
    )
    def test_non_integer_rejected(self, rows):
        with pytest.raises(ValidationError):
            as_event_array(rows)

    def test_uint64_past_int64_rejected(self):
        with pytest.raises(ValidationError):
            as_event_array(np.array([[2**63, 0, 0, 1]], dtype=np.uint64))

    @pytest.mark.parametrize("rows", [[], [[]], np.empty((0, 4)), np.empty((0, 4), dtype=object)])
    def test_empty_input_gives_empty_events(self, rows):
        arr = as_event_array(rows)
        assert arr.shape == (0, 4) and arr.dtype == np.int64

    def test_narrow_integers_widened(self):
        arr = as_event_array(np.array([[1, 2, 3, -1]], dtype=np.int16))
        assert arr.dtype == np.int64 and arr.tolist() == [[1, 2, 3, -1]]


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

    @pytest.mark.parametrize(
        "spec, events_sha, text_sha",
        [
            (  # the aer_dense_add stream at seed 1
                SceneSpec(346, 260, 150_000, seed=1, segments=(SceneSegment(0, 150_000, 2e6),)),
                "9e77610adfe3ee8fa9d8e6855fdb131502877b6f397f2f75b2cf8823cd54ccac",
                "a0636990050f2fcb32171a16751616c35a95e4aec37c1a41f4bcfb9cefd01a62",
            ),
            (  # the baseline_burst_avg stream at seed 1
                SceneSpec(
                    346,
                    260,
                    500_000,
                    seed=1,
                    segments=(
                        SceneSegment(0, 20_000, 2e6),
                        SceneSegment(20_000, 500_000, 2e5, (100, 80, 60, 40)),
                    ),
                ),
                "ac069d920ac8ddac4e2db98091b1e522553d9e055f6f11078963ca3f995bbdcc",
                "9d44dd48963d8ec41f4ac1e0a357f1488ee2098f58b684432a3504658d37f6da",
            ),
        ],
    )
    def test_bench_streams_pinned(self, spec, events_sha, text_sha):
        ev = generate_events(spec)
        assert hashlib.sha256(ev.tobytes()).hexdigest() == events_sha
        assert hashlib.sha256(dump_events(ev).encode()).hexdigest() == text_sha

    def test_order_is_stable_time_sort_of_draws(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            # spans from heavy ties (dozens of microseconds) to three radix digits
            duration = int(rng.choice([50, 5_000, 2**20, 2**40, 2**50]))
            cuts = np.unique(rng.integers(1, duration, size=int(rng.integers(0, 5))))
            bounds = [0, *cuts.tolist(), duration]
            # a mean of 0, 30 or 300 events per segment
            segments = [
                SceneSegment(a, b, float(rng.choice([0, 30, 300])) * 1e6 / (b - a))
                for a, b in zip(bounds, bounds[1:])
            ]
            rng.shuffle(segments)
            spec = SceneSpec(16, 8, duration, seed=trial, segments=tuple(segments))
            drawn = unsorted_scene_events(spec)
            expected = drawn[np.argsort(drawn[:, 0], kind="stable")]
            assert np.array_equal(generate_events(spec), expected)

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
