"""Event-stream ingestion: AER text parsing, synthetic scenes, windowing.

Event streams are (N, 4) int64 arrays with columns (t, x, y, p):
timestamp in microseconds, pixel column, pixel row, polarity in {-1, +1}.
The column order matches the on-disk line format ``<t> <x> <y> <p>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import BoundsError, OrderingError, ParseError, ValidationError

COL_T, COL_X, COL_Y, COL_P = 0, 1, 2, 3

US_PER_S = 1_000_000


def empty_events() -> np.ndarray:
    return np.empty((0, 4), dtype=np.int64)


def as_event_array(events) -> np.ndarray:
    """Coerce a sequence of (t, x, y, p) rows into the canonical array form.

    Empty input gives :func:`empty_events`. Raises ``ValidationError`` for a
    shape other than (n, 4), a non-integer dtype (float, bool, object, str)
    or a uint64 value past the int64 range.
    """
    arr = np.asarray(events)
    if arr.size == 0:
        return empty_events()
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValidationError(f"event array must have shape (n, 4), got {arr.shape}")
    if arr.dtype == np.int64:
        return arr
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"event array must hold integers, got dtype {arr.dtype}")
    if arr.dtype == np.uint64 and arr.max() > np.iinfo(np.int64).max:
        raise ValidationError("event array value exceeds the int64 range")
    return arr.astype(np.int64)


def _parse_timestamp_us(token: str, line: int) -> int:
    """Parse a timestamp token to integer microseconds.

    Plain digits are microseconds. A decimal point marks seconds, scaled by
    exact string manipulation (no float round-trip); fractional digits past
    microsecond resolution are truncated.
    """
    if "." in token:
        whole, _, frac = token.partition(".")
        if not whole.isdecimal() or not frac.isdecimal():
            raise ParseError(f"bad timestamp {token!r}", line)
        frac = (frac + "000000")[:6]
        return int(whole) * US_PER_S + int(frac)
    if not token.isdecimal():
        raise ParseError(f"bad timestamp {token!r}", line)
    return int(token)


_POLARITY = {"0": -1, "1": 1, "-1": -1, "+1": 1}


def _ascii_lines(lines: Iterable[str]) -> Iterable[str]:
    """Yield ``lines``, raising ``ParseError`` at the first non-ASCII one."""
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            ch = next(ch for ch in line if not ch.isascii())
            raise ParseError(f"non-ASCII character {ch!r}", lineno)
        yield line


def parse_events(source: str | bytes | Iterable[str], width: int, height: int) -> np.ndarray:
    """Parse AER text (one ``<t> <x> <y> <p>`` per line) into an event array.

    Polarity 0 is mapped to -1 on ingest. Lines starting with ``#`` and blank
    lines are skipped. Events are returned in file order, timestamps exact.
    The format is ASCII: a non-ASCII byte or character raises ``ParseError``
    with its line number.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("ascii")
        except UnicodeDecodeError as exc:
            line = len((source[: exc.start] + b"x").decode("ascii").splitlines())
            raise ParseError(f"non-ASCII byte {source[exc.start]:#04x}", line) from exc
    if isinstance(source, str):
        if not source.isascii():  # O(1) on an ASCII-only str
            start = next(i for i, ch in enumerate(source) if not ch.isascii())
            line = len((source[:start] + "x").splitlines())
            raise ParseError(f"non-ASCII character {source[start]!r}", line)
        lines = source.splitlines()
    else:
        lines = _ascii_lines(source)
    rows: list[tuple[int, int, int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        if len(parts) != 4 or "" in parts:
            raise ParseError(f"expected '<t> <x> <y> <p>', got {line!r}", lineno)
        t = _parse_timestamp_us(parts[0], lineno)
        if not parts[1].isdecimal() or not parts[2].isdecimal():
            raise ParseError(f"bad coordinates in {line!r}", lineno)
        x, y = int(parts[1]), int(parts[2])
        p = _POLARITY.get(parts[3])
        if p is None:
            raise ParseError(f"bad polarity {parts[3]!r}", lineno)
        if x >= width or y >= height:
            raise BoundsError(
                f"line {lineno}: event (x={x}, y={y}) outside {width}x{height} sensor"
            )
        rows.append((t, x, y, p))
    if not rows:
        return empty_events()
    return np.array(rows, dtype=np.int64)


def dump_events(events: np.ndarray) -> str:
    """Serialize an event array to AER text; inverse of :func:`parse_events`.

    Each event becomes one ``<t> <x> <y> <p>`` line, newline-terminated, with
    polarity written as ``1`` or ``-1``. Raises ``ValidationError`` for input
    that :func:`as_event_array` rejects, a negative t, x or y, or a polarity
    outside {-1, +1}, none of which ``parse_events`` reads back.
    """
    events = as_event_array(events)
    n = len(events)
    if n == 0:
        return ""
    if events[:, :COL_P].min() < 0:
        raise ValidationError("cannot write an event with a negative t, x or y")
    pol = events[:, COL_P]
    if not np.all((pol == 1) | (pol == -1)):
        raise ValidationError("cannot write a polarity outside {-1, +1}")
    # One row of right-aligned ASCII digits per event, NUL-padded to each
    # column's widest value; deleting the NULs leaves the text.
    top = [int(events[:, c].max()) for c in (COL_T, COL_X, COL_Y)]
    widths = [len(str(v)) for v in top]
    mat = np.zeros((n, sum(widths) + 6), dtype=np.uint8)  # + 3 spaces, sign, 1, newline
    end = 0
    for c, width, v in zip((COL_T, COL_X, COL_Y), widths, top):
        end += width
        rest = events[:, c].astype(np.min_scalar_type(v))  # narrow types divide faster
        for place in range(width):
            rest, digit = np.divmod(rest, 10)
            digit += ord("0")
            if place:
                digit *= shown  # NUL where the value has no digit at this place
            mat[:, end - 1 - place] = digit
            shown = rest > 0
        mat[:, end] = ord(" ")
        end += 1
    mat[:, end] = np.where(pol < 0, ord("-"), 0)
    mat[:, end + 1] = ord("1")
    mat[:, end + 2] = ord("\n")
    return mat.tobytes().translate(None, b"\0").decode("ascii")


@dataclass(frozen=True)
class EventWindow:
    """Events selected from the half-open interval [t_start, t_end)."""

    t_start_us: int
    t_end_us: int
    events: np.ndarray
    dropped: int

    def __post_init__(self):
        if self.t_start_us >= self.t_end_us:
            raise ValidationError(
                f"window start {self.t_start_us} must precede end {self.t_end_us}"
            )

    def __len__(self) -> int:
        return len(self.events)


def window_events(events: np.ndarray, t_start_us: int, t_end_us: int) -> EventWindow:
    """Select events with t_start <= t < t_end; out-of-window events are counted.

    The input must be time-sorted (nondecreasing t).
    """
    if t_start_us >= t_end_us:
        raise ValidationError(f"empty window [{t_start_us}, {t_end_us})")
    events = as_event_array(events)
    ts = events[:, COL_T]
    if len(ts) > 1 and np.any(np.diff(ts) < 0):
        raise OrderingError("events not sorted by timestamp")
    lo = int(np.searchsorted(ts, t_start_us, side="left"))
    hi = int(np.searchsorted(ts, t_end_us, side="left"))
    kept = events[lo:hi]
    return EventWindow(t_start_us, t_end_us, kept, dropped=len(events) - len(kept))


@dataclass(frozen=True)
class SceneSegment:
    """One activity phase of a synthetic scene: mean rate over a time span.

    ``region`` is (x, y, w, h); None means the full sensor.
    """

    t_start_us: int
    t_end_us: int
    rate_ev_s: float
    region: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic scene description for the event generator."""

    width: int
    height: int
    duration_us: int
    seed: int = 0
    segments: tuple[SceneSegment, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.duration_us <= 0:
            raise ValidationError("scene dimensions and duration must be positive")
        spans = []
        for seg in self.segments:
            if not 0 <= seg.rate_ev_s < math.inf:
                raise ValidationError(f"segment rate {seg.rate_ev_s} must be finite and >= 0")
            if not (0 <= seg.t_start_us < seg.t_end_us <= self.duration_us):
                raise ValidationError(
                    f"segment [{seg.t_start_us}, {seg.t_end_us}) outside scene duration"
                )
            x0, y0, w, h = seg.region if seg.region else (0, 0, self.width, self.height)
            if x0 < 0 or y0 < 0 or x0 + w > self.width or y0 + h > self.height:
                raise ValidationError("segment region outside the sensor")
            if w * h == 0 and seg.rate_ev_s > 0:
                raise ValidationError("zero-area region with positive rate")
            spans.append((seg.t_start_us, seg.t_end_us))
        spans.sort()
        for (_, e0), (s1, _) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ValidationError("segments overlap")


def generate_events(spec: SceneSpec) -> np.ndarray:
    """Generate a deterministic synthetic event stream for the scene.

    Each segment draws a Poisson event count with mean ``rate * duration``,
    then gives every event a uniform timestamp in the segment's span, a
    uniform pixel in its region and a polarity of +1 or -1 with equal
    chance. The stream is stably sorted by time; ``spec.seed`` fixes every
    draw.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    columns: list[list[np.ndarray]] = [[], [], [], []]  # each segment's t, x, y, p draws
    for seg in spec.segments:
        dur_us = seg.t_end_us - seg.t_start_us
        expected = seg.rate_ev_s * dur_us / US_PER_S
        n = int(rng.poisson(expected)) if expected > 0 else 0
        if n == 0:
            continue
        x0, y0, w, h = seg.region if seg.region else (0, 0, spec.width, spec.height)
        draws = (
            seg.t_start_us + rng.integers(0, dur_us, size=n, dtype=np.int64),
            x0 + rng.integers(0, w, size=n, dtype=np.int64),
            y0 + rng.integers(0, h, size=n, dtype=np.int64),
            rng.integers(0, 2, size=n, dtype=np.int64) * 2 - 1,
        )
        for column, draw in zip(columns, draws):
            column.append(draw)
    if not columns[COL_T]:
        return empty_events()
    order = _stable_time_order(np.concatenate(columns[COL_T]))
    events = np.empty((len(order), 4), dtype=np.int64)
    for c, column in enumerate(columns):
        events[:, c] = np.concatenate(column)[order]
    return events


def _stable_time_order(ts: np.ndarray) -> np.ndarray:
    """The permutation of ``np.argsort(ts, kind="stable")``, by LSD radix sort.

    Each pass stably sorts by one 16-bit digit of ``ts - ts.min()``, least
    significant first; numpy sorts uint16 keys stably by counting.
    """
    key = (ts - ts.min()).astype(np.uint64)
    top = int(key.max())
    order = np.argsort(key.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        digits = key[order]
        digits >>= np.uint64(shift)
        order = order[np.argsort(digits.astype(np.uint16), kind="stable")]
        shift += 16
    return order


def scene_to_dict(spec: SceneSpec) -> dict:
    return {
        "width": spec.width,
        "height": spec.height,
        "duration_us": spec.duration_us,
        "seed": spec.seed,
        "segments": [
            {
                "t_start_us": s.t_start_us,
                "t_end_us": s.t_end_us,
                "rate_ev_s": s.rate_ev_s,
                **({"region": list(s.region)} if s.region else {}),
            }
            for s in spec.segments
        ],
    }


def scene_from_dict(data: dict) -> SceneSpec:
    try:
        segments = tuple(
            SceneSegment(
                t_start_us=int(s["t_start_us"]),
                t_end_us=int(s["t_end_us"]),
                rate_ev_s=float(s["rate_ev_s"]),
                region=tuple(s["region"]) if "region" in s and s["region"] else None,
            )
            for s in data.get("segments", [])
        )
        return SceneSpec(
            width=int(data["width"]),
            height=int(data["height"]),
            duration_us=int(data["duration_us"]),
            seed=int(data.get("seed", 0)),
            segments=segments,
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad scene spec: {exc}") from exc
