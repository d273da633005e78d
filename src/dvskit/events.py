"""Event-stream ingestion: AER text parsing, synthetic scenes, windowing.

Event streams are (N, 4) int64 arrays with columns (t, x, y, p):
timestamp in microseconds, pixel column, pixel row, polarity in {-1, +1}.
The column order matches the on-disk line format ``<t> <x> <y> <p>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import BoundsError, OrderingError, ParseError, ValidationError

COL_T, COL_X, COL_Y, COL_P = 0, 1, 2, 3

US_PER_S = 1_000_000


def empty_events() -> np.ndarray:
    return np.empty((0, 4), dtype=np.int64)


def as_event_array(events) -> np.ndarray:
    """Coerce a sequence of (t, x, y, p) rows into the canonical array form."""
    arr = np.asarray(events, dtype=np.int64)
    if arr.size == 0:
        return empty_events()
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValidationError(f"event array must have shape (n, 4), got {arr.shape}")
    return arr


def _parse_timestamp_us(token: str, line: int) -> int:
    """Parse a timestamp token to integer microseconds.

    Plain digits are microseconds. A decimal point marks seconds, scaled by
    exact string manipulation (no float round-trip); fractional digits past
    microsecond resolution are truncated.
    """
    if "." in token:
        whole, _, frac = token.partition(".")
        if not whole.isdigit() or not frac.isdigit():
            raise ParseError(f"bad timestamp {token!r}", line)
        frac = (frac + "000000")[:6]
        return int(whole) * US_PER_S + int(frac)
    if not token.isdigit():
        raise ParseError(f"bad timestamp {token!r}", line)
    return int(token)


_POLARITY = {"0": -1, "1": 1, "-1": -1, "+1": 1}


def parse_events(source: str | bytes | Iterable[str], width: int, height: int) -> np.ndarray:
    """Parse AER text (one ``<t> <x> <y> <p>`` per line) into an event array.

    Polarity 0 is mapped to -1 on ingest. Lines starting with ``#`` and blank
    lines are skipped. Events are returned in file order, timestamps exact.
    """
    if isinstance(source, bytes):
        source = source.decode("ascii")
    lines = source.splitlines() if isinstance(source, str) else source
    rows: list[tuple[int, int, int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        if len(parts) != 4 or "" in parts:
            raise ParseError(f"expected '<t> <x> <y> <p>', got {line!r}", lineno)
        t = _parse_timestamp_us(parts[0], lineno)
        if not parts[1].isdigit() or not parts[2].isdigit():
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


def read_events(path: str | Path, width: int, height: int) -> np.ndarray:
    return parse_events(Path(path).read_text(), width, height)


def dump_events(events: np.ndarray) -> str:
    """Serialize an event array to AER text; inverse of :func:`parse_events`."""
    events = as_event_array(events)
    lines = [f"{t} {x} {y} {p}" for t, x, y, p in events.tolist()]
    return "\n".join(lines) + ("\n" if lines else "")


def write_events(events: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(dump_events(events))


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
            if seg.rate_ev_s < 0:
                raise ValidationError("segment rate must be >= 0")
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
    chunks = []
    for seg in spec.segments:
        dur_us = seg.t_end_us - seg.t_start_us
        expected = seg.rate_ev_s * dur_us / US_PER_S
        n = int(rng.poisson(expected)) if expected > 0 else 0
        if n == 0:
            continue
        x0, y0, w, h = seg.region if seg.region else (0, 0, spec.width, spec.height)
        ts = seg.t_start_us + rng.integers(0, dur_us, size=n, dtype=np.int64)
        xs = x0 + rng.integers(0, w, size=n, dtype=np.int64)
        ys = y0 + rng.integers(0, h, size=n, dtype=np.int64)
        signs = rng.integers(0, 2, size=n, dtype=np.int64) * 2 - 1
        chunks.append(np.column_stack([ts, xs, ys, signs]))
    if not chunks:
        return empty_events()
    events = np.concatenate(chunks, axis=0)
    order = np.argsort(events[:, COL_T], kind="stable")
    return events[order]


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


def load_scene(path: str | Path) -> SceneSpec:
    return scene_from_dict(json.loads(Path(path).read_text()))
