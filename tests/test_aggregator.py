import gc
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dvskit.aggregator import Aggregator, AggregatorConfig, MergeMode
from dvskit.errors import CapacityError, ShapeError, ValidationError
from dvskit.frames import frame_mass, from_entries, merge_add
from oracles import ReferencePlacer, random_frame


def make_frame(t_ref, n_pixels, width=16, height=16, seed=None):
    """Frame with exactly n_pixels active pixels (one +1 count each)."""
    entries = [(i // width, i % width, "pos", 1) for i in range(n_pixels)]
    return from_entries(entries, width, height, t_ref_us=t_ref)


def config(**kwargs):
    defaults = dict(
        e_buf_size=8, mb_size=4, c_mode=MergeMode.ADD, mt_th_us=5000, md_th=0.5, iq_depth=4
    )
    defaults.update(kwargs)
    return AggregatorConfig(**defaults)


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            config(e_buf_size=7, mb_size=4)

    def test_mode_aliases(self):
        assert MergeMode.parse("cAdd") is MergeMode.ADD
        assert MergeMode.parse("cAverage") is MergeMode.AVERAGE
        assert MergeMode.parse("cBatch") is MergeMode.BATCH
        assert MergeMode.parse("average") is MergeMode.AVERAGE

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            MergeMode.parse("median")

    def test_from_dict_field_names(self):
        cfg = AggregatorConfig.from_dict(
            {
                "e_buf_size": 8,
                "mb_size": 2,
                "c_mode": "cAdd",
                "mt_th_us": 1000,
                "md_th": 0.25,
                "iq_depth": 3,
            }
        )
        assert cfg.n_buckets == 4

    def test_from_dict_bad_value_is_validation_error(self):
        fields = dict(e_buf_size=8, mb_size=2, c_mode="cAdd", mt_th_us=1000, md_th=0.25)
        for key, bad in [("e_buf_size", None), ("md_th", "dense"), ("iq_depth", [1])]:
            with pytest.raises(ValidationError):
                AggregatorConfig.from_dict({**fields, key: bad})


class TestAggregatorInput:
    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValidationError):
            Aggregator(config(), 16, 16, tasks=("a", "a"))

    @pytest.mark.parametrize("width,height", [(0, 16), (16, 0), (-4, 16)])
    def test_non_positive_dims_rejected(self, width, height):
        with pytest.raises(ValidationError):
            Aggregator(config(), width, height)


class TestPlacement:
    def test_time_condition_closes_bucket(self):
        agg = Aggregator(config(), 16, 16)
        agg.place(make_frame(1000, 4))
        report = agg.place(make_frame(7000, 4))  # 6000 > 5000
        assert report.bucket_index == 1
        assert 0 in report.newly_full
        assert agg.bucket_snapshot()[0] == (1, "FULL")

    def test_density_condition_within_threshold(self):
        # bucket density 10 px, incoming 12 px: |12-10|/10 = 0.2 <= 0.5
        agg = Aggregator(config(md_th=0.5), 16, 16)
        agg.place(make_frame(0, 10))
        report = agg.place(make_frame(100, 12))
        assert report.bucket_index == 0

    def test_density_condition_rejects(self):
        agg = Aggregator(config(md_th=0.5), 16, 16)
        agg.place(make_frame(0, 10))
        report = agg.place(make_frame(100, 16))  # |16-10|/10 = 0.6 > 0.5
        assert report.bucket_index == 1

    def test_empty_bucket_accepts_unconditionally(self):
        agg = Aggregator(config(md_th=0.0, mt_th_us=1), 16, 16)
        report = agg.place(make_frame(10**9, 200))
        assert report.bucket_index == 0

    def test_zero_density_bucket_rules(self):
        agg = Aggregator(config(), 16, 16)
        agg.place(make_frame(0, 0))  # empty frame in bucket 0
        assert agg.place(make_frame(10, 0)).bucket_index == 0
        assert agg.place(make_frame(20, 5)).bucket_index == 1

    def test_batch_mode_fresh_bucket_each(self):
        agg = Aggregator(config(c_mode="cBatch"), 16, 16)
        for i in range(2):
            report = agg.place(make_frame(i, 3))
            assert report.bucket_index == i
        assert all(occ == 1 for occ, _ in agg.bucket_snapshot()[:2])
        assert all(status == "FULL" for _, status in agg.bucket_snapshot()[:2])

    def test_bucket_full_at_mb_size(self):
        agg = Aggregator(config(md_th=10.0), 16, 16)
        for i in range(4):
            assert agg.place(make_frame(i, 4)).bucket_index == 0
        assert agg.bucket_snapshot()[0] == (4, "FULL")
        assert agg.place(make_frame(5, 4)).bucket_index == 1

    def test_capacity_error_when_everything_full(self):
        agg = Aggregator(config(e_buf_size=2, mb_size=1, c_mode="cBatch"), 16, 16)
        agg.place(make_frame(0, 1))
        agg.place(make_frame(1, 1))
        with pytest.raises(CapacityError):
            agg.place(make_frame(2, 1))

    def test_dims_mismatch_rejected(self):
        agg = Aggregator(config(), 16, 16)
        with pytest.raises(ShapeError):
            agg.place(make_frame(0, 1, width=8, height=8))

    def test_non_count_frame_rejected(self):
        agg = Aggregator(config(), 16, 16)
        half = from_entries([(0, 0, "pos", Fraction(1, 2)), (0, 1, "neg", Fraction(1, 2))], 16, 16)
        with pytest.raises(ValidationError):
            agg.place(half)
        assert agg.ingested_frames == 0 and agg.total_frames == 0


class TestFlush:
    def test_flush_empty_buffer_is_noop(self):
        agg = Aggregator(config(), 16, 16)
        assert agg.flush(0) == []
        assert agg.counters["task0"].dispatched_frames == 0

    def test_add_mode_merges(self):
        agg = Aggregator(config(md_th=10.0), 16, 16)
        a, b = make_frame(0, 3), make_frame(10, 4)
        agg.place(a)
        agg.place(b)
        out = agg.flush(20)
        assert len(out) == 1
        assert out[0].frame == merge_add([a, b])
        assert list(agg.queues["task0"]) == out

    def test_average_mode_divisor(self):
        agg = Aggregator(config(c_mode="cAverage", md_th=10.0), 16, 16)
        agg.place(make_frame(0, 2))
        agg.place(make_frame(10, 2))
        out = agg.flush(20)
        assert out[0].divisor == 2
        assert frame_mass(out[0].frame) * 2 == 4

    def test_fifo_discard_oldest(self):
        agg = Aggregator(config(e_buf_size=1, mb_size=1, iq_depth=2), 16, 16)
        dispatched = []
        for i in range(3):
            agg.place(make_frame(i, 1))
            dispatched += agg.flush(i)
        q = agg.queues["task0"]
        assert [d.frame.t_ref_us for d in q] == [1, 2]
        assert agg.counters["task0"].discarded_frames == 1

    def test_batch_singletons_at_flush(self):
        agg = Aggregator(config(c_mode="cBatch"), 16, 16)
        frames = [make_frame(i, 2) for i in range(2)]
        for f in frames:
            agg.place(f)
        out = agg.flush(10)
        assert [len(d.contrib_t_refs_us) for d in out] == [1, 1]
        assert [d.frame for d in out] == frames  # bit-equal passthrough

    def test_buckets_reset_after_flush(self):
        agg = Aggregator(config(), 16, 16)
        agg.place(make_frame(0, 1))
        agg.flush(0)
        assert agg.total_frames == 0
        assert all(status == "AVL" for _, status in agg.bucket_snapshot())

    def test_fanout_to_all_tasks(self):
        agg = Aggregator(config(), 16, 16, tasks=("a", "b"))
        agg.place(make_frame(0, 2))
        out = agg.flush(5)
        assert list(agg.queues["a"]) == out
        assert list(agg.queues["b"]) == out


class TestIdleDispatch:
    def test_idle_with_empty_buffer_noop(self):
        agg = Aggregator(config(), 16, 16)
        assert agg.on_hardware_idle(100) == []

    def test_idle_flushes_partial_bucket(self):
        agg = Aggregator(config(), 16, 16)
        agg.place(make_frame(0, 2))
        out = agg.on_hardware_idle(50)
        assert len(out) == 1
        assert agg.total_frames == 0


class TestBuildBatch:
    def test_drains_in_order(self):
        agg = Aggregator(config(e_buf_size=1, mb_size=1, iq_depth=None), 16, 16)
        frames = [make_frame(i, 1) for i in range(3)]
        for i, f in enumerate(frames):
            agg.place(f)
            agg.flush(i)
        batch = agg.build_batch("task0")
        assert len(batch) == 3
        assert [f for f in batch.frames] == frames
        assert not agg.queues["task0"]

    def test_empty_queue_rejected(self):
        agg = Aggregator(config(), 16, 16)
        with pytest.raises(ValidationError):
            agg.build_batch("task0")


class TestInvariantFuzz:
    @pytest.mark.parametrize("mode", ["cAdd", "cAverage", "cBatch"])
    def test_randomized_sequences(self, mode):
        rng = np.random.default_rng(hash(mode) % 2**32)
        for trial in range(150):
            cfg = config(
                e_buf_size=int(rng.integers(1, 5)) * int(rng.integers(1, 5)),
                mb_size=1,
                c_mode=mode,
                mt_th_us=int(rng.integers(1, 5000)),
                md_th=float(rng.random() * 2),
                iq_depth=int(rng.integers(1, 6)),
            )
            mb = int(rng.integers(1, 5))
            while cfg.e_buf_size % mb:
                mb = int(rng.integers(1, 5))
            cfg = config(
                e_buf_size=cfg.e_buf_size * mb,
                mb_size=mb,
                c_mode=mode,
                mt_th_us=cfg.mt_th_us,
                md_th=cfg.md_th,
                iq_depth=cfg.iq_depth,
            )
            agg = Aggregator(cfg, 12, 12, tasks=("t1", "t2"))
            t = 0
            consumed = {task: Fraction(0) for task in agg.tasks}
            for _ in range(int(rng.integers(1, 40))):
                t += int(rng.integers(0, 2000))
                frame, _ = random_frame(rng, 12, 12, max_entries=20, t_ref=t)
                try:
                    agg.place(frame)
                except CapacityError:
                    agg.flush(t)
                    agg.place(frame)
                if agg.needs_flush:
                    agg.flush(t)
                if rng.random() < 0.1:
                    agg.on_hardware_idle(t)
                if rng.random() < 0.1:
                    for task in agg.tasks:
                        if agg.queues[task]:
                            agg.build_batch(task)
                self._check_invariants(agg, cfg)
            # exact event accounting per task (mass restored via divisors)
            buffer_mass = agg.buffer_mass()
            for task in agg.tasks:
                c = agg.counters[task]
                queued = sum(
                    (frame_mass(d.frame) * d.divisor for d in agg.queues[task]),
                    Fraction(0),
                )
                assert (
                    agg.ingested_mass
                    == buffer_mass + queued + c.discarded_mass + c.consumed_mass
                )

    @staticmethod
    def _check_invariants(agg, cfg):
        assert agg.total_frames <= cfg.e_buf_size
        for occ, status in agg.bucket_snapshot():
            assert occ <= cfg.mb_size
            if occ == cfg.mb_size:
                assert status == "FULL"
        for bucket in agg._buckets:
            if bucket.frames:
                t_refs = [f.t_ref_us for f in bucket.frames]
                assert max(t_refs) - min(t_refs) <= cfg.mt_th_us
                if cfg.c_mode is MergeMode.BATCH:
                    assert len(bucket.frames) == 1
        for task in agg.tasks:
            if cfg.iq_depth is not None:
                assert len(agg.queues[task]) <= cfg.iq_depth
            # FIFO: dispatch timestamps nondecreasing along the queue
            times = [d.t_dispatch_us for d in agg.queues[task]]
            assert times == sorted(times)


class TestReferencePlacement:
    """Placements and flushed buckets equal the brute-force reference placer's."""

    @pytest.mark.parametrize("mode", ["cAdd", "cAverage", "cBatch"])
    def test_matches_reference_placer(self, mode):
        rng = np.random.default_rng(sum(map(ord, mode)))
        multi_frame_buckets = 0
        for _ in range(80):
            mb = int(rng.integers(1, 5))
            cfg = config(
                e_buf_size=mb * int(rng.integers(1, 4)),
                mb_size=mb,
                c_mode=mode,
                mt_th_us=int(rng.integers(1, 3000)),
                md_th=float(rng.random() * 1.5),
                iq_depth=None,
            )
            agg = Aggregator(cfg, 5, 4)
            capacity = 1 if mode == "cBatch" else mb
            ref = ReferencePlacer(cfg.n_buckets, capacity, cfg.mt_th_us, cfg.md_th)
            t = 0
            for _ in range(int(rng.integers(1, 40))):
                t += int(rng.integers(0, 1500))
                frame, _ = random_frame(rng, 5, 4, max_entries=12, t_ref=t)
                expected = ref.place(frame)
                if expected is None:
                    with pytest.raises(CapacityError):
                        agg.place(frame)
                    self._flush_both(agg, ref, t)
                    expected = ref.place(frame)
                report = agg.place(frame)
                assert (report.bucket_index, report.newly_full) == expected
                if agg.needs_flush or rng.random() < 0.15:
                    multi_frame_buckets += sum(len(b) > 1 for b in ref.buckets)
                    self._flush_both(agg, ref, t)
        if mode != "cBatch":
            assert multi_frame_buckets > 50  # the density rule saw held unions

    @staticmethod
    def _flush_both(agg, ref, t):
        assert [d.contrib_t_refs_us for d in agg.flush(t)] == ref.flush()


def test_memory_bounded_over_many_cycles():
    """A long stream of place -> idle flush -> build_batch holds no growing state."""
    frames = [make_frame(0, n) for n in range(1, 8)]

    def cycles(agg, n):
        for i in range(n):
            agg.place(frames[i % len(frames)])
            agg.on_hardware_idle(i * 100)
            agg.build_batch("task0")

    def traced_bytes():
        gc.collect()  # a full collection also empties the interpreter's free lists
        return tracemalloc.get_traced_memory()[0]

    cycles(Aggregator(config(iq_depth=2), 16, 16), 200)  # one-time numpy and dataclass caches
    agg = Aggregator(config(iq_depth=2), 16, 16)
    tracemalloc.start()
    try:
        cycles(agg, 50)
        before = traced_bytes()
        cycles(agg, 500)
        growth = traced_bytes() - before
    finally:
        tracemalloc.stop()
    # about 50 bytes per cycle would be one retained int and list slot per flush
    assert growth < 15_000, f"{growth} bytes retained over 500 cycles"


def test_determinism_same_trajectory():
    def run():
        agg = Aggregator(config(md_th=1.0), 16, 16)
        rng = np.random.default_rng(99)
        log = []
        for i in range(60):
            frame, _ = random_frame(rng, 16, 16, max_entries=15, t_ref=i * 700)
            try:
                r = agg.place(frame)
            except CapacityError:
                agg.flush(i * 700)
                r = agg.place(frame)
            log.append((r.bucket_index, r.newly_full))
            if agg.needs_flush:
                log.append(tuple(d.frame.t_ref_us for d in agg.flush(i * 700)))
        return log

    assert run() == run()
