"""Trace records, persistence and the Section 4.1 filters."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.trace import (
    Trace,
    TraceMeta,
    apply_standard_filters,
    detect_host_failures,
    drop_excluded,
    load_trace,
    receive_window_filter,
    save_trace,
)
from repro.trace.records import probe_order
from repro.trace.store import StreamingMerge, open_stored


def make_trace(n=10, mode="oneway", seed=0) -> Trace:
    rng = np.random.default_rng(seed)
    meta = TraceMeta(
        dataset="TEST",
        mode=mode,
        horizon_s=1000.0,
        seed=seed,
        host_names=("A", "B", "C"),
        method_names=("direct", "direct_rand"),
    )
    lost1 = rng.random(n) < 0.3
    lost2 = rng.random(n) < 0.3
    return Trace(
        meta=meta,
        probe_id=rng.integers(0, 2**63, n, dtype=np.uint64),
        method_id=(np.arange(n) % 2).astype(np.int16),
        src=np.zeros(n, dtype=np.int16),
        dst=np.ones(n, dtype=np.int16),
        t_send=np.sort(rng.uniform(0, 1000, n)),
        relay1=np.full(n, -1, dtype=np.int16),
        relay2=np.where(np.arange(n) % 2 == 1, 2, -1).astype(np.int16),
        lost1=lost1,
        lost2=lost2 & (np.arange(n) % 2 == 1),
        latency1=np.where(lost1, np.nan, 0.05).astype(np.float32),
        latency2=np.where(lost2, np.nan, 0.08).astype(np.float32),
        excluded=np.zeros(n, dtype=bool),
    )


class TestTrace:
    def test_length_validation(self):
        t = make_trace()
        with pytest.raises(ValueError):
            Trace(
                meta=t.meta,
                probe_id=t.probe_id,
                method_id=t.method_id[:-1],  # wrong length
                src=t.src,
                dst=t.dst,
                t_send=t.t_send,
                relay1=t.relay1,
                relay2=t.relay2,
                lost1=t.lost1,
                lost2=t.lost2,
                latency1=t.latency1,
                latency2=t.latency2,
                excluded=t.excluded,
            )

    def test_has_second_follows_method(self):
        t = make_trace(8)
        np.testing.assert_array_equal(t.has_second, np.arange(8) % 2 == 1)

    def test_method_mask(self):
        t = make_trace(8)
        assert t.method_mask("direct").sum() == 4
        with pytest.raises(KeyError):
            t.method_mask("warp")

    def test_select(self):
        t = make_trace(10)
        sub = t.select(t.method_id == 0)
        assert len(sub) == 5
        assert sub.meta == t.meta

    def test_records_view(self):
        t = make_trace(4)
        recs = list(t.records())
        assert len(recs) == 4
        assert recs[0].src == "A" and recs[0].dst == "B"
        assert recs[1].relay2 == "C"
        assert recs[0].relay1 is None  # direct

    def test_concatenate_sorts_by_probe_id(self):
        t = make_trace(10)
        a = t.select(np.arange(10) >= 5)
        b = t.select(np.arange(10) < 5)
        merged = Trace.concatenate([a, b])
        assert np.all(np.diff(merged.probe_id.astype(np.int64)) >= 0)
        assert len(merged) == 10

    def test_concatenate_is_shard_invariant(self):
        # any partition of the rows merges back to the same canonical order
        t = Trace.concatenate([make_trace(12)])
        thirds = [t.select(np.arange(12) % 3 == k) for k in range(3)]
        halves = [t.select(np.arange(12) < 6), t.select(np.arange(12) >= 6)]
        for parts in (thirds, halves):
            merged = Trace.concatenate(parts)
            np.testing.assert_array_equal(merged.probe_id, t.probe_id)
            np.testing.assert_array_equal(merged.t_send, t.t_send)

    @pytest.mark.parametrize("high", [2**63, 5])
    def test_probe_order_is_the_stable_argsort(self, high):
        # distinct ids take the fast sort; ties fall back to the stable one
        ids = np.random.default_rng(0).integers(0, high, 3000, dtype=np.uint64)
        want = np.argsort(ids, kind="stable")
        assert np.array_equal(probe_order(ids), want)

    def test_concatenate_rejects_mixed_meta(self):
        with pytest.raises(ValueError, match="mode"):
            Trace.concatenate([make_trace(2, seed=0), make_trace(2, mode="rtt")])
        with pytest.raises(ValueError, match="seed"):
            Trace.concatenate([make_trace(2, seed=0), make_trace(2, seed=1)])

    def test_meta_validation(self):
        with pytest.raises(ValueError):
            TraceMeta("x", "sideways", 10.0, 0, ("A",), ("direct",))
        with pytest.raises(ValueError):
            TraceMeta("x", "oneway", -1.0, 0, ("A",), ("direct",))


class TestStore:
    def test_roundtrip(self, tmp_path):
        t = make_trace(32)
        path = save_trace(t, tmp_path / "trace")
        assert path.suffix == ".npz"
        back = load_trace(path)
        assert back.meta == t.meta
        for name in Trace.ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(back, name), getattr(t, name), err_msg=name
            )

    def test_load_without_suffix(self, tmp_path):
        t = make_trace(4)
        save_trace(t, tmp_path / "trace")
        back = load_trace(tmp_path / "trace")
        assert len(back) == 4

    def test_roundtrip_preserves_meta_equality(self, tmp_path):
        for mode in ("oneway", "rtt"):
            t = make_trace(8, mode=mode, seed=3)
            back = load_trace(save_trace(t, tmp_path / f"trace_{mode}"))
            assert back.meta == t.meta
            assert isinstance(back.meta.host_names, tuple)
            assert isinstance(back.meta.method_names, tuple)

    def test_roundtrip_preserves_nan_latencies(self, tmp_path):
        t = make_trace(64, seed=7)
        assert t.lost1.any(), "fixture should contain losses"
        back = load_trace(save_trace(t, tmp_path / "trace"))
        # lost packets stay NaN, delivered packets stay finite
        np.testing.assert_array_equal(np.isnan(back.latency1), t.lost1)
        np.testing.assert_array_equal(
            back.latency1[~t.lost1], t.latency1[~t.lost1]
        )
        assert back.latency1.dtype == t.latency1.dtype

    def test_roundtrip_preserves_extra_metadata(self, tmp_path):
        t = make_trace(4)
        t.extra["note"] = "calibration-7"
        t.extra["threshold"] = 0.25
        back = load_trace(save_trace(t, tmp_path / "trace"))
        assert back.extra == {"note": "calibration-7", "threshold": 0.25}

    def test_roundtrip_preserves_dtypes_and_values_exactly(self, tmp_path):
        t = make_trace(32, mode="rtt", seed=11)
        back = load_trace(save_trace(t, tmp_path / "trace"))
        for name in Trace.ARRAY_FIELDS:
            a, b = getattr(t, name), getattr(back, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize(
        "name", ["run.v2", "exp.2026.07", "run.v2.npz", "run.", "v1.0-final"]
    )
    def test_dotted_run_names_round_trip(self, tmp_path, name):
        # regression: suffix normalisation must append to the *name*, not
        # replace the last dot segment, so dotted run names survive
        t = make_trace(6, seed=2)
        written = save_trace(t, tmp_path / name)
        expected = name if name.endswith(".npz") else name + ".npz"
        assert written.name == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == [expected]
        back = load_trace(tmp_path / name)  # suffix-less lookup still works
        np.testing.assert_array_equal(back.probe_id, t.probe_id)

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        # a write that dies midway must not leave a truncated file at
        # the final path (nor its temporary) for a live reader to find
        def torn_write(file, **arrays):
            if isinstance(file, (str, os.PathLike)):
                Path(file).write_bytes(b"PK\x03\x04 torn")
            else:
                file.write(b"PK\x03\x04 torn")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", torn_write)
        with pytest.raises(OSError, match="disk full"):
            save_trace(make_trace(3), tmp_path / "shard-00000-00003")
        assert list(tmp_path.iterdir()) == []

    def test_save_never_double_appends(self, tmp_path):
        t = make_trace(3)
        first = save_trace(t, tmp_path / "run.v2")
        second = save_trace(t, first)  # re-saving the returned path
        assert second == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2.npz"]


def stored_merge(parts, paths, out_dir) -> Trace:
    """Merge spilled parts through :class:`StreamingMerge` into
    memory-mapped columns under ``out_dir``, in reverse part order."""
    offsets = np.concatenate([[0], np.cumsum([len(t) for t in parts])])
    pids = np.concatenate([t.probe_id for t in parts])
    merge = StreamingMerge(parts[0].meta, pids, offsets, out_dir=out_dir)
    for j in reversed(range(len(paths))):
        merge.add(j, paths[j])
    return merge.finalize()


class TestConcatenateStored:
    """Spilled parts merged into a memory-mapped store."""

    def shards(self, tmp_path, n=30, parts=3):
        t = Trace.concatenate([make_trace(n, seed=5)])
        split = [t.select(np.arange(n) % parts == k) for k in range(parts)]
        paths = [save_trace(s, tmp_path / f"shard-{k}") for k, s in enumerate(split)]
        return t, split, paths

    def test_streamed_merge_is_bitwise_identical(self, tmp_path):
        t, split, paths = self.shards(tmp_path)
        in_ram = Trace.concatenate(split)
        streamed = stored_merge(split, paths, tmp_path / "merged")
        assert streamed.meta == in_ram.meta
        for name in Trace.ARRAY_FIELDS:
            a, b = getattr(in_ram, name), getattr(streamed, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        np.testing.assert_array_equal(streamed.probe_id, t.probe_id)

    def test_merged_columns_are_readonly_memmaps(self, tmp_path):
        _, split, paths = self.shards(tmp_path)
        streamed = stored_merge(split, paths, tmp_path / "merged")
        assert isinstance(streamed.src, np.memmap)
        assert not streamed.src.flags.writeable
        merged_dir = tmp_path / "merged"
        assert sorted(p.name for p in merged_dir.iterdir()) == sorted(
            [f"{name}.npy" for name in Trace.ARRAY_FIELDS] + ["__meta__.json"]
        )

    def test_open_stored_reopens_merged_store(self, tmp_path):
        _, split, paths = self.shards(tmp_path)
        streamed = stored_merge(split, paths, tmp_path / "merged")
        reopened = open_stored(tmp_path / "merged")
        assert reopened.meta == streamed.meta
        assert not reopened.src.flags.writeable
        for name in Trace.ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(reopened, name), getattr(streamed, name), err_msg=name
            )

    def test_open_stored_requires_meta(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="__meta__.json"):
            open_stored(tmp_path)

    def test_stored_merge_rejects_mixed_runs(self, tmp_path):
        a, b = make_trace(4, seed=0), make_trace(4, seed=1)
        merge = StreamingMerge(
            a.meta, np.concatenate([a.probe_id, b.probe_id]), [0, 4, 8], out_dir=tmp_path
        )
        merge.add(0, save_trace(a, tmp_path / "a"))
        with pytest.raises(ValueError, match="seed"):
            merge.add(1, save_trace(b, tmp_path / "b"))

    def test_zero_paths_rejected(self):
        t = make_trace(2)
        with pytest.raises(ValueError, match="n_parts"):
            StreamingMerge(t.meta, np.zeros(0, dtype=np.uint64), [0])


class TestFilters:
    def test_drop_excluded(self):
        t = make_trace(10)
        t.excluded[:3] = True
        assert len(drop_excluded(t)) == 7

    def test_receive_window_turns_late_into_lost(self):
        t = make_trace(10)
        t.lost1[:] = False
        t.latency1[:] = 2.0
        t.latency1[0] = 4000.0  # beyond the 1-hour window
        out = receive_window_filter(t)
        assert out.lost1[0] and not out.lost1[1:].any()
        assert np.isnan(out.latency1[0])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            receive_window_filter(make_trace(2), window_s=0.0)

    def test_standard_pipeline_composes(self):
        t = make_trace(10)
        t.excluded[0] = True
        out = apply_standard_filters(t)
        assert len(out) == 9

    def test_detect_host_failures_finds_gap(self):
        t = make_trace(50)
        # silence host 0 between t=400 and t=600
        keep = ~((t.t_send > 400) & (t.t_send < 600))
        t = t.select(keep)
        failures = detect_host_failures(t, gap_s=90.0)
        assert any(
            host == 0 and start < 450 and end > 550 for host, start, end in failures
        )

    def test_detect_no_failures_when_chatty(self):
        t = make_trace(200)
        t.t_send = np.linspace(0, 1000, 200)
        assert detect_host_failures(t, gap_s=90.0) == []
