"""REPRO_DEBUG_CHECKS: canonical-order assertions at merge boundaries."""

import numpy as np
import pytest

from repro.trace import Trace, save_trace
from repro.trace.records import debug_checks_enabled
from repro.trace.store import StreamingMerge

from .test_trace import make_trace


def scrambled(n=10, seed=0) -> Trace:
    """A trace whose rows are deliberately NOT in probe_id order."""
    t = make_trace(n, seed=seed)
    order = np.argsort(t.probe_id, kind="stable")[::-1]
    return t.select(order)


class TestAssertCanonicalOrder:
    def test_sorted_trace_passes_and_chains(self):
        t = make_trace(12)
        sorted_t = t.select(np.argsort(t.probe_id, kind="stable"))
        assert sorted_t.assert_canonical_order() is sorted_t

    def test_scrambled_trace_raises_with_row_numbers(self):
        with pytest.raises(AssertionError, match=r"row \d+ has probe_id"):
            scrambled().assert_canonical_order()

    def test_context_appears_in_message(self):
        with pytest.raises(AssertionError, match="shard-merge"):
            scrambled().assert_canonical_order("shard-merge")

    def test_empty_and_singleton_pass(self):
        t = make_trace(2)
        assert len(t.select(np.zeros(0, dtype=np.int64))) == 0
        t.select(np.zeros(0, dtype=np.int64)).assert_canonical_order()
        t.select(np.array([0])).assert_canonical_order()

    def test_duplicate_probe_ids_pass(self):
        # non-decreasing, not strictly increasing: duplicates are legal
        t = make_trace(4)
        t = t.select(np.argsort(t.probe_id, kind="stable"))
        dup = t.select(np.array([0, 0, 1, 2, 3]))
        dup.assert_canonical_order()


class TestDebugChecksFlag:
    def test_flag_parsing(self, monkeypatch):
        for value, expected in (
            (None, False),
            ("", False),
            ("0", False),
            ("1", True),
            ("yes", True),
        ):
            if value is None:
                monkeypatch.delenv("REPRO_DEBUG_CHECKS", raising=False)
            else:
                monkeypatch.setenv("REPRO_DEBUG_CHECKS", value)
            assert debug_checks_enabled() is expected

    def test_concatenate_checks_under_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
        parts = [make_trace(6), make_trace(6)]
        merged = Trace.concatenate(parts)  # sorted merge passes the check
        assert np.all(merged.probe_id[1:] >= merged.probe_id[:-1])

    def test_streaming_merge_checks_under_flag(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
        parts = [make_trace(5), make_trace(5)]
        paths = [save_trace(t, tmp_path / name) for t, name in zip(parts, "ab")]
        pids = np.concatenate([t.probe_id for t in parts])
        merge = StreamingMerge(parts[0].meta, pids, [0, 5, 10], out_dir=tmp_path / "merged")
        for j, path in enumerate(paths):
            merge.add(j, path)
        merged = merge.finalize()  # sorted merge passes the check
        assert np.all(merged.probe_id[1:] >= merged.probe_id[:-1])

    def test_broken_streaming_merge_is_caught(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
        t = make_trace(6)
        monkeypatch.setattr(np, "argsort", lambda a, kind=None: np.arange(len(a))[::-1])
        merge = StreamingMerge(t.meta, t.probe_id, [0, 6])
        merge.add(0, t)
        with pytest.raises(AssertionError, match="StreamingMerge"):
            merge.finalize()

    def test_broken_merge_is_caught(self, monkeypatch):
        """If a merge kernel regressed, the flag turns it into a crash."""
        monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
        monkeypatch.setattr(np, "argsort", lambda a, kind=None: np.arange(len(a))[::-1])
        with pytest.raises(AssertionError, match="Trace.concatenate"):
            Trace.concatenate([make_trace(6), make_trace(6)])
