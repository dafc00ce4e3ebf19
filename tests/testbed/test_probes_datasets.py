"""Probe scheduling (Section 4.1) and dataset specs (Table 3)."""

import numpy as np
import pytest

from repro.testbed.datasets import DATASETS, RON2003, RONNARROW, RONWIDE, dataset
from repro.testbed import probes
from repro.testbed.probes import generate_schedule


class TestSchedule:
    def test_gap_distribution(self, rng):
        s = generate_schedule(2, 1, 3600.0, rng)
        t0 = np.sort(s.t_send[s.src == 0])
        gaps = np.diff(t0)
        assert gaps.min() >= 0.6 - 1e-9
        assert gaps.max() <= 1.2 + 1e-9
        assert abs(gaps.mean() - 0.9) < 0.02

    def test_times_within_horizon(self, rng):
        s = generate_schedule(4, 3, 600.0, rng)
        assert s.t_send.min() >= 0.0
        assert s.t_send.max() < 600.0

    def test_destination_never_self(self, rng):
        s = generate_schedule(5, 2, 1200.0, rng)
        assert np.all(s.src != s.dst)

    def test_destinations_roughly_uniform(self, rng):
        s = generate_schedule(4, 1, 7200.0, rng)
        mask = s.src == 0
        counts = np.bincount(s.dst[mask], minlength=4)
        assert counts[0] == 0
        assert counts[1:].min() > 0.85 * counts[1:].max()

    def test_methods_cycled_evenly(self, rng):
        s = generate_schedule(3, 6, 3600.0, rng)
        counts = np.bincount(s.method_id, minlength=6)
        assert counts.min() > 0.95 * counts.max()

    def test_probe_ids_unique(self, rng):
        s = generate_schedule(3, 2, 3600.0, rng)
        assert len(np.unique(s.probe_id)) == len(s)

    def test_host_ids_emitted_at_int64(self, rng):
        # routing/path-id arithmetic consumes these directly; emitting
        # int64 here is what keeps collect() free of widening copies
        s = generate_schedule(4, 2, 600.0, rng)
        assert s.src.dtype == np.int64
        assert s.dst.dtype == np.int64

    def test_rows_grouped_by_source(self, rng):
        s = generate_schedule(5, 2, 900.0, rng)
        assert np.all(np.diff(s.src) >= 0)
        bounds = s.source_bounds(5)
        assert bounds[0] == 0 and bounds[-1] == len(s)
        for h in range(5):
            assert np.all(s.src[bounds[h] : bounds[h + 1]] == h)

    @pytest.mark.parametrize("block", [1, 1000, probes.SCHEDULE_BLOCK])
    def test_blocks_draw_host_by_host(self, monkeypatch, block):
        # each host's gaps, then its start phase, come off the stream in
        # host order whatever the block size; methods cycle from the host id
        monkeypatch.setattr(probes, "SCHEDULE_BLOCK", block)
        rng = np.random.default_rng(3)
        s = generate_schedule(5, 3, 600.0, np.random.default_rng(3))
        for h in range(5):
            gaps = rng.uniform(0.6, 1.2, int(600.0 / 0.9 * 1.05) + 8)
            t = np.cumsum(gaps) - gaps[0] * rng.random()
            t = t[t < 600.0]
            assert s.t_send[s.src == h].tobytes() == t.tobytes()
            assert np.array_equal(s.method_id[s.src == h], (np.arange(len(t)) + h) % 3)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            generate_schedule(1, 1, 100.0, rng)
        with pytest.raises(ValueError):
            generate_schedule(3, 0, 100.0, rng)
        with pytest.raises(ValueError):
            generate_schedule(3, 1, -5.0, rng)
        with pytest.raises(ValueError):
            generate_schedule(3, 1, 100.0, rng, gap_min_s=2.0, gap_max_s=1.0)


class TestDatasetSpecs:
    def test_table3_sample_counts(self):
        assert RONNARROW.paper_samples == 4_763_082
        assert RONWIDE.paper_samples == 2_875_431
        assert RON2003.paper_samples == 32_602_776

    def test_host_counts(self):
        assert len(RON2003.hosts()) == 30
        assert len(RONNARROW.hosts()) == 17
        assert len(RONWIDE.hosts()) == 17

    def test_modes(self):
        assert RON2003.mode == "oneway"
        assert RONNARROW.mode == "oneway"
        assert RONWIDE.mode == "rtt"  # Table 7 presents round-trip numbers

    def test_method_lists(self):
        assert len(RON2003.probe_methods) == 6
        assert len(RONNARROW.probe_methods) == 3
        assert len(RONWIDE.probe_methods) == 12

    def test_events_only_in_ron2003(self):
        cfg = RON2003.network_config(86400.0)
        assert len(cfg.major_events) == 2
        assert RON2003.network_config(86400.0, include_events=False).major_events == ()
        assert RONNARROW.network_config(86400.0).major_events == ()

    def test_lookup(self):
        assert dataset("ron2003") is RON2003
        assert dataset("RONwide") is RONWIDE
        with pytest.raises(KeyError):
            dataset("RON2024")
        assert set(DATASETS) == {"ron2003", "ronnarrow", "ronwide"}
