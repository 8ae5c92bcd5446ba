from __future__ import annotations

import pytest

from hrbac import bench
from hrbac.errors import InsufficientMemory, TooFewRows, ValidationError

from conftest import MemoryBlobStore


def synthetic_rows(times):
    return [
        bench.BenchRow(size_bytes=(i + 1) * 1024, encrypt_ms=t, decrypt_ms=t * 0.9, repetitions=5)
        for i, t in enumerate(times)
    ]


class TestRunMatrix:
    def test_one_row_per_size(self):
        rows = bench.run_matrix([1024, 2048, 4096], repetitions=5)
        assert [r.size_bytes for r in rows] == [1024, 2048, 4096]
        for row in rows:
            assert row.repetitions == 5
            assert row.encrypt_ms > 0 and row.decrypt_ms > 0
            assert row.ratio > 0

    def test_single_size(self):
        rows = bench.run_matrix([4096], repetitions=5)
        assert len(rows) == 1

    def test_empty_size_list(self):
        assert bench.run_matrix([], repetitions=5) == []

    def test_sizes_must_ascend(self):
        with pytest.raises(ValidationError):
            bench.run_matrix([2048, 1024], repetitions=5)
        with pytest.raises(ValidationError):
            bench.run_matrix([1024, 1024], repetitions=5)

    def test_minimum_repetitions_enforced(self):
        with pytest.raises(ValidationError):
            bench.run_matrix([1024], repetitions=2)

    def test_oversize_request_refused(self):
        with pytest.raises(InsufficientMemory):
            bench.run_matrix([bench.MAX_PAYLOAD_BYTES + 1], repetitions=5)

    def test_no_store_io_inside_timed_region(self, monkeypatch):
        """Timed-region purity: the bench must never touch a store."""
        import hrbac.stores as stores

        def forbidden(*args, **kwargs):
            raise AssertionError("store touched during bench")

        for klass in (MemoryBlobStore, stores.FilesystemBlobStore, stores.RemoteBlobStore):
            monkeypatch.setattr(klass, "put_blob", forbidden)
            monkeypatch.setattr(klass, "get_blob", forbidden)
        monkeypatch.setattr(stores, "save_private", forbidden)
        bench.run_matrix([1024], repetitions=5)


class TestTrend:
    def test_proportional_times_pass(self):
        report = bench.assert_trend(synthetic_rows([1.0, 2.0, 3.0, 4.0]))
        assert report.increasing
        assert report.encrypt_slope_ms_per_byte > 0
        assert report.decrypt_slope_ms_per_byte > 0

    def test_flat_times_fail(self):
        report = bench.assert_trend(synthetic_rows([2.0, 2.0, 2.0, 2.0]))
        assert not report.increasing

    def test_decreasing_times_fail(self):
        assert not bench.assert_trend(synthetic_rows([4.0, 3.0, 2.0])).increasing

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            bench.assert_trend(synthetic_rows([1.0, 2.0]))

    def test_ratio_reported_not_asserted(self):
        # decrypt faster than encrypt and vice versa must both pass
        fast_decrypt = bench.assert_trend(synthetic_rows([1.0, 2.0, 3.0]))
        rows = [
            bench.BenchRow(size_bytes=s, encrypt_ms=t, decrypt_ms=t * 2, repetitions=5)
            for s, t in ((1024, 1.0), (2048, 2.0), (4096, 3.0))
        ]
        slow_decrypt = bench.assert_trend(rows)
        assert fast_decrypt.increasing and slow_decrypt.increasing
        assert fast_decrypt.mean_ratio > 1 > slow_decrypt.mean_ratio

    def test_real_small_run_has_positive_slopes(self):
        rows = bench.run_matrix([64 * 1024, 256 * 1024, 1024 * 1024], repetitions=5)
        assert bench.assert_trend(rows).increasing


class TestCsv:
    def test_header_and_rows(self):
        text = bench.to_csv(synthetic_rows([1.0, 2.0]))
        lines = text.strip().splitlines()
        assert lines[0] == "size_bytes,encrypt_ms,decrypt_ms,ratio"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1024"
        assert float(first[3]) == pytest.approx(1 / 0.9, rel=1e-3)
