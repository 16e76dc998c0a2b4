"""Tests for the opt-in cProfile stage hook."""

import pstats

from repro.exec import timing
from repro.obs import profile


class TestProfileHook:
    def test_off_by_default(self, tmp_path):
        with profile.maybe_profile("stage", directory=tmp_path) as prof:
            assert prof is None
        assert list(tmp_path.iterdir()) == []

    def test_falsy_values(self, monkeypatch):
        for value in ("", "0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_PROFILE", value)
            assert not profile.profiling_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profile.profiling_enabled()

    def test_dumps_pstats(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        with profile.maybe_profile("my stage/x", directory=tmp_path):
            sum(range(1000))
        out = tmp_path / "PROF_my_stage_x.pstats"
        assert out.exists()
        stats = pstats.Stats(str(out))  # parseable by the pstats module
        assert stats.total_calls >= 1

    def test_no_nesting(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        with profile.maybe_profile("outer", directory=tmp_path):
            with profile.maybe_profile("inner", directory=tmp_path) as inner:
                assert inner is None
        assert (tmp_path / "PROF_outer.pstats").exists()
        assert not (tmp_path / "PROF_inner.pstats").exists()

    def test_timing_stage_profiles(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        reg = timing.TimingRegistry()
        with reg.stage("timed"):
            pass
        assert (tmp_path / "PROF_timed.pstats").exists()
