"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import _load_bench_stages, build_parser, main
from repro.errors import ReproError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.loss_jam == 100.0
        assert args.jammer_mode == "max"

    def test_bad_jammer_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--jammer-mode", "sneaky"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])


class TestSolveCommand:
    def test_prints_policy(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "hop threshold" in out
        assert "V*(x)" in out
        for state in ("1", "2", "3", "TJ", "J"):
            assert state in out

    def test_random_mode(self, capsys):
        assert main(["solve", "--jammer-mode", "random"]) == 0
        assert "mode=random" in capsys.readouterr().out


class TestFigureCommand:
    def test_fig10(self, capsys):
        assert main(["figure", "10"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "Fig. 10" in out

    def test_fig2b(self, capsys):
        assert main(["figure", "2b"]) == 0
        out = capsys.readouterr().out
        assert "PER EmuBee" in out

    def test_fig9a(self, capsys):
        assert main(["figure", "9a"]) == 0
        out = capsys.readouterr().out
        assert "DQN" in out and "Polling" in out

    def test_fig11b_small(self, capsys):
        assert main(["figure", "11b", "--slots", "30"]) == 0
        assert "Jx slot" in capsys.readouterr().out

    def test_out_is_refused_for_figures_without_an_artifact(self, capsys, tmp_path):
        path = tmp_path / "fig10.json"
        assert main(["figure", "10", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert "--out" in captured.err
        assert captured.out == ""  # refused before any compute
        assert not path.exists()


class TestEmulateCommand:
    def test_emulates_hex(self, capsys):
        assert main(["emulate", "deadbeef"]) == 0
        out = capsys.readouterr().out
        assert "optimal alpha" in out
        assert "chip error rate" in out


class TestTrainCommand:
    def test_trains_and_saves(self, capsys, tmp_path):
        path = tmp_path / "weights.npz"
        code = main(
            [
                "train",
                "--episodes", "3",
                "--steps", "60",
                "--eval-slots", "300",
                "--save", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "S_T" in out
        assert path.exists()
        with np.load(path) as data:
            assert data["flat"].size == 10_960


class TestCalibrateCommand:
    def test_generate_check_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cal.json"
        code = main(
            [
                "calibrate",
                "--trials", "4",
                "--margins=-3,0,3",
                "--seed", "2",
                "--out", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corrected" in out
        assert path.exists()
        assert main(["calibrate", "--check", str(path)]) == 0
        assert "reproduced" in capsys.readouterr().out.lower()

    def test_check_rejects_tampered_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "cal.json"
        assert main(
            ["calibrate", "--trials", "4", "--margins=-3,0,3", "--out", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        payload["entries"][0]["corrected"] = [
            0.0 for _ in payload["entries"][0]["corrected"]
        ]
        path.write_text(json.dumps(payload))
        assert main(["calibrate", "--check", str(path)]) == 1

    def test_channel_flag_exported(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHANNEL", raising=False)
        args = build_parser().parse_args(["train", "--channel", "hybrid"])
        assert args.channel == "hybrid"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--channel", "exact"])


class TestBenchDiff:
    """``repro bench diff`` reads one number of seconds per stage."""

    def _artifact(self, tmp_path, stages, name="BENCH_x.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"stages": stages}))
        return path

    def test_well_formed_artifacts_pass(self, tmp_path):
        current = self._artifact(tmp_path, {"a": {"seconds": 1.0}})
        baseline = self._artifact(tmp_path, {"a": {"seconds": 0.9}}, "base.json")
        assert main(["bench", "diff", str(current), "--baseline", str(baseline)]) == 0

    @pytest.mark.parametrize(
        "stage",
        [1.5, {"seconds": "x"}, {"calls": 3}],
        ids=["bare-number", "non-numeric-seconds", "no-seconds"],
    )
    def test_malformed_stage_names_artifact_and_stage(self, tmp_path, stage):
        current = self._artifact(tmp_path, {"ok": {"seconds": 1.0}, "broken": stage})
        with pytest.raises(ReproError, match=r"BENCH_x\.json: stage 'broken'"):
            _load_bench_stages(current)
        baseline = self._artifact(tmp_path, {"ok": {"seconds": 1.0}}, "base.json")
        assert main(["bench", "diff", str(current), "--baseline", str(baseline)]) == 1
