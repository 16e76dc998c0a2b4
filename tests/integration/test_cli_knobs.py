"""CLI flags derived from the knob registry take each knob's own grammar."""

import os

import pytest

from repro import knobs
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def restore_flag_knobs(monkeypatch):
    # Blank every flagged knob, so a variable set outside the test run
    # cannot stand in for a flag (monkeypatch restores them afterwards).
    for knob in knobs.KNOBS.values():
        if knob.flag is not None:
            monkeypatch.setenv(knob.name, "")


@pytest.mark.parametrize("flag", ["--workers", "--shards"])
def test_field_scale_accepts_auto(capsys, flag):
    argv = ["field-scale", "--networks", "4", "--slots", "5", flag, "auto"]
    assert main(argv) == 0
    assert "net-slots/s" in capsys.readouterr().out


def test_field_scale_auto_shards_and_workers_together(capsys):
    argv = ["field-scale", "--networks", "4", "--slots", "5"]
    assert main(argv + ["--shards", "auto", "--workers", "auto"]) == 0
    assert "net-slots/s" in capsys.readouterr().out


def test_flags_take_knob_aliases_and_case():
    args = build_parser().parse_args(
        ["figure", "2b-wf", "--jammer-bank", "none", "--on-error", "RETRY"]
    )
    assert args.jammer_bank == "none"
    assert args.on_error == "RETRY"


@pytest.mark.parametrize(
    ("argv", "name"),
    [
        (["train", "--env-batch", "0"], "REPRO_ENV_BATCH"),
        (["serve", "--admission", "panic"], "REPRO_SERVE_ADMISSION"),
        (["figure", "adv", "--adversaries", "bogus"], "REPRO_ADVERSARIES"),
    ],
)
def test_bad_flag_is_a_usage_error_naming_the_knob(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert name in capsys.readouterr().err


def test_flags_are_exported_before_the_command_runs(monkeypatch):
    seen = {}

    def fake_train(args):
        seen.update(knobs.resolved())
        return 0

    monkeypatch.setattr("repro.cli.cmd_train", fake_train)
    assert main(["-q", "train", "--env-batch", "off", "--channel", "HYBRID"]) == 0
    assert seen["REPRO_ENV_BATCH"] == 1
    assert seen["REPRO_CHANNEL"] == "hybrid"


def test_second_main_does_not_inherit_the_first_calls_flags(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_ADVERSARIES")
    argv = ["-q", "figure", "adv", "--slots", "5", "--selfplay-episodes", "1"]
    assert main(argv + ["--adversaries", "sweep"]) == 0
    swept = capsys.readouterr().out
    assert "REPRO_ADVERSARIES" not in os.environ
    assert main(argv) == 0
    default = capsys.readouterr().out
    rows = {row.split("|")[0].strip() for row in default.splitlines() if "|" in row}
    assert {"sweep", "reactive", "follower"} <= rows
    assert default != swept


def test_main_restores_a_flagged_knobs_prior_value(monkeypatch):
    monkeypatch.setenv("REPRO_CHANNEL", "analytic")
    assert main(["-q", "figure", "10", "--channel", "hybrid"]) == 0
    assert os.environ["REPRO_CHANNEL"] == "analytic"
