"""The paper's figures, one row each: how to compute, print and check them.

:data:`FIGURES` holds one frozen :class:`Figure` per figure ``repro
figure`` regenerates: its CLI names, its compute call, the title,
columns and row formatter of its table, and its claims. Three readers
use it: ``repro figure NAME`` prints a row at the command's flags,
``benchmarks/bench_figures.py`` times each claimed row at the full budget
and checks its claims, and ``tests/claims`` checks every claim at the
tier-1 budget.

A :class:`Claim` is one line of what the paper reports plus a predicate
over the row's computed data. An ``open`` claim is a known deviation: its
text carries the paper's and the measured value, and it is expected not
to hold, so its readers fail once the reproduction meets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from repro import knobs
from repro.analysis import figures
from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.core.mdp import JammerMode
from repro.obs import log as obs_log

log = obs_log.get_logger("figures")


@dataclass(frozen=True)
class Budget:
    """What one computation of a figure spends, and the seed it runs.

    The defaults are what ``repro figure NAME`` runs without flags;
    :data:`PAPER_BUDGET` is the budget the claims are stated at.
    """

    sweep_slots: int = 5000  # Figs. 6-8: evaluation slots per sweep point
    field_slots: int = 5000  # Figs. 11(a)/(b), adv: slots per field experiment
    dqn_episodes: int = 0  # Fig. 11 RL FH agent training; 0 runs the exact optimum
    waveform_trials: int = 32  # Fig. 2(b) validation: trials per point and signal
    goodput_slots: int = 40  # Fig. 10: slots averaged per Tx slot duration
    selfplay_episodes: int = 8  # adv: self-play budget of the learning jammer
    sweep_strategy: str = "random"  # jammer search order for Figs. 11(a)/(b), adv
    seed: int = 0


#: The paper's budgets: 20 000 slots per sweep point, 600 field slots and
#: a DQN trained for 100 episodes (paper §IV-B).
PAPER_BUDGET = Budget(
    sweep_slots=20_000,
    field_slots=600,
    dqn_episodes=100,
    waveform_trials=24,
    goodput_slots=100,
)


@dataclass(frozen=True)
class Claim:
    """One thing the paper reports, as a predicate over computed data."""

    text: str
    holds: Callable[[Any], bool]
    open: bool = False  # a known deviation: expected not to hold


@dataclass(frozen=True)
class Figure:
    """One figure: its names, its computation, its table and its claims.

    ``parts`` splits a multi-table figure into ``(label, data)`` pieces;
    the title and columns are then formatted with each label.
    """

    names: tuple[str, ...]
    compute: Callable[[Budget], Any]
    title: str
    columns: tuple[str, ...]
    rows: Callable[[Any], list]
    digits: int = 3
    parts: Callable[[Any], list] | None = None
    claims: tuple[Claim, ...] = ()

    @property
    def key(self) -> str:
        """File-name form of the names: ``fig2b_wf``, ``fig6_7_8``."""
        return "fig" + "_".join(self.names).replace("-", "_")

    def render(self, data) -> str:
        """The figure's table text; a multi-table figure ends each in a blank line."""
        if self.parts is None:
            return render_table(
                self.columns, self.rows(data), title=self.title, digits=self.digits
            )
        tables = [
            render_table(
                [column.format(*label) for column in self.columns],
                self.rows(part),
                title=self.title.format(*label),
                digits=self.digits,
            )
            for label, part in self.parts(data)
        ]
        return "\n".join(table + "\n" for table in tables)


# ---------------------------------------------------------------------------
# Compute calls that do more than call one generator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=2)
def _fig11_agent(episodes: int, seed: int):
    """The RL FH agent, trained once per budget for Figs. 11(a) and 11(b)."""
    if not episodes:
        return None
    log.info("training the RL FH agent", episodes=episodes)
    return figures.train_fig11_agent(episodes=episodes, seed=seed)


def _fig11(generator, budget: Budget):
    return generator(
        agent=_fig11_agent(budget.dqn_episodes, budget.seed),
        slots=budget.field_slots,
        seed=budget.seed,
        sweep_strategy=budget.sweep_strategy,
    )


def _adv(budget: Budget):
    adversaries = knobs.get("REPRO_ADVERSARIES")
    if "learning" in adversaries:
        log.info(
            "training the learning jammer via self-play",
            episodes=budget.selfplay_episodes,
        )
    return figures.adversary_scheme_comparison(
        adversaries=adversaries,
        slots=budget.field_slots,
        seed=budget.seed,
        selfplay_episodes=budget.selfplay_episodes,
        sweep_strategy=budget.sweep_strategy,
    )


# ---------------------------------------------------------------------------
# Claims: plain predicates over each row's computed data
# ---------------------------------------------------------------------------

_SIGNALS = ("EmuBee", "WiFi", "ZigBee")

#: Table I metric -> :class:`~repro.core.metrics.MetricSummary` field.
_METRICS = {
    "S_T": "success_rate",
    "A_H": "fh_adoption_rate",
    "S_H": "fh_success_rate",
    "A_P": "pc_adoption_rate",
    "S_P": "pc_success_rate",
}


def _falls(values, slack: float) -> bool:
    return all(a >= b - slack for a, b in zip(values, values[1:]))


def _rises(values, slack: float) -> bool:
    return all(a <= b + slack for a, b in zip(values, values[1:]))


def _at_distance(rows, distance_m: float):
    """The Fig. 2(b) row at ``distance_m``."""
    return next(r for r in rows if r.distance_m == distance_m)


def _at_margin(rows, margin_db: float):
    """The Fig. 2(b) validation row at jam/signal ratio ``margin_db``."""
    return next(r for r in rows if r.jam_to_signal_db == margin_db)


def _ys(d, mode: str, sweep: str, metric: str) -> list[float]:
    """One sweep's values of a Table I metric, in x order, from Figs. 6-8 data."""
    return [getattr(p.metrics, _METRICS[metric]) for p in d[mode][sweep]]


def _at(d, mode: str, sweep: str, metric: str, x: float) -> float:
    """A Table I metric at sweep point ``x`` of Figs. 6-8 data."""
    point = next(p for p in d[mode][sweep] if p.x == x)
    return getattr(point.metrics, _METRICS[metric])


def _fh_beats_pc(d) -> bool:
    metrics = [p.metrics for p in d["max"]["loss_jam"]]
    adopted = [m for m in metrics if m.fh_adoption_rate > 0]
    return all(m.fh_success_rate >= m.pc_success_rate for m in adopted)


def _ap_random_beats_max(d) -> bool:
    xs = [p.x for p in d["random"]["loss_jam"]]
    wins = sum(
        _at(d, "random", "loss_jam", "A_P", x) >= _at(d, "max", "loss_jam", "A_P", x)
        for x in xs
    )
    return wins >= 0.7 * len(xs)


def _sh_falls_where_nonzero(d) -> bool:
    active = [y for y in _ys(d, "max", "sweep_cycle", "S_H") if y > 0]
    return active[0] > active[-1]


def _mean(samples, name: str) -> float:
    return float(np.mean(samples[name]))


def _goodput(results, scheme: str) -> float:
    return results[scheme]["goodput"]


def _ratio(top: str, bottom: str, low: float, high: float):
    return lambda res: low < _goodput(res, top) / _goodput(res, bottom) < high


# fmt: off
_FIG2B = (
    Claim("PER falls with jamming distance for every signal",
          lambda rows: all(_falls([r.per[s] for r in rows], 1e-6) for s in _SIGNALS)),
    Claim("throughput rises with jamming distance for every signal",
          lambda rows: all(_rises([r.throughput_kbps[s] for r in rows], 1e-6)
                           for s in _SIGNALS)),
    Claim("PER ranks EmuBee >= ZigBee >= WiFi at every distance >= 8 m",
          lambda rows: all(r.per["EmuBee"] >= r.per["ZigBee"] >= r.per["WiFi"]
                           for r in rows if r.distance_m >= 8)),
    Claim("EmuBee is still lethal at 11 m: PER > 50 %",
          lambda rows: _at_distance(rows, 11.0).per["EmuBee"] > 50.0),
    Claim("raw Wi-Fi jamming is long dead at 11 m: PER < 20 %",
          lambda rows: _at_distance(rows, 11.0).per["WiFi"] < 20.0),
)

_FIG2B_WF = (
    Claim("at 0 dB J/S correlated ZigBee chips flip > 10 % of chips",
          lambda rows: _at_margin(rows, 0.0).measured["ZigBee"] > 0.1),
    Claim("at 0 dB J/S noise-like Wi-Fi flips < 3 % (DSSS processing gain)",
          lambda rows: _at_margin(rows, 0.0).measured["WiFi"] < 0.03),
    Claim("at 0 dB J/S Wi-Fi flips fewer chips than ZigBee",
          lambda rows: _at_margin(rows, 0.0).measured["WiFi"]
          < _at_margin(rows, 0.0).measured["ZigBee"]),
    Claim("at 0 dB J/S the chip-flip model tracks measured ZigBee within 0.12",
          lambda rows: abs(_at_margin(rows, 0.0).measured["ZigBee"]
                           - _at_margin(rows, 0.0).predicted["ZigBee"]) < 0.12),
    Claim("ZigBee and EmuBee chip damage grows with jammer power",
          lambda rows: all(_rises([r.measured[s] for r in rows], 1e-9)
                           for s in ("ZigBee", "EmuBee"))),
    Claim("at +6 dB J/S EmuBee flips fewer chips than ZigBee (emulation penalty)",
          lambda rows: _at_margin(rows, 6.0).measured["EmuBee"]
          < _at_margin(rows, 6.0).measured["ZigBee"]),
    Claim("at +6 dB J/S EmuBee flips more chips than Wi-Fi",
          lambda rows: _at_margin(rows, 6.0).measured["EmuBee"]
          > _at_margin(rows, 6.0).measured["WiFi"]),
)

_FIG6_7_8 = (
    Claim("Fig. 6(a) max: S_T < 0.01 at L_J = 10 (dead zone below L_J ~ 15)",
          lambda d: _at(d, "max", "loss_jam", "S_T", 10.0) < 0.01),
    Claim("Fig. 6(a) max: 0.60 < S_T < 0.85 at L_J = 100 (paper plateau ~78 %)",
          lambda d: 0.60 < _at(d, "max", "loss_jam", "S_T", 100.0) < 0.85),
    Claim("Fig. 6(b) max: S_T at the longest sweep cycle > at the shortest",
          lambda d: _ys(d, "max", "sweep_cycle", "S_T")[-1]
          > _ys(d, "max", "sweep_cycle", "S_T")[0]),
    Claim("Fig. 6(c) max: S_T at the lowest L_H >= at the highest",
          lambda d: _ys(d, "max", "loss_hop", "S_T")[0]
          >= _ys(d, "max", "loss_hop", "S_T")[-1]),
    Claim("Fig. 6(a) random: S_T < 0.01 at L_J = 10",
          lambda d: _at(d, "random", "loss_jam", "S_T", 10.0) < 0.01),
    Claim("Fig. 6(a) random: S_T > 0.6 at L_J = 100",
          lambda d: _at(d, "random", "loss_jam", "S_T", 100.0) > 0.6),
    Claim("Fig. 6(a): random-mode S_T rises earlier, > max + 0.1 at some L_J in 20-40",
          lambda d: any(_at(d, "random", "loss_jam", "S_T", x)
                        > _at(d, "max", "loss_jam", "S_T", x) + 0.1
                        for x in (20.0, 30.0, 40.0))),
    Claim("Fig. 6(d) random: S_T > 0.9 at power floor 15 (saturation)",
          lambda d: _at(d, "random", "power_floor", "S_T", 15.0) > 0.9),
    Claim("Fig. 6(d) random: S_T at power floor 15 >= at floor 6",
          lambda d: _at(d, "random", "power_floor", "S_T", 15.0)
          >= _at(d, "random", "power_floor", "S_T", 6.0)),
    Claim("Fig. 7(a) max: A_H < 0.01 at L_J = 10 (inactive below the inflection)",
          lambda d: _at(d, "max", "loss_jam", "A_H", 10.0) < 0.01),
    Claim("Fig. 7(a) max: A_H > 0.2 at L_J = 100",
          lambda d: _at(d, "max", "loss_jam", "A_H", 100.0) > 0.2),
    Claim("Fig. 7(c) max: A_H at the shortest sweep cycle > at the longest",
          lambda d: _ys(d, "max", "sweep_cycle", "A_H")[0]
          > _ys(d, "max", "sweep_cycle", "A_H")[-1]),
    Claim("Fig. 7(b) max: A_P < 0.2 at L_J = 100 (PC pointless against max power)",
          lambda d: _at(d, "max", "loss_jam", "A_P", 100.0) < 0.2),
    Claim("Fig. 7(b) random: A_P > 0.5 somewhere on the L_J sweep",
          lambda d: max(_ys(d, "random", "loss_jam", "A_P")) > 0.5),
    Claim("Fig. 7(b): A_P random >= A_P max at >= 70 % of the L_J points",
          _ap_random_beats_max),
    Claim("Fig. 7(g) random: A_H at the top power floor <= at the bottom",
          lambda d: _ys(d, "random", "power_floor", "A_H")[-1]
          <= _ys(d, "random", "power_floor", "A_H")[0] + 1e-9),
    Claim("Fig. 7(h) random: A_P at the top power floor >= at the bottom",
          lambda d: _ys(d, "random", "power_floor", "A_P")[-1]
          >= _ys(d, "random", "power_floor", "A_P")[0] - 1e-9),
    Claim("Fig. 8(b) max: S_P < 0.01 at every L_J (PC never beats max power)",
          lambda d: all(y < 0.01 for y in _ys(d, "max", "loss_jam", "S_P"))),
    Claim("Fig. 8(c) max: S_H falls with the sweep cycle (first vs last nonzero)",
          _sh_falls_where_nonzero),
    Claim("Fig. 8(a) max: S_H >= S_P at every L_J where FH is adopted",
          _fh_beats_pc),
    Claim("Fig. 8(b) random: S_P > 0.1 somewhere on the L_J sweep",
          lambda d: max(_ys(d, "random", "loss_jam", "S_P")) > 0.1),
    Claim("Fig. 8(c) random: S_H at the shortest sweep cycle > at the longest",
          lambda d: _ys(d, "random", "sweep_cycle", "S_H")[0]
          > _ys(d, "random", "sweep_cycle", "S_H")[-1]),
    Claim("Fig. 8(d) random: S_P at the shortest sweep cycle > at the longest",
          lambda d: _ys(d, "random", "sweep_cycle", "S_P")[0]
          > _ys(d, "random", "sweep_cycle", "S_P")[-1]),
    Claim("Fig. 8(g)/(h) random: S_P >= S_H at the second-highest power floor",
          lambda d: _ys(d, "random", "power_floor", "S_P")[-2]
          >= _ys(d, "random", "power_floor", "S_H")[-2]),
    Claim("Fig. 8(c) max: S_H at sweep cycle 4 is in the paper's 0.6-0.8 (measured "
          "~0.2: a hop counts as useful only if its vacated channel was attacked)",
          lambda d: 0.6 <= _at(d, "max", "sweep_cycle", "S_H", 4.0) <= 0.8,
          open=True),
)

_FIG9A = tuple(
    Claim(f"mean {name} latency within 15 % of the paper's {paper * 1e3:g} ms",
          lambda s, name=name, paper=paper: abs(_mean(s, name) - paper) <= 0.15 * paper)
    for name, paper in (("DQN", 9e-3), ("ACK", 0.9e-3), ("Proc", 0.6e-3),
                        ("Polling", 13.1e-3))
) + (
    Claim("mean latencies order Polling > DQN > ACK > Proc, as plotted",
          lambda s: _mean(s, "Polling") > _mean(s, "DQN") > _mean(s, "ACK")
          > _mean(s, "Proc")),
)

_FIG9B = (
    Claim("mean negotiation time at 10 nodes > twice that at 1 node",
          lambda rows: rows[-1][1] > rows[0][1] * 2),
    Claim("mean negotiation time grows with size: corrcoef(nodes, mean) > 0.8",
          lambda rows: np.corrcoef([r[0] for r in rows], [r[1] for r in rows])[0, 1]
          > 0.8),
    Claim("some negotiation takes several seconds: max > 2 s",
          lambda rows: max(r[3] for r in rows) > 2.0),
)

_FIG10 = (
    Claim("Tx slot durations are 1-5 s",
          lambda rows: [r[0] for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]),
    Claim("goodput grows with the Tx slot duration",
          lambda rows: [r[1] for r in rows] == sorted(r[1] for r in rows)),
    Claim("utilisation grows with the Tx slot duration",
          lambda rows: [r[2] for r in rows] == sorted(r[2] for r in rows)),
    Claim("goodput at 1 s within 12 % of the paper's 148 pkts/slot",
          lambda rows: abs(rows[0][1] - 148) / 148 < 0.12),
    Claim("goodput at 5 s within 8 % of the paper's 806 pkts/slot",
          lambda rows: abs(rows[-1][1] - 806) / 806 < 0.08),
    Claim("utilisation at 1 s in (0.89, 0.95); paper 91.75 %",
          lambda rows: 0.89 < rows[0][2] < 0.95),
    Claim("utilisation at 5 s in (0.96, 1.00); paper 98.58 %",
          lambda rows: 0.96 < rows[-1][2] < 1.00),
    Claim("negotiation overhead per slot in (0.04, 0.13) s at every duration",
          lambda rows: all(0.04 < r[0] - r[3] < 0.13 for r in rows)),
)

_FIG11A = (
    Claim("goodput ranks RL FH > Rand FH > PSV FH",
          lambda res: _goodput(res, "RL FH") > _goodput(res, "Rand FH")
          > _goodput(res, "PSV FH")),
    Claim("1.4 < RL / PSV < 3.5; paper ~2x", _ratio("RL FH", "PSV FH", 1.4, 3.5)),
    Claim("1.05 < RL / Rand < 2.2; paper ~1.39x",
          _ratio("RL FH", "Rand FH", 1.05, 2.2)),
    Claim("0.55 < RL / no-jammer < 0.95; paper 78.5 %",
          _ratio("RL FH", "w/o Jx", 0.55, 0.95)),
    Claim("0.35 < Rand / no-jammer < 0.70; paper 54.1 %",
          _ratio("Rand FH", "w/o Jx", 0.35, 0.70)),
    Claim("0.22 < PSV / no-jammer < 0.50; paper 37.6 %",
          _ratio("PSV FH", "w/o Jx", 0.22, 0.50)),
)

_FIG11B = (
    Claim("a fast 0.5 s jammer cuts goodput below 85 % of the matched 3 s cadence",
          lambda rows: dict(rows)[0.5] < dict(rows)[3.0] * 0.85),
    Claim("goodput at the matched 3 s cadence > 250 pkts/slot; paper best ~421",
          lambda rows: dict(rows)[3.0] > 250.0),
)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_FIELD = ("goodput", "success_rate", "utilization")

FIGURES: tuple[Figure, ...] = (
    Figure(
        ("2b",), lambda b: figures.fig2b_jamming_effect(),
        "Fig. 2(b): jamming effect vs distance",
        ("d (m)", "PER EmuBee %", "PER WiFi %", "PER ZigBee %",
         "Tput Emu", "Tput WiFi", "Tput Zig"),
        lambda rows: [[r.distance_m, *(r.per[s] for s in _SIGNALS),
                       *(r.throughput_kbps[s] for s in _SIGNALS)] for r in rows],
        digits=1, claims=_FIG2B,
    ),
    Figure(
        ("2b-wf",),
        lambda b: figures.fig2b_waveform_validation(
            trials=b.waveform_trials, seed=b.seed),
        "Fig. 2(b) validation: waveform trials vs chip-flip model",
        ("J/S (dB)", "meas Emu", "meas WiFi", "meas Zig", "pred Emu", "pred Zig"),
        lambda rows: [[r.jam_to_signal_db, *(r.measured[s] for s in _SIGNALS),
                       r.predicted["EmuBee"], r.predicted["ZigBee"]] for r in rows],
        digits=4, claims=_FIG2B_WF,
    ),
    Figure(
        ("6", "7", "8"),
        lambda b: {mode: figures.parameter_sweeps(mode, b.sweep_slots, b.seed)
                   for mode in JammerMode.ALL},
        "Figs. 6-8 sweep: {0} ({1} mode)",
        ("{0}", *_METRICS),
        lambda points: [[p.x, *(getattr(p.metrics, m) for m in _METRICS.values())]
                        for p in points],
        parts=lambda d: [((sweep, mode), points) for mode in JammerMode.ALL
                         for sweep, points in d[mode].items()],
        claims=_FIG6_7_8,
    ),
    Figure(
        ("9a",), lambda b: figures.fig9a_time_consumption(seed=b.seed),
        "Fig. 9(a): time consumption (100 trials)",
        ("function", "mean (ms)", "std", "min", "max"),
        lambda samples: [
            [k, s.mean * 1e3, s.std * 1e3, s.minimum * 1e3, s.maximum * 1e3]
            for k, s in ((k, summarize(v)) for k, v in samples.items())
        ],
        claims=_FIG9A,
    ),
    Figure(
        ("9b",), lambda b: figures.fig9b_negotiation_time(seed=b.seed),
        "Fig. 9(b): FH negotiation time vs network size",
        ("nodes", "mean (s)", "min (s)", "max (s)"),
        list, claims=_FIG9B,
    ),
    Figure(
        ("10",),
        lambda b: figures.fig10_goodput_vs_duration(slots=b.goodput_slots, seed=b.seed),
        "Fig. 10: goodput & utilisation vs Tx slot duration",
        ("slot (s)", "goodput (pkts/slot)", "utilization", "eff. Tx (s)"),
        list, claims=_FIG10,
    ),
    Figure(
        ("11a",), lambda b: _fig11(figures.fig11a_scheme_comparison, b),
        "Fig. 11(a): anti-jamming scheme comparison",
        ("scheme", "goodput (pkts/slot)", "S_T", "utilization"),
        lambda res: [[name, *(vals[m] for m in _FIELD)] for name, vals in res.items()],
        claims=_FIG11A,
    ),
    Figure(
        ("11b",), lambda b: _fig11(figures.fig11b_jammer_timeslot, b),
        "Fig. 11(b): goodput vs jammer slot duration (Tx slot 3 s)",
        ("Jx slot (s)", "goodput (pkts/slot)"),
        list, claims=_FIG11B,
    ),
    Figure(
        ("adv",), _adv,
        "Adversary suite: scheme comparison (fig 11(a) protocol)",
        ("adversary", "scheme", "goodput (pkts/slot)", "S_T", "utilization"),
        lambda res: [[adversary, scheme, *(vals[m] for m in _FIELD)]
                     for adversary, per_scheme in res.items()
                     for scheme, vals in per_scheme.items()],
    ),
)
# fmt: on

#: CLI name -> figure row.
BY_NAME: dict[str, Figure] = {name: fig for fig in FIGURES for name in fig.names}

__all__ = ["Budget", "PAPER_BUDGET", "Claim", "Figure", "FIGURES", "BY_NAME"]
