"""Adversary suite: the fig. 11(a) protocol against the harder jammers.

Runs the scheme comparison (PSV / Rand / optimal / deception) against all
four adversaries — the paper's proactive sweep, a reactive jammer with a
realistic sense→classify→transmit budget, a lag-1 follower, and a
self-play-trained learning jammer — and snapshots wall-clock to
``BENCH_adversary_scheme_comparison.json``.

Budgets: ``REPRO_FIELD_SLOTS`` caps the per-experiment slot count and
``REPRO_SELFPLAY_EPISODES`` the learning jammer's training episodes
(default 8; the CI smoke job uses 2).
"""


import numpy as np
from conftest import budget, run_once

from repro.analysis.figures import (
    ADV_STUDY_SCHEMES,
    adversary_scheme_comparison,
)
from repro.analysis.tables import render_table
from repro.jamming.jammer import ADVERSARIES

SELFPLAY_EPISODES = budget("REPRO_SELFPLAY_EPISODES", 8)


def test_adversary_scheme_comparison(benchmark, report, field_slots):
    slots = min(field_slots, 300)
    results = run_once(
        benchmark,
        adversary_scheme_comparison,
        slots=slots,
        seed=0,
        selfplay_episodes=SELFPLAY_EPISODES,
    )

    rows = [
        [adversary, scheme, vals["goodput"], vals["success_rate"],
         vals["utilization"]]
        for adversary, per_scheme in results.items()
        for scheme, vals in per_scheme.items()
    ]
    report(
        render_table(
            ["adversary", "scheme", "goodput (pkts/slot)", "S_T", "utilization"],
            rows,
            title=f"Adversary suite — fig. 11(a) protocol, {slots} slots, "
            f"{SELFPLAY_EPISODES} self-play episodes",
            digits=2,
        )
    )

    # Structure: every adversary x scheme cell is present and produced a
    # live experiment.
    assert set(results) == set(ADVERSARIES)
    for per_scheme in results.values():
        assert set(per_scheme) == set(ADV_STUDY_SCHEMES)
        assert all(vals["goodput"] > 0.0 for vals in per_scheme.values())

    # A lag-1 follower re-jams the victim the moment it stops hopping, so
    # even the optimal policy keeps far less goodput than it does against
    # the paper's sweeping jammer.
    assert (
        results["follower"]["opt"]["goodput"]
        < results["sweep"]["opt"]["goodput"]
    )

    # Decoys are paid for in control-plane airtime every slot: utilisation
    # under the deception baseline sits below the plain optimal policy's.
    deception_util = np.mean(
        [results[a]["deception"]["utilization"] for a in ADVERSARIES]
    )
    optimal_util = np.mean(
        [results[a]["opt"]["utilization"] for a in ADVERSARIES]
    )
    assert deception_util < optimal_util
