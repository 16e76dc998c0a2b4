"""Shape tests for the figure-data generators (small budgets).

The paper's claims for each figure are rows of
``repro.analysis.registry.FIGURES``, checked by ``tests/claims`` and, at
the full budget, by ``benchmarks/bench_figures.py``. These tests check
the generators' structure and further shapes at reduced slot counts.
"""

import numpy as np
import pytest

from repro.analysis import figures as F

SLOTS = 4000  # sweep evaluation budget for tests (paper uses 20 000)


@pytest.fixture(scope="module")
def sweeps_max():
    return F.parameter_sweeps("max", SLOTS, 0)


@pytest.fixture(scope="module")
def sweeps_random():
    return F.parameter_sweeps("random", SLOTS, 0)


class TestFig2b:
    def test_rows_cover_distances(self):
        rows = F.fig2b_jamming_effect()
        assert [r.distance_m for r in rows] == [float(d) for d in range(1, 16)]

    def test_throughput_complements_per(self):
        for row in F.fig2b_jamming_effect():
            for name in row.per:
                expected = F.FIG2B_OFFERED_KBPS * (1 - row.per[name] / 100)
                assert row.throughput_kbps[name] == pytest.approx(expected)

    def test_emubee_dominates_at_long_range(self):
        rows = F.fig2b_jamming_effect()
        long_range = [r for r in rows if r.distance_m >= 10]
        # The ranking itself is a Fig. 2(b) claim (tests/claims); here
        # EmuBee leads ZigBee by > 10 points somewhere in that regime.
        assert any(r.per["EmuBee"] > r.per["ZigBee"] + 10 for r in long_range)


class TestParameterSweeps:
    def test_keys(self, sweeps_max):
        assert set(sweeps_max) == {
            "loss_jam",
            "sweep_cycle",
            "loss_hop",
            "power_floor",
        }

    def test_cache_hit(self):
        a = F.parameter_sweeps("max", SLOTS, 0)
        b = F.parameter_sweeps("max", SLOTS, 0)
        assert a is b

    def test_unknown_mode(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            F.parameter_sweeps("stealth", 100, 0)


class TestFig6Shapes:
    """Fig. 6: S_T trends."""

    def test_high_lj_plateaus_near_paper_value(self, sweeps_max):
        points = dict((p.x, p.metrics.success_rate) for p in sweeps_max["loss_jam"])
        # Paper: stabilises around 78 %; we accept the 65-85 % band.
        for lj in (60.0, 80.0, 100.0):
            assert 0.6 < points[lj] < 0.85

    def test_random_mode_rises_earlier(self, sweeps_max, sweeps_random):
        maxp = dict((p.x, p.metrics.success_rate) for p in sweeps_max["loss_jam"])
        rndp = dict((p.x, p.metrics.success_rate) for p in sweeps_random["loss_jam"])
        # Paper Fig. 6(a): between L_J = 15 and 50 the random mode's S_T
        # increases earlier than the max mode's.
        assert rndp[30.0] > maxp[30.0] or rndp[20.0] > maxp[20.0]

    def test_st_increases_with_sweep_cycle(self, sweeps_max):
        ys = [p.metrics.success_rate for p in sweeps_max["sweep_cycle"]]
        # Broadly increasing (the endpoints are a Fig. 6(b) claim):
        # correlation with the cycle strongly positive.
        xs = np.arange(len(ys))
        assert np.corrcoef(xs, ys)[0, 1] > 0.8

    def test_st_decreases_with_lh(self, sweeps_random):
        ys = [p.metrics.success_rate for p in sweeps_random["loss_hop"]]
        assert ys[0] > ys[-1]

    def test_st_saturates_with_power_floor_random(self, sweeps_random):
        # Fig. 6(d): once the victim's floor reaches the jammer's ceiling
        # the success rate hits ~100 %.
        points = dict(
            (p.x, p.metrics.success_rate) for p in sweeps_random["power_floor"]
        )
        assert points[15.0] > 0.9
        assert points[15.0] > points[6.0]


class TestFig7Shapes:
    """Fig. 7: adoption rates."""

    def test_ah_falls_with_lh(self, sweeps_random):
        ys = [p.metrics.fh_adoption_rate for p in sweeps_random["loss_hop"]]
        assert ys[0] >= ys[-1]

    def test_ap_rises_with_power_floor(self, sweeps_random):
        ys = [p.metrics.pc_adoption_rate for p in sweeps_random["power_floor"]]
        assert ys[-1] >= ys[0]


class TestFig8Shapes:
    """Fig. 8: usefulness of FH and PC."""


class TestFig9:
    def test_fig9a_sample_counts_and_means(self):
        samples = F.fig9a_time_consumption(trials=100, seed=0)
        assert set(samples) == {"DQN", "ACK", "Proc", "Polling"}
        assert all(len(v) == 100 for v in samples.values())
        assert samples["DQN"].mean() == pytest.approx(9e-3, rel=0.15)
        assert samples["Polling"].mean() == pytest.approx(13.1e-3, rel=0.15)

    def test_fig9b_grows_with_nodes(self):
        rows = F.fig9b_negotiation_time(max_nodes=8, trials=25, seed=0)
        assert [r[0] for r in rows] == list(range(1, 9))
        assert rows[-1][1] > rows[0][1]
        # "In some cases, it can be several seconds."
        assert max(r[3] for r in rows) > 2.0


class TestFig10:
    def test_goodput_range_matches_paper(self):
        rows = F.fig10_goodput_vs_duration(slots=30, seed=0)
        durations = [r[0] for r in rows]
        goodputs = [r[1] for r in rows]
        utils = [r[2] for r in rows]
        assert durations == [1.0, 2.0, 3.0, 4.0, 5.0]
        # Paper: 148 -> 806 pkts/slot, utilisation 91.75 % -> 98.58 %.
        assert goodputs[0] == pytest.approx(148, rel=0.12)
        assert goodputs[-1] == pytest.approx(806, rel=0.08)
        assert goodputs == sorted(goodputs)
        assert utils == sorted(utils)
        assert 0.88 < utils[0] < 0.95
        assert 0.96 < utils[-1] < 1.0


class TestFig11:
    def test_fig11a_ordering_and_ratios(self):
        res = F.fig11a_scheme_comparison(slots=250, seed=0)
        assert set(res) == {"PSV FH", "Rand FH", "RL FH (optimal)", "w/o Jx"}
        psv = res["PSV FH"]["goodput"]
        rand = res["Rand FH"]["goodput"]
        rl = res["RL FH (optimal)"]["goodput"]
        clean = res["w/o Jx"]["goodput"]
        assert rl > rand > psv
        # Paper ratios: RL ~2x PSV and ~1.39x Rand; accept generous bands.
        assert 1.5 < rl / psv < 3.5
        assert 1.1 < rl / rand < 2.0
        # Paper: RL retains ~78 % of the no-jammer goodput (PSV 37.6 %,
        # Rand 54.1 %).
        assert 0.55 < rl / clean < 0.9
        assert 0.25 < psv / clean < 0.5

    def test_fig11b_fast_jammer_hurts(self):
        rows = F.fig11b_jammer_timeslot(durations=(0.5, 3.0), slots=200, seed=0)
        fast = rows[0][1]
        matched = rows[1][1]
        assert fast < matched * 0.8
