"""Tests for nodes, the star network and goodput accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.net.goodput import GoodputModel
from repro.net.network import StarNetwork
from repro.net.node import Hub, Peripheral
from repro.net.timing import TimingModel


class TestNodes:
    def test_announcement_updates_peripheral(self):
        p = Peripheral(node_id="n1")
        p.apply_announcement(channel=7, power_index=3)
        assert p.channel == 7 and p.power_index == 3

    def test_hub_announce_reaches_all(self):
        hub = Hub()
        for i in range(3):
            hub.add_peripheral(Peripheral(node_id=f"n{i}"))
        hub.announce(channel=4, power_index=2)
        assert all(p.channel == 4 for p in hub.peripherals)

    def test_duplicate_node_rejected(self):
        hub = Hub()
        hub.add_peripheral(Peripheral(node_id="n1"))
        with pytest.raises(ProtocolError):
            hub.add_peripheral(Peripheral(node_id="n1"))


class TestStarNetwork:
    def test_size(self):
        net = StarNetwork(4, seed=0)
        assert net.size == 4

    def test_needs_peripherals(self):
        with pytest.raises(ConfigurationError):
            StarNetwork(0)

    def test_negotiate_announces(self):
        net = StarNetwork(3, seed=1)
        report = net.negotiate(channel=9, power_index=5)
        assert report.polled_nodes == 3
        assert all(p.channel == 9 for p in net.peripherals)
        assert net.hub.channel == 9

    def test_negotiation_time_scales_with_size(self):
        means = []
        for n in (1, 10):
            samples = [
                StarNetwork(n, seed=s).negotiate(0, 0).duration_s for s in range(60)
            ]
            means.append(np.mean(samples))
        assert means[1] > means[0] * 3

    def test_stranded_nodes_slow_negotiation(self):
        on_channel = TimingModel(off_channel_probability=0.0)
        stranded = TimingModel(off_channel_probability=1.0)
        fast, slow = [], []
        for s in range(40):
            net = StarNetwork(5, timing=on_channel, seed=s)
            fast.append(net.negotiate(0, 0).duration_s)
            net2 = StarNetwork(5, timing=stranded, seed=s)
            slow.append(net2.negotiate(0, 0).duration_s)
        assert np.mean(slow) > np.mean(fast)

    def test_recovered_nodes_reported(self):
        net = StarNetwork(4, timing=TimingModel(off_channel_probability=1.0), seed=2)
        report = net.negotiate(0, 0)
        assert report.recovered_nodes == 4


class TestGoodput:
    def test_fig10_calibration(self):
        # Paper Fig. 10(a): ~148 pkts at 1 s slots, ~806 at 5 s.
        model = GoodputModel()
        g1, u1 = model.average_goodput(1.0, slots=40, rng=0)
        g5, u5 = model.average_goodput(5.0, slots=40, rng=1)
        assert g1 == pytest.approx(148, rel=0.1)
        assert g5 == pytest.approx(806, rel=0.06)
        # Fig. 10(b): utilisation rises from ~92 % to ~99 %.
        assert 0.89 < u1 < 0.95
        assert 0.97 < u5 < 1.0
        assert u5 > u1

    def test_goodput_increases_with_duration(self):
        model = GoodputModel()
        gs = [
            model.average_goodput(d, slots=15, rng=int(d * 10))[0]
            for d in (1.0, 2.0, 3.0, 4.0, 5.0)
        ]
        assert gs == sorted(gs)

    def test_jamming_scales_goodput(self):
        model = GoodputModel()
        clean, _ = model.average_goodput(3.0, slots=20, rng=2)
        jammed, _ = model.average_goodput(3.0, slots=20, success_probability=0.5, rng=2)
        assert jammed == pytest.approx(clean * 0.5, rel=0.1)

    def test_zero_success_probability(self):
        report = GoodputModel().run_slot(2.0, success_probability=0.0, rng=3)
        assert report.packets_delivered == 0
        assert report.packets_attempted > 0

    def test_slot_shorter_than_negotiation(self):
        report = GoodputModel().run_slot(0.01, rng=4)
        assert report.packets_delivered == 0
        assert report.utilization == 0.0

    def test_negotiation_override(self):
        report = GoodputModel().run_slot(2.0, negotiation_s=0.5, rng=5)
        assert report.negotiation_s == 0.5
        assert report.effective_tx_s == pytest.approx(1.5)

    def test_validation(self):
        model = GoodputModel()
        with pytest.raises(ConfigurationError):
            model.run_slot(0.0)
        with pytest.raises(ConfigurationError):
            model.run_slot(1.0, success_probability=2.0)
        with pytest.raises(ConfigurationError):
            model.run_slot(1.0, negotiation_s=-1.0)
        with pytest.raises(ConfigurationError):
            model.average_goodput(1.0, slots=0)
        with pytest.raises(ConfigurationError):
            GoodputModel(num_nodes=0)


class TestAggregateSlot:
    """run_slot_aggregate: the fixed-draw twin of run_slot."""

    def setup_method(self):
        self.model = GoodputModel()
        self.rng = np.random.default_rng(0)

    def _uniforms(self, shape=()):
        return self.rng.random(shape + (2,))

    def test_certain_success_delivers_everything(self):
        neg, tx, attempted, delivered = self.model.run_slot_aggregate(
            3.0,
            success_probability=1.0,
            negotiation_s=0.07,
            uniforms=self._uniforms(),
        )
        assert attempted > 0
        assert delivered == attempted
        assert float(neg) == 0.07

    def test_certain_failure_delivers_nothing(self):
        _, _, attempted, delivered = self.model.run_slot_aggregate(
            3.0,
            success_probability=0.0,
            negotiation_s=0.07,
            uniforms=self._uniforms(),
        )
        assert attempted > 0
        assert delivered == 0

    def test_negotiation_consuming_slot(self):
        neg, tx, attempted, delivered = self.model.run_slot_aggregate(
            3.0,
            success_probability=1.0,
            negotiation_s=5.0,
            uniforms=self._uniforms(),
        )
        # Mirrors the exact path: the whole slot burns on negotiation.
        assert float(neg) == 3.0
        assert float(tx) == 0.0
        assert attempted == 0 and delivered == 0

    def test_batch_rows_match_solo(self):
        u = self._uniforms((8,))
        p = np.linspace(0.1, 1.0, 8)
        neg = np.full(8, 0.07)
        batch = self.model.run_slot_aggregate(
            3.0, success_probability=p, negotiation_s=neg, uniforms=u
        )
        for i in range(8):
            solo = self.model.run_slot_aggregate(
                3.0,
                success_probability=p[i],
                negotiation_s=0.07,
                uniforms=u[i],
            )
            for b, s in zip(batch, solo):
                assert b[i] == s

    def test_tracks_exact_sampler_statistics(self):
        u = self._uniforms((3000,))
        _, _, _, delivered = self.model.run_slot_aggregate(
            3.0,
            success_probability=0.8,
            negotiation_s=0.07,
            uniforms=u,
        )
        exact = [
            self.model.run_slot(
                3.0,
                success_probability=0.8,
                rng=self.rng,
                negotiation_s=0.07,
            ).packets_delivered
            for _ in range(300)
        ]
        assert delivered.mean() == pytest.approx(np.mean(exact), rel=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.model.run_slot_aggregate(
                3.0,
                success_probability=1.5,
                negotiation_s=0.07,
                uniforms=self._uniforms(),
            )
        with pytest.raises(ConfigurationError):
            self.model.run_slot_aggregate(
                3.0,
                success_probability=0.5,
                negotiation_s=-0.1,
                uniforms=self._uniforms(),
            )
        with pytest.raises(ConfigurationError):
            self.model.run_slot_aggregate(
                3.0,
                success_probability=0.5,
                negotiation_s=0.07,
                uniforms=np.zeros(3),
            )
