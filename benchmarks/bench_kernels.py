"""Microbenchmarks for the simulation/training fast-path kernels.

Times each optimised kernel against the reference implementation it
replaced (and is pinned bit-identical to by the equivalence suites); the
PHY references are the test oracles in ``tests/oracles/kernels.py``, so
run this file from the repository root with ``python -m pytest``:

* PER lookup — memoised :class:`repro.channel.link.LinkTable` vs direct
  :class:`repro.channel.link.LinkBudget` evaluation,
* Viterbi decode — vectorised ACS vs the per-state reference loop,
* batched DQN stepping — stacked ε-greedy act / TD update across N seeds
  vs N serial single-agent calls (the TD update's serial chain is
  ``tests/oracles/training.py``),
* policy stack — the cached greedy fleet forward vs a per-call restack,
  and a 1024-network fleet over 1 to 1024 distinct policies per kernel,
* jammer bank — the paper's sweep jammers of a 1024-network field as
  arrays vs one :class:`~repro.jamming.jammer.FieldJammer` per network,
* stream derivation — :func:`repro.rng.derive`'s ``uint32`` entropy
  array vs the list-of-ints ``SeedSequence`` it replaced,
* grid interference — delivery factors over the co-channel edges only vs
  every edge of a 2560-network hybrid-tier field,
* gamma quantiles — the negotiation kernel's indexed quantile table vs
  the ``np.interp`` search over it,
* waveform trials — the batched ``(N, samples)`` trial engine with its
  jammer bank vs the serial per-trial encode/mix/decode loop,
* DSSS despreading — the ±1 GEMM against ``CHIP_TABLE_PM`` vs the
  broadcast Hamming scan,
* sync correlation — windowed preamble searches vs their per-offset
  Python scans,
* channel fidelity tiers — hybrid (calibrated table lookup) PER vs the
  analytic closed form, and the waveform tier's seeded trial cache vs
  uncached Monte-Carlo adjudication.

Stage wall-clocks land in ``benchmarks/results/BENCH_kernels.json``
(with the speedup summary under ``"speedups"`` and the PER-cache
hit/miss counters in the ``"metrics"`` section). The committed baseline
in ``benchmarks/baselines/`` gates regressions via ``repro bench diff``.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import RESULTS_DIR

from repro.channel.link import Interferer, JammerSignalType, LinkBudget, LinkTable
from repro.core.dqn import DQNAgent, DQNConfig, EpsilonSchedule
from repro.core.vecenv import _StackedMLP, _batched_act, _batched_train_step
from repro.exec import timing
from repro.phy import convolutional as C
from repro.rng import derive
from tests.oracles.kernels import (
    all_edge_factors,
    conv_encode_reference,
    despread_reference,
    directed_edges,
    find_preamble_reference,
    locate_preamble_reference,
    viterbi_decode_reference,
)
from tests.oracles.training import SerialDQNAgent

#: Speedups recorded into the artifact, filled as the tests run.
SPEEDUPS: dict[str, float] = {}


def _timed(stage: str, fn, repeats: int, *, rounds: int = 3) -> float:
    """Best-of-``rounds`` wall-clock of ``repeats`` calls to ``fn``.

    Scheduler noise only ever adds time, so the minimum round is the
    stable estimate; it is what lands in the timing registry (and thus
    the BENCH artifact) under ``stage``.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, time.perf_counter() - start)
    timing.REGISTRY.record(stage, best, items=repeats)
    return best


def _write_artifact() -> None:
    timing.write_bench("kernels", directory=RESULTS_DIR, extra={"speedups": dict(SPEEDUPS)})


def test_per_lookup_speedup():
    budget = LinkBudget()
    table = LinkTable(budget)
    signals = np.linspace(-90.0, -40.0, 25)
    # Jammed-slot conditions: the cache's hot regime is the jamming window,
    # where every frame pays at least one interferer's SINR computation —
    # and contested slots in the heterogeneous testbed routinely stack the
    # jammer on top of concurrent neighbour traffic.
    wifi = Interferer(power_dbm=-40.0, signal_type=JammerSignalType.WIFI)
    emu = Interferer(power_dbm=-45.0, signal_type=JammerSignalType.EMUBEE)
    zig = Interferer(power_dbm=-60.0, signal_type=JammerSignalType.ZIGBEE)
    combos = [(zig,), (emu, zig), (wifi, zig), (emu, wifi, zig)]
    signals = [float(s) for s in signals]

    def grid(per_fn):
        for signal in signals:
            for combo in combos:
                per_fn(float(signal), 68, combo)

    def direct():
        grid(lambda s, o, c: budget.packet_error_rate(s, o, list(c)))

    def cached():
        grid(table.packet_error_rate)

    cached()  # warm the table: steady-state lookups are what the sim pays
    direct_s = _timed("kernels.per_lookup.direct", direct, repeats=40)
    cached_s = _timed("kernels.per_lookup.cached", cached, repeats=40)
    SPEEDUPS["per_lookup"] = direct_s / cached_s
    assert table.hit_rate > 0.97  # only the warm-up pass misses
    _write_artifact()
    assert SPEEDUPS["per_lookup"] >= 5.0


def test_viterbi_speedup():
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 2, size=994)
    coded = C.conv_encode(np.concatenate([msg, np.zeros(6, dtype=np.int64)]))
    noisy = coded.copy()
    noisy[rng.choice(coded.size, size=40, replace=False)] ^= 1

    reference_s = _timed(
        "kernels.viterbi.reference",
        lambda: viterbi_decode_reference(noisy, terminated=True),
        repeats=3,
    )
    vectorized_s = _timed(
        "kernels.viterbi.vectorized",
        lambda: C.viterbi_decode(noisy, terminated=True),
        repeats=3,
    )
    SPEEDUPS["viterbi"] = reference_s / vectorized_s

    encode_ref_s = _timed(
        "kernels.conv_encode.reference",
        lambda: conv_encode_reference(msg),
        repeats=10,
    )
    encode_vec_s = _timed(
        "kernels.conv_encode.vectorized",
        lambda: C.conv_encode(msg),
        repeats=10,
    )
    SPEEDUPS["conv_encode"] = encode_ref_s / encode_vec_s
    _write_artifact()
    assert SPEEDUPS["viterbi"] >= 5.0
    assert SPEEDUPS["conv_encode"] >= 5.0


def _fresh_agents(n: int, agent_type=DQNAgent):
    cfg = DQNConfig(
        observation_size=15,
        num_actions=160,
        hidden_sizes=(64, 64),
        batch_size=64,
        warmup_transitions=256,
        replay_capacity=4000,
        epsilon=EpsilonSchedule(1.0, 0.1, 2000),
    )
    agents = [agent_type(cfg, seed=derive(s, "train-agent")) for s in range(n)]
    rng = np.random.default_rng(1)
    for agent in agents:
        obs = rng.standard_normal((512, cfg.observation_size))
        nxt = rng.standard_normal((512, cfg.observation_size))
        agent.replay.push_many(
            obs,
            rng.integers(0, cfg.num_actions, size=512),
            rng.standard_normal(512),
            nxt,
        )
    return cfg, agents


def test_batched_dqn_stepping():
    n = 8
    cfg, agents = _fresh_agents(n)
    stack = _StackedMLP(agents)
    rng = np.random.default_rng(2)
    obs = rng.standard_normal((n, cfg.observation_size))

    serial_act_s = _timed(
        "kernels.act.serial",
        lambda: [agent.act(obs[i]) for i, agent in enumerate(agents)],
        repeats=300,
    )
    batched_act_s = _timed(
        "kernels.act.batched",
        lambda: _batched_act(stack, agents, obs),
        repeats=300,
    )
    SPEEDUPS["act"] = serial_act_s / batched_act_s

    # Separate populations so the timed paths don't share rng/optimizer state.
    _, serial_agents = _fresh_agents(n, SerialDQNAgent)
    serial_learn_s = _timed(
        "kernels.learn.serial",
        lambda: [
            agent.train_on(agent.replay.sample(cfg.batch_size))
            for agent in serial_agents
        ],
        repeats=60,
    )
    batched_learn_s = _timed(
        "kernels.learn.batched",
        lambda: _batched_train_step(stack, agents),
        repeats=60,
    )
    SPEEDUPS["learn"] = serial_learn_s / batched_learn_s
    _write_artifact()
    # The batched paths amortise N forward/backward passes into one; they
    # must at least beat the serial loop (the big wins are asserted above).
    assert SPEEDUPS["act"] > 1.0
    assert SPEEDUPS["learn"] > 1.0


def test_policy_stack_cache_speedup():
    """Cached stacked inference vs the per-call restack it replaced.

    ``greedy_policy_actions`` used to rebuild the (N, ...) weight stack on
    every call — the cost ``sim/shard`` paid once per slot for a DQN
    fleet. The cold path recreates that by clearing the policy-stack
    cache before each call; the warm path is the shipped behaviour
    (version scan + stacked forward only).
    """
    from repro.core.vecenv import (
        clear_policy_stack_cache,
        get_policy_stack,
        greedy_policy_actions,
    )

    n = 64
    cfg = DQNConfig(
        observation_size=15, num_actions=160, hidden_sizes=(64, 64)
    )
    agents = [DQNAgent(cfg, seed=derive(s, "train-agent")) for s in range(n)]
    rng = np.random.default_rng(5)
    obs = rng.standard_normal((n, cfg.observation_size))

    nets = [agent.online for agent in agents]

    def cold():
        clear_policy_stack_cache()
        return greedy_policy_actions(get_policy_stack(nets), obs)

    def warm():
        return greedy_policy_actions(get_policy_stack(nets), obs)

    np.testing.assert_array_equal(cold(), warm())  # identical decisions
    cold_s = _timed("kernels.policy_stack.cold", cold, repeats=100)
    warm()  # repopulate after the final cold clear
    warm_s = _timed("kernels.policy_stack.warm", warm, repeats=100)
    SPEEDUPS["policy_stack"] = cold_s / warm_s
    _write_artifact()
    assert SPEEDUPS["policy_stack"] > 1.5


def test_policy_stack_fleet_mix(monkeypatch):
    """Greedy forward of a 1024-network fleet running U distinct policies.

    The shipped stage ``kernels.policy_stack.fleet_u<U>`` stacks each
    distinct network once and picks its kernel from the mean rows per
    network; ``.grouped`` and ``.per_row`` force one kernel each (one
    broadcast chain per network vs one stacked slice per row), which is
    where ``vecenv.GROUP_MIN_ROWS`` comes from. Every case must equal the
    serial ``network.predict`` decisions bit-for-bit.
    """
    from repro.core import vecenv
    from repro.nn.network import mlp

    n = 1024
    rng = np.random.default_rng(11)
    obs = rng.standard_normal((n, 15))
    pool = [mlp(15, (48, 48), 160, seed=derive(s, "fleet-policy")) for s in range(n)]
    shipped = vecenv.GROUP_MIN_ROWS
    for distinct in (1, 4, 64, 128, 256, 512, 1024):
        nets = [pool[i % distinct] for i in range(n)]
        serial = np.array(
            [int(np.argmax(net.predict(row))) for net, row in zip(nets, obs)]
        )

        def forward():
            return vecenv.get_policy_stack(nets).greedy_actions(obs)

        for suffix, group_min_rows in (
            ("", shipped),
            (".grouped", 1),
            (".per_row", n + 1),
        ):
            monkeypatch.setattr(vecenv, "GROUP_MIN_ROWS", group_min_rows)
            vecenv.clear_policy_stack_cache()
            np.testing.assert_array_equal(forward(), serial)
            stage = f"kernels.policy_stack.fleet_u{distinct}{suffix}"
            _timed(stage, forward, repeats=5)
    vecenv.clear_policy_stack_cache()
    _write_artifact()


def test_jammer_bank():
    """The paper's sweep jammer bank as arrays vs one object per network.

    ``kernels.jammer_bank.{array,object}.{max,random}`` time 100 victim
    windows of a 1024-network bank under each jammer power mode; the
    array bank must answer every window bit-identically to the objects.
    """
    from repro.jamming.adversary import make_field_jammer
    from repro.sim.scenario import field_jammer_config, paper_defaults
    from repro.sim.shard import FieldJammerBank

    n, windows = 1024, 100
    rng = np.random.default_rng(17)
    channels = [rng.integers(0, 16, n)]
    for _ in range(3 * windows - 1):  # _timed runs three rounds
        move = rng.random(n) < 0.4
        channels.append(np.where(move, rng.integers(0, 16, n), channels[-1]))

    def streams():
        return [derive(s, "bench-jammer") for s in range(n)]

    for mode in ("max", "random"):
        config = field_jammer_config(paper_defaults(mode))
        # The bank draws on its streams, so the reference objects are
        # built on a second set derived from the same seeds.
        bank = FieldJammerBank(config, streams())
        reference = [make_field_jammer(config, seed=g) for g in streams()]
        array_seen, object_seen = [], []

        def array_step():
            k = len(array_seen)
            array_seen.append(
                bank.attack_profiles(3.0 * k, 3.0 * k + 3.0, channels[k])
            )

        def object_step():
            k = len(object_seen)
            profiles = [
                j.attack_profile(3.0 * k, 3.0 * k + 3.0, int(c))
                for j, c in zip(reference, channels[k])
            ]
            object_seen.append(
                (
                    np.array([p.jammed_fraction for p in profiles]),
                    np.array([p.attempted for p in profiles]),
                    np.array([p.max_power for p in profiles]),
                )
            )

        seconds, outputs = {}, {"array": array_seen, "object": object_seen}
        for path, step in (("array", array_step), ("object", object_step)):
            seconds[path] = _timed(
                f"kernels.jammer_bank.{path}.{mode}", step, repeats=windows
            )
        for mine, ref in zip(outputs["array"], outputs["object"], strict=True):
            for a, b in zip(mine, ref):
                np.testing.assert_array_equal(a, b)
        SPEEDUPS[f"jammer_bank_{mode}"] = seconds["object"] / seconds["array"]
    _write_artifact()
    assert SPEEDUPS["jammer_bank_max"] >= 5.0
    assert SPEEDUPS["jammer_bank_random"] >= 5.0


def test_derive_entropy():
    """``derive`` with array entropy vs the list-of-ints ``SeedSequence``.

    ``kernels.derive.{list,array}`` time the 2560 derives of one stream
    name a 2560-network grid makes; both must seed identical streams.
    """
    seeds = [
        int(derive(7, f"bench-net[{i}]").integers(0, 2**63 - 1)) for i in range(2560)
    ]

    def listed():
        streams = []
        for s in seeds:
            tag = np.frombuffer("field-channel".encode("utf-8"), dtype=np.uint8)
            mix = np.random.SeedSequence([s, *tag.tolist()])
            streams.append(np.random.default_rng(mix))
        return streams

    def arrayed():
        return [derive(s, "field-channel") for s in seeds]

    for mine, ref in zip(arrayed(), listed(), strict=True):
        assert mine.bit_generator.state == ref.bit_generator.state
    list_s = _timed("kernels.derive.list", listed, repeats=1, rounds=5)
    array_s = _timed("kernels.derive.array", arrayed, repeats=1, rounds=5)
    SPEEDUPS["derive_array"] = list_s / array_s
    _write_artifact()
    assert SPEEDUPS["derive_array"] >= 2.0


def test_interference_co_channel():
    """Delivery factors over co-channel pairs only vs over every edge.

    ``kernels.interference.{all_edges,co_channel}`` time 20 slots of the
    grid-table-hybrid geometry: 2560 networks on a 100 x 100 m field,
    a 12 m radius and the hybrid tier, with uniform random channels and
    powers. The all-edge side (``tests.oracles.kernels.all_edge_factors``
    over directed edges built from the positions, untimed) multiplies
    1.0 into every edge that is not co-channel; both must return the
    same bits.
    """
    from repro.sim.scenario import paper_defaults
    from repro.sim.shard import (
        InterferenceModel,
        _InterferenceEngine,
        network_positions,
    )

    n, slots = 2560, 20
    mdp = paper_defaults().mdp
    model = InterferenceModel(radius_m=12.0, channel="hybrid")
    positions = network_positions(7, n, 100.0, 100.0)
    engine = _InterferenceEngine(model, mdp, positions, tuple(range(n)))
    edges = directed_edges(
        model.radius_m, model.distance_bin_m, positions, tuple(range(n))
    )
    rng = np.random.default_rng(23)
    draws = [
        (
            rng.integers(0, mdp.num_channels, n),
            rng.integers(0, len(mdp.tx_power_levels), n),
        )
        for _ in range(slots)
    ]

    def all_edges(channels, powers):
        return all_edge_factors(engine.per, edges, channels, powers)

    for channels, powers in draws:
        np.testing.assert_array_equal(
            engine.factors(channels, powers), all_edges(channels, powers)
        )
    seconds = {}
    for path, fn in (("all_edges", all_edges), ("co_channel", engine.factors)):
        seconds[path] = _timed(
            f"kernels.interference.{path}",
            lambda: [fn(c, p) for c, p in draws],
            repeats=1,
        )
    SPEEDUPS["interference_co_channel"] = (
        seconds["all_edges"] / seconds["co_channel"]
    )
    _write_artifact()
    assert SPEEDUPS["interference_co_channel"] >= 2.0


def test_gamma_quantile_indexed():
    """Indexed gamma quantiles vs the ``np.interp`` search they replaced.

    ``kernels.gamma_quantile.{interp,indexed}`` time the quantile calls of
    100 slots of grid-table-hybrid negotiation: 2560 networks of three
    peripherals, a (2560,) DQN draw and (2560, 3) polling draws at the
    jitter cv, and the recovery draws of stranded off-channel nodes at
    the recovery cv. Both sides must return the same bits.
    """
    from repro.net.timing import (
        OFF_CHANNEL_RECOVERY_CV,
        TimingModel,
        _gamma_quantile_table,
        gamma_from_uniform,
    )

    timing_model = TimingModel()
    n, peripherals, slots = 2560, 3, 100
    rng = np.random.default_rng(29)
    calls = []
    for _ in range(slots):
        u = rng.random((n, 1 + 3 * peripherals))
        stranded = rng.random(n) < 0.3
        off = u[:, 1 + peripherals : 1 + 2 * peripherals] < 0.12
        recovery = u[:, 1 + 2 * peripherals :][off & stranded[:, None]]
        calls += [
            (u[:, 0], timing_model.dqn_inference_mean_s, timing_model.jitter_cv),
            (
                u[:, 1 : 1 + peripherals],
                timing_model.polling_per_node_mean_s,
                timing_model.jitter_cv,
            ),
            (
                recovery,
                timing_model.off_channel_recovery_mean_s,
                OFF_CHANNEL_RECOVERY_CV,
            ),
        ]

    def interp(u, mean, cv):
        shape = 1.0 / (cv * cv)
        grid, table, _ = _gamma_quantile_table(shape)
        return np.interp(u, grid, table) * (mean / shape)

    for args in calls:
        got, want = gamma_from_uniform(*args), interp(*args)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    seconds = {}
    for path, fn in (("interp", interp), ("indexed", gamma_from_uniform)):
        seconds[path] = _timed(
            f"kernels.gamma_quantile.{path}",
            lambda: [fn(*args) for args in calls],
            repeats=1,
            rounds=5,
        )
    SPEEDUPS["gamma_quantile_indexed"] = seconds["interp"] / seconds["indexed"]
    _write_artifact()
    assert SPEEDUPS["gamma_quantile_indexed"] >= 2.0


def test_waveform_trial_speedup():
    from repro.channel.trials import (
        JammerBank,
        jam_trials,
        trial_base,
        trial_stream,
    )
    from repro.channel.waveform import jam_trial

    n, payload_bytes, base = 32, 8, trial_base(0)
    bank = JammerBank(1 << 15)
    bank.burst(JammerSignalType.WIFI)  # encode the burst outside the timer

    def draw_payloads():
        streams = [trial_stream(base, i) for i in range(n)]
        payloads = [
            bytes(s.integers(0, 256, payload_bytes, dtype=np.uint8))
            for s in streams
        ]
        return streams, payloads

    def serial():
        # The pre-PR cost: one encode/mix/demodulate/despread pipeline
        # per trial, re-running the Wi-Fi OFDM transmit chain each time.
        streams, payloads = draw_payloads()
        for s, p in zip(streams, payloads):
            jam_trial(
                p,
                signal_type=JammerSignalType.WIFI,
                jam_to_signal_db=3.0,
                rng=s,
            )

    def batched():
        streams, payloads = draw_payloads()
        jam_trials(
            payloads,
            signal_type=JammerSignalType.WIFI,
            jam_to_signal_db=3.0,
            rngs=streams,
            bank=bank,
        )

    serial_s = _timed("kernels.waveform_trials.serial", serial, repeats=2)
    batched_s = _timed("kernels.waveform_trials.batched", batched, repeats=2)
    SPEEDUPS["waveform_trials"] = serial_s / batched_s

    # The speedup is honest only because the fast path is exact: every
    # batch row equals the serial bank-equipped trial on the same stream.
    streams, payloads = draw_payloads()
    batch = jam_trials(
        payloads,
        signal_type=JammerSignalType.WIFI,
        jam_to_signal_db=3.0,
        rngs=streams,
        bank=bank,
    )
    check_streams, _ = draw_payloads()
    for i in (0, n // 2, n - 1):
        ref = jam_trial(
            payloads[i],
            signal_type=JammerSignalType.WIFI,
            jam_to_signal_db=3.0,
            rng=check_streams[i],
            bank=bank,
        )
        assert batch.trial(i) == ref

    _write_artifact()
    assert SPEEDUPS["waveform_trials"] >= 10.0


def test_despread_gemm_speedup():
    from repro.phy import zigbee as Z

    rng = np.random.default_rng(3)
    chips = rng.integers(0, 2, size=32 * 4096, dtype=np.uint8)

    gemm_sym, gemm_err = Z.despread(chips)
    ref_sym, ref_err = despread_reference(chips)
    assert np.array_equal(gemm_sym, ref_sym)
    assert np.array_equal(gemm_err, ref_err)

    reference_s = _timed(
        "kernels.despread.reference",
        lambda: despread_reference(chips),
        repeats=5,
    )
    gemm_s = _timed(
        "kernels.despread.gemm", lambda: Z.despread(chips), repeats=5
    )
    SPEEDUPS["despread"] = reference_s / gemm_s
    _write_artifact()
    assert SPEEDUPS["despread"] >= 3.0


def test_sync_correlation_speedup():
    from repro.phy import preamble as P
    from repro.phy import sync as S
    from repro.phy import zigbee as Z

    rng = np.random.default_rng(4)
    # A long chip stream whose preamble sits near the end keeps the
    # search in its worst case: every offset is visited.
    chips = rng.integers(0, 2, size=20_000, dtype=np.uint8)
    chips[-8 * 32 :] = np.tile(Z.CHIP_TABLE[0], 8)
    assert S.find_preamble(chips) == find_preamble_reference(chips)

    find_ref_s = _timed(
        "kernels.find_preamble.reference",
        lambda: find_preamble_reference(chips),
        repeats=2,
    )
    find_vec_s = _timed(
        "kernels.find_preamble.vectorized",
        lambda: S.find_preamble(chips),
        repeats=2,
    )
    SPEEDUPS["find_preamble"] = find_ref_s / find_vec_s

    stf = P.short_training_field()
    wf = 0.05 * (
        rng.standard_normal(12_000) + 1j * rng.standard_normal(12_000)
    )
    wf[-2 * stf.size : -stf.size] += stf
    assert P.locate_preamble(wf) == locate_preamble_reference(wf)

    stf_ref_s = _timed(
        "kernels.locate_preamble.reference",
        lambda: locate_preamble_reference(wf),
        repeats=2,
    )
    stf_vec_s = _timed(
        "kernels.locate_preamble.vectorized",
        lambda: P.locate_preamble(wf),
        repeats=2,
    )
    SPEEDUPS["locate_preamble"] = stf_ref_s / stf_vec_s
    _write_artifact()
    assert SPEEDUPS["find_preamble"] >= 3.0
    assert SPEEDUPS["locate_preamble"] >= 3.0


def test_channel_fidelity_speedup():
    from repro.channel import fidelity as F

    analytic = LinkBudget()
    hybrid = F.HybridLinkBudget(calibration=F.load_default_calibration())
    emu = Interferer(power_dbm=-45.0, signal_type=JammerSignalType.EMUBEE)
    zig = Interferer(power_dbm=-60.0, signal_type=JammerSignalType.ZIGBEE)
    signals = [float(s) for s in np.linspace(-90.0, -40.0, 25)]
    combos = [(zig,), (emu,), (emu, zig)]

    def grid(budget):
        for signal in signals:
            for combo in combos:
                budget.packet_error_rate(signal, 68, list(combo))

    grid(analytic)  # warm the shared SER caches on both sides
    grid(hybrid)
    analytic_s = _timed(
        "kernels.channel_per.analytic", lambda: grid(analytic), repeats=20
    )
    hybrid_s = _timed(
        "kernels.channel_per.hybrid", lambda: grid(hybrid), repeats=20
    )
    SPEEDUPS["channel_hybrid"] = analytic_s / hybrid_s

    # The waveform tier's cost model: a cache miss pays a batch of
    # Monte-Carlo chip-flip trials, a hit is a dict probe. Keep the grid
    # small so the uncached side stays benchable.
    waveform = F.WaveformLinkBudget(seed=0, trials=8, margin_bin_db=1.0)
    points = [
        (-60.0, (emu,)),
        (-52.0, (emu,)),
        (-45.0, (zig,)),
        (-58.0, (zig, emu)),
    ]

    def waveform_grid():
        for signal, combo in points:
            waveform.packet_error_rate(signal, 68, list(combo))

    def uncached():
        F.clear_trial_cache()
        waveform_grid()

    uncached_s = _timed(
        "kernels.channel_per.waveform_uncached", uncached, repeats=1
    )
    waveform_grid()  # warm: steady-state adjudication hits the cache
    before = F.trial_cache_stats()
    cached_s = _timed(
        "kernels.channel_per.waveform_cached", waveform_grid, repeats=1
    )
    after = F.trial_cache_stats()
    assert after["hits"] > before["hits"]
    assert after["misses"] == before["misses"]
    SPEEDUPS["waveform_channel_cache"] = uncached_s / cached_s
    _write_artifact()
    # The calibrated hybrid table must stay within ~2x of the analytic
    # closed form; the trial cache must amortise Monte-Carlo by >=10x.
    assert SPEEDUPS["channel_hybrid"] >= 0.5
    assert SPEEDUPS["waveform_channel_cache"] >= 10.0
