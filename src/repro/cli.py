"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``solve``        Solve the anti-jamming MDP exactly and print the policy.
``train``        Train the DQN, report metrics, optionally save the artifact.
``figure``       Regenerate one of the paper's figures as an ASCII table.
``emulate``      Run the EmuBee emulation pipeline on a hex payload.
``obs``          Summarise a ``RUN_<name>.jsonl`` observability trace.
``bench``        Compare a ``BENCH_<name>.json`` artifact against a baseline.
``field-scale``  Scale the sharded multi-network field grid, print slots/sec.
``selfplay``     Train the learning jammer DQN-vs-DQN and print the curves.

Results (tables, figures, emulation output) go to stdout; status chatter
goes through the :mod:`repro.obs.log` structured logger on stderr and can
be silenced with the global ``--quiet`` flag. With ``REPRO_TRACE`` set,
every command writes a JSONL trace readable by ``repro obs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import knobs
from repro.analysis import registry
from repro.analysis.tables import render_table
from repro.core.mdp import AntiJammingMDP, JammerMode, MDPConfig
from repro.core.solver import value_iteration
from repro.core.trainer import (
    TrainerConfig,
    evaluate_dqn,
    train_dqn,
    train_dqn_multi_seed,
)
from repro.channel.fidelity import (
    CALIBRATION_TOLERANCE,
    DEFAULT_CALIBRATION_MARGINS,
    OFFSET_BIN_MHZ,
    CalibrationTable,
    calibrate,
)
from repro.channel.link import JammerSignalType, chip_flip_probability
from repro.errors import ConfigurationError, ReproError
from repro.exec import ParallelRunner, resolve_workers
from repro.exec import timing
from repro.jamming.strategies import STRATEGY_NAMES
from repro.nn.serialize import artifact_size_bytes, parameter_count, save_parameters
from repro.obs import log as obs_log
from repro.obs import sink
from repro.obs import trace as obs_trace
from repro.phy.emulation import WaveformEmulator
from repro.sim.scenario import SCHEMES

log = obs_log.get_logger("cli")

#: Knob flags of every verb that fans work out over the process pool.
_POOL_KNOBS = ("REPRO_WORKERS", "REPRO_ON_ERROR", "REPRO_MAX_RETRIES")


def _mdp_config(args: argparse.Namespace) -> MDPConfig:
    return MDPConfig(
        loss_jam=args.loss_jam,
        loss_hop=args.loss_hop,
        jammer_mode=args.jammer_mode,
    )


def _add_mdp_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--loss-jam", type=float, default=100.0, help="L_J")
    parser.add_argument("--loss-hop", type=float, default=50.0, help="L_H")
    parser.add_argument(
        "--jammer-mode",
        choices=JammerMode.ALL,
        default=JammerMode.MAX,
        help="max (high-performance) or random (hidden) jammer",
    )


def cmd_solve(args: argparse.Namespace) -> int:
    mdp = AntiJammingMDP(_mdp_config(args))
    solution = value_iteration(mdp)
    rows = []
    for state in mdp.states:
        action = solution.action(state)
        rows.append(
            [
                str(state),
                f"{solution.value(state):.2f}",
                action.describe(mdp.config),
            ]
        )
    print(mdp.describe())
    print(render_table(["state", "V*(x)", "optimal action"], rows))
    print(f"hop threshold n* = {solution.hop_threshold()}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _mdp_config(args)
    trainer_cfg = TrainerConfig(episodes=args.episodes, steps_per_episode=args.steps)
    if args.num_seeds > 1:
        seeds = tuple(args.seed + i for i in range(args.num_seeds))
        log.info(
            "training multi-seed DQNs",
            num_seeds=args.num_seeds,
            seeds=f"{seeds[0]}..{seeds[-1]}",
            jammer_mode=config.jammer_mode,
            workers=resolve_workers(),
        )
        multi = train_dqn_multi_seed(config, seeds=seeds, trainer=trainer_cfg)
        print(
            render_table(
                ["seed", "episodes", "steps", "final mean reward"],
                [
                    [s, r.episodes, r.steps, r.reward_history[-1]]
                    for s, r in zip(multi.seeds, multi.results)
                ],
                title=f"multi-seed training (mean final reward "
                f"{multi.mean_final_reward:.2f} ± {multi.std_final_reward:.2f})",
            )
        )
        result = multi.best()
    else:
        log.info("training DQN", jammer_mode=config.jammer_mode, seed=args.seed)
        result = train_dqn(
            config,
            trainer=trainer_cfg,
            seed=args.seed,
        )
    net = result.agent.network()
    log.info(
        "training finished",
        steps=result.steps,
        episodes=result.episodes,
        parameters=parameter_count(net),
        artifact_kb=f"{artifact_size_bytes(net) / 1024:.1f}",
    )
    metrics = evaluate_dqn(result.agent, config, slots=args.eval_slots, seed=args.seed)
    print(
        render_table(
            ["S_T", "A_H", "S_H", "A_P", "S_P"],
            [
                [
                    metrics.success_rate,
                    metrics.fh_adoption_rate,
                    metrics.fh_success_rate,
                    metrics.pc_adoption_rate,
                    metrics.pc_success_rate,
                ]
            ],
            title=f"greedy evaluation over {metrics.slots} slots",
        )
    )
    if args.save:
        save_parameters(net, args.save)
        log.info("saved parameter artifact", path=args.save)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.out and args.name != "adv":
        raise ConfigurationError(
            f"--out writes the figure-adv comparison artifact only; "
            f"figure {args.name} has none"
        )
    figure = registry.BY_NAME[args.name]
    budget = registry.Budget(
        sweep_slots=args.slots,
        field_slots=args.slots,
        dqn_episodes=registry.PAPER_BUDGET.dqn_episodes if args.train_rl else 0,
        waveform_trials=args.trials,
        selfplay_episodes=args.selfplay_episodes,
        sweep_strategy=args.sweep_strategy,
        seed=args.seed,
    )
    results = figure.compute(budget)
    print(figure.render(results))
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            json.dumps(
                {
                    "figure": "adv",
                    "slots": args.slots,
                    "seed": args.seed,
                    "sweep_strategy": args.sweep_strategy,
                    "selfplay_episodes": args.selfplay_episodes,
                    "results": results,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        log.info("wrote comparison artifact", path=str(out_path))
    return 0


def cmd_emulate(args: argparse.Namespace) -> int:
    payload = bytes.fromhex(args.hex)
    emulator = WaveformEmulator()
    result = emulator.emulate_bytes(payload)
    print(f"designed ZigBee payload : {payload.hex()}")
    print(f"optimal alpha           : {result.alpha:.4f}")
    print(f"quantization error E(a*): {result.quantization_error:.4f}")
    print(f"waveform EVM            : {result.evm:.3f}")
    print(f"chip error rate         : {result.chip_error_rate:.1%}")
    print(f"Wi-Fi payload bytes     : {len(result.payload)}")
    print(f"emitted samples         : {result.emulated.size} @ 20 Msps")
    return 0


#: Stages faster than this in the baseline are compared on absolute slack
#: rather than ratio: at sub-50 ms scales, scheduler noise alone produces
#: multi-x ratios that say nothing about the code.
BENCH_NOISE_FLOOR_S = 0.05


def _load_bench_stages(path: Path) -> dict[str, float]:
    """Stage name -> wall-clock seconds from a ``BENCH_<name>.json``."""
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ReproError(f"benchmark artifact not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"benchmark artifact is not valid JSON: {path}: {exc}") from None
    stages = doc.get("stages")
    if not isinstance(stages, dict):
        raise ReproError(f"no 'stages' section in benchmark artifact: {path}")
    out = {}
    for name, stats in stages.items():
        seconds = stats.get("seconds") if isinstance(stats, dict) else None
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise ReproError(
                f"benchmark artifact {path}: stage {name!r} has no numeric "
                f"'seconds' (got {stats!r})"
            )
        out[name] = float(seconds)
    return out


def cmd_calibrate(args: argparse.Namespace) -> int:
    """``repro calibrate``: fit or verify the hybrid channel's table.

    Generation runs the deterministic waveform calibration pass and
    (optionally) writes the versioned artifact; ``--check PATH``
    regenerates from an artifact's own stored parameters and requires the
    measurements to reproduce bit-identically with the fit residual
    inside ``--tolerance``.
    """
    runner = (
        ParallelRunner(name="calibrate.map") if resolve_workers() > 1 else None
    )
    if args.check:
        reference = CalibrationTable.load(args.check)
        signals = tuple(
            JammerSignalType(name)
            for name in sorted({key[0] for key in reference.entries})
        )
        offsets = tuple(
            sorted({key[1] * OFFSET_BIN_MHZ for key in reference.entries})
        )
        regenerated = calibrate(
            margins_db=reference.margins_db,
            trials=reference.trials,
            payload_bytes=reference.payload_bytes,
            seed=reference.seed,
            signals=signals,
            offsets_mhz=offsets,
            noise_to_signal_db=reference.noise_to_signal_db,
            runner=runner,
        )
        reproduced = regenerated.to_payload() == reference.to_payload()
        residual = reference.max_fit_residual
        within = residual <= args.tolerance
        log.info(
            "calibration check",
            artifact=args.check,
            reproduced=reproduced,
            max_fit_residual=f"{residual:.6f}",
            tolerance=args.tolerance,
        )
        if not reproduced:
            log.error(
                "calibration artifact does not reproduce from its stored "
                "parameters",
                artifact=args.check,
            )
        if not within:
            log.error(
                "calibration fit residual exceeds tolerance",
                residual=f"{residual:.6f}",
                tolerance=args.tolerance,
            )
        print(
            f"calibration check: reproduced={reproduced} "
            f"max_fit_residual={residual:.6f} tolerance={args.tolerance}"
        )
        return 0 if (reproduced and within) else 1

    if args.margins:
        try:
            margins = tuple(float(m) for m in args.margins.split(","))
        except ValueError:
            raise ReproError(
                f"--margins must be a comma list of dB values, got "
                f"{args.margins!r}"
            )
    else:
        margins = DEFAULT_CALIBRATION_MARGINS
    table = calibrate(
        margins_db=margins,
        trials=args.trials,
        payload_bytes=args.payload_bytes,
        seed=args.seed,
        runner=runner,
    )
    rows = []
    for (signal, offset_bin), entry in sorted(table.entries.items()):
        for m, measured, corrected in zip(
            table.margins_db, entry["measured"], entry["corrected"]
        ):
            rows.append(
                [
                    signal,
                    offset_bin,
                    m,
                    chip_flip_probability(m),
                    measured,
                    corrected,
                    abs(corrected - measured),
                ]
            )
    print(
        render_table(
            [
                "signal",
                "overlap",
                "margin dB",
                "analytic q",
                "measured q",
                "corrected q",
                "|resid|",
            ],
            rows,
            title=(
                f"hybrid channel calibration (seed {table.seed}, "
                f"{table.trials} trials/point, max residual "
                f"{table.max_fit_residual:.6f})"
            ),
            digits=4,
        )
    )
    if table.max_fit_residual > args.tolerance:
        log.error(
            "calibration fit residual exceeds tolerance",
            residual=f"{table.max_fit_residual:.6f}",
            tolerance=args.tolerance,
        )
        return 1
    if args.out:
        path = table.save(args.out)
        log.info("calibration artifact written", path=str(path))
    return 0


def cmd_field_scale(args: argparse.Namespace) -> int:
    """``repro field-scale``: slots/sec of the sharded multi-network grid.

    Runs the grid at each requested network count and prints the
    slots/sec-vs-node-count curve (nodes = networks × (1 + peripherals)).
    """
    import time as _time

    from repro.sim.field import FieldConfig
    from repro.sim.scenario import field_jammer_config, paper_defaults
    from repro.sim.shard import FieldGrid, GridConfig, InterferenceModel

    try:
        network_counts = [int(n) for n in args.networks.split(",") if n.strip()]
    except ValueError:
        raise ReproError(f"--networks must be a comma list, got {args.networks!r}")
    if not network_counts or any(n < 1 for n in network_counts):
        raise ReproError("--networks needs positive network counts")
    defaults = paper_defaults()
    field_cfg = FieldConfig(
        mdp=defaults.mdp,
        jammer=field_jammer_config(defaults, sweep_strategy=args.sweep_strategy),
        sampling=args.sampling,
    )
    interference = (
        InterferenceModel(radius_m=args.radius) if args.radius > 0 else None
    )
    rows = []
    for n in network_counts:
        grid = FieldGrid(
            GridConfig(
                field=field_cfg,
                num_networks=n,
                width_m=args.width,
                height_m=args.height,
                scheme=args.scheme,
                interference=interference,
            ),
            seed=args.seed,
            shards=args.shards,
            workers=args.workers,
            field_batch=args.field_batch,
        )
        start = _time.perf_counter()
        result = grid.run(args.slots)
        elapsed = _time.perf_counter() - start
        timing.REGISTRY.record(
            f"field_scale.n{n}", elapsed, items=n * args.slots
        )
        nodes = n * (1 + field_cfg.num_peripherals)
        rows.append(
            [
                n,
                nodes,
                result.shards,
                f"{n * args.slots / elapsed:.0f}",
                f"{result.mean_goodput:.1f}",
                f"{result.mean_utilization:.3f}",
            ]
        )
    print(
        render_table(
            [
                "networks",
                "nodes",
                "shards",
                "net-slots/s",
                "goodput pkts/slot",
                "utilization",
            ],
            rows,
            title=f"field grid scaling ({args.sampling} sampling, "
            f"{args.slots} slots, scheme {args.scheme})",
        )
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench diff``: fail on wall-clock regressions vs a baseline.

    Compares stage seconds in the current ``BENCH_<name>.json`` against the
    committed baseline. A stage regresses when it is more than
    ``--threshold`` times slower than the baseline *and* the baseline is
    above the noise floor (tiny stages are judged on absolute slack
    instead). Stages present on only one side are reported but never fail
    the diff — benchmarks gain and lose stages across PRs.
    """
    current_path = Path(args.current)
    baseline_path = (
        Path(args.baseline)
        if args.baseline is not None
        else Path("benchmarks/baselines") / current_path.name
    )
    current = _load_bench_stages(current_path)
    baseline = _load_bench_stages(baseline_path)
    threshold = args.threshold
    if threshold <= 1.0:
        raise ReproError("--threshold must be > 1.0")

    rows = []
    regressions = []
    for name in sorted(set(baseline) | set(current)):
        base_s = baseline.get(name)
        cur_s = current.get(name)
        if base_s is None:
            rows.append([name, "-", f"{cur_s:.4f}", "-", "new"])
            continue
        if cur_s is None:
            rows.append([name, f"{base_s:.4f}", "-", "-", "removed"])
            continue
        ratio = cur_s / base_s if base_s > 0 else float("inf")
        if base_s < BENCH_NOISE_FLOOR_S:
            # Below the floor, only an absolute blow-up past the floor
            # scaled by the threshold counts as a regression.
            regressed = cur_s > BENCH_NOISE_FLOOR_S * threshold
            verdict = "ok (noise floor)" if not regressed else "REGRESSED"
        else:
            regressed = ratio > threshold
            verdict = "ok" if not regressed else "REGRESSED"
        if regressed:
            regressions.append(name)
        rows.append([name, f"{base_s:.4f}", f"{cur_s:.4f}", f"{ratio:.2f}x", verdict])
    print(
        render_table(
            ["stage", "baseline (s)", "current (s)", "ratio", "verdict"],
            rows,
            title=f"bench diff vs {baseline_path} (threshold {threshold:g}x)",
        )
    )
    if regressions:
        log.error(
            "wall-clock regression detected",
            stages=",".join(regressions),
            threshold=f"{threshold:g}x",
        )
        return 1
    log.info("no wall-clock regressions", stages=len(rows))
    return 0


def cmd_selfplay(args: argparse.Namespace) -> int:
    """``repro selfplay``: train the learning jammer DQN-vs-DQN.

    Trains ``--pairs`` victim/jammer couples in lock-step, prints the
    per-pair learning curves, and optionally saves the best jammer's
    parameters for later deployment.
    """
    from repro.core.selfplay import SelfPlayConfig, train_selfplay

    config = SelfPlayConfig(
        pairs=args.pairs,
        episodes=args.episodes,
        steps_per_episode=args.steps,
    )
    log.info(
        "training self-play populations",
        pairs=config.pairs,
        episodes=config.episodes,
        steps_per_episode=config.steps_per_episode,
        seed=args.seed,
    )
    result = train_selfplay(config, seed=args.seed)
    tail = max(1, config.episodes // 4)
    rows = []
    for i in range(config.pairs):
        rows.append(
            [
                i,
                f"{result.jam_rates[i, 0]:.3f}",
                f"{result.jam_rates[i, -tail:].mean():.3f}",
                f"{result.victim_returns[i, -tail:].mean():.1f}",
                f"{result.jammer_returns[i, -tail:].mean():.1f}",
                "best" if i == result.best_pair else "",
            ]
        )
    print(
        render_table(
            [
                "pair",
                "jam rate ep0",
                "jam rate tail",
                "victim return",
                "jammer return",
                "",
            ],
            rows,
            title=f"self-play ({config.pairs} pairs x {config.episodes} "
            f"episodes x {config.steps_per_episode} slots)",
        )
    )
    if args.save:
        net = result.best_jammer.network()
        save_parameters(net, args.save)
        log.info(
            "saved best jammer artifact",
            path=args.save,
            pair=result.best_pair,
            parameters=parameter_count(net),
        )
    return 0


def _serve_store(args: argparse.Namespace):
    """Build the policy fleet a serve/loadgen run answers for.

    ``--artifact`` paths are loaded and cross-validated through
    ``load_policy_bundle``; otherwise ``--policies`` freshly initialised
    paper-geometry networks stand in (decision timing is identical —
    greedy inference does not care whether the weights converged).
    """
    from repro.nn.network import mlp
    from repro.rng import derive
    from repro.serve import PolicyStore

    if args.artifact:
        return PolicyStore.from_artifacts(args.artifact)
    mdp = MDPConfig()
    networks = [
        mlp(
            3 * 5,
            (48, 48),
            mdp.num_channels * mdp.num_power_levels,
            seed=derive(args.seed, f"serve-policy[{i}]"),
        )
        for i in range(args.policies)
    ]
    return PolicyStore(networks)


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: batched decision service under closed-loop load.

    Starts an in-process :class:`~repro.serve.server.DecisionServer`,
    drives it with the seeded asyncio load generator, drains it, and
    prints throughput plus the latency histogram's p50/p99.
    """
    import asyncio

    from repro.obs.metrics import METRICS
    from repro.serve import DecisionServer, LoadGenConfig, run_server_load

    store = _serve_store(args)
    config = LoadGenConfig(
        networks=args.networks,
        requests_per_network=args.requests,
        mean_think_time_s=args.think_ms / 1000.0,
        seed=args.seed,
    )

    async def run():
        server = DecisionServer(
            store,
            max_batch=args.batch,
            deadline_ms=args.deadline_ms,
            queue_limit=args.queue,
            admission=args.admission,
        )
        report = await run_server_load(server, config)
        await server.stop()
        return report

    with timing.stage("serve.run"):
        report = asyncio.run(run())
    latency = METRICS.histogram("serve.latency_s")
    batches = METRICS.histogram("serve.batch_size")
    print(
        render_table(
            [
                "policies",
                "networks",
                "decisions",
                "dec/s",
                "p50 ms",
                "p99 ms",
                "mean batch",
                "shed",
                "degraded",
            ],
            [
                [
                    store.num_policies,
                    config.networks,
                    report.decisions,
                    f"{report.decisions / max(report.duration_s, 1e-9):.0f}",
                    f"{latency.quantile(0.5) * 1e3:.3f}",
                    f"{latency.quantile(0.99) * 1e3:.3f}",
                    f"{batches.mean:.1f}",
                    report.shed,
                    report.degraded,
                ]
            ],
            title="decision service (in-process asyncio front-end)",
        )
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen``: deterministic virtual-time closed-loop run.

    Drives the synchronous micro-batcher on a virtual clock: one seed
    yields one request trace, byte for byte, so the printed summary (and
    the optional ``--out`` JSONL trace) is reproducible anywhere.
    """
    from repro.obs.metrics import METRICS
    from repro.serve import (
        LoadGenConfig,
        MicroBatcher,
        VirtualClock,
        run_closed_loop,
    )

    store = _serve_store(args)
    batcher = MicroBatcher(
        store,
        max_batch=args.batch,
        deadline_ms=args.deadline_ms,
        queue_limit=args.queue,
        admission=args.admission,
        clock=VirtualClock(),
    )
    config = LoadGenConfig(
        networks=args.networks,
        requests_per_network=args.requests,
        mean_think_time_s=args.think_ms / 1000.0,
        seed=args.seed,
    )
    with timing.stage("serve.loadgen"):
        report = run_closed_loop(batcher, config)
    if args.out:
        with open(args.out, "w") as handle:
            for when, network, action in report.trace:
                handle.write(
                    json.dumps(
                        {"t": when, "network": network, "action": action}
                    )
                    + "\n"
                )
        log.info("trace written", path=args.out, rows=len(report.trace))
    batches = METRICS.histogram("serve.batch_size")
    latency = METRICS.histogram("serve.latency_s")
    print(
        render_table(
            [
                "policies",
                "networks",
                "decisions",
                "virtual s",
                "p50 ms",
                "p99 ms",
                "mean batch",
                "shed",
                "degraded",
            ],
            [
                [
                    store.num_policies,
                    config.networks,
                    report.decisions,
                    f"{report.duration_s:.4f}",
                    f"{latency.quantile(0.5) * 1e3:.3f}",
                    f"{latency.quantile(0.99) * 1e3:.3f}",
                    f"{batches.mean:.1f}",
                    report.shed,
                    report.degraded,
                ]
            ],
            title=f"loadgen closed loop (virtual clock, seed {args.seed})",
        )
    )
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    # Imported lazily: the renderers are only needed by this command.
    from repro.obs.summary import render_summary
    from repro.obs.watch import render_dashboard

    doc = sink.read(args.trace)
    render = render_dashboard if doc.stream == sink.TELEM else render_summary
    print(render(doc, top=args.top))
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.openmetrics import export_telemetry

    prom_path, series_path = export_telemetry(
        args.telemetry, out=args.out, series_out=args.series_out
    )
    log.info(
        "telemetry exported",
        openmetrics=str(prom_path),
        series=str(series_path),
    )
    print(prom_path)
    print(series_path)
    return 0


def cmd_obs_watch(args: argparse.Namespace) -> int:
    from repro.obs.watch import watch

    return watch(
        args.telemetry,
        interval=args.interval,
        iterations=1 if args.once else None,
        top=args.top,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the ICDCS 2022 cross-technology "
        "anti-jamming paper.",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="silence status logging on stderr (results still print)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the MDP exactly")
    _add_mdp_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="train and evaluate the DQN")
    _add_mdp_args(p)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--eval-slots", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--num-seeds",
        type=int,
        default=1,
        help="train this many independently-seeded runs (seed, seed+1, ...) "
        "in parallel and keep the best",
    )
    knobs.add_flags(p, *_POOL_KNOBS, "REPRO_ENV_BATCH")
    p.add_argument("--save", help="path for the .npz parameter artifact")
    knobs.add_flags(p, "REPRO_CHANNEL")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument(
        "name",
        choices=list(registry.BY_NAME),
    )
    p.add_argument("--slots", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--sweep-strategy",
        choices=STRATEGY_NAMES,
        default="random",
        help="sweep jammer search order for figures 11a/11b/adv "
        "(the paper's jammer sweeps in 'random' order)",
    )
    knobs.add_flags(p, "REPRO_ADVERSARIES")
    p.add_argument(
        "--selfplay-episodes",
        type=int,
        default=8,
        help="self-play training episodes for the learning adversary in "
        "figure adv (only used when 'learning' is requested)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="write the figure-adv comparison results as a JSON artifact "
        "(figure adv only; any other figure refuses --out)",
    )
    p.add_argument(
        "--trials",
        type=int,
        default=32,
        help="waveform trials per point for figure 2b-wf",
    )
    knobs.add_flags(p, *_POOL_KNOBS, "REPRO_JAMMER_BANK")
    p.add_argument(
        "--train-rl",
        action="store_true",
        help="train a DQN for figs 11a/11b instead of using the exact optimum",
    )
    knobs.add_flags(p, "REPRO_CHANNEL")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "calibrate",
        help="fit (or verify) the hybrid channel's waveform correction table",
    )
    p.add_argument(
        "--trials",
        type=int,
        default=48,
        help="waveform trials per (signal, margin) grid point (default 48)",
    )
    p.add_argument(
        "--margins",
        default=None,
        help="comma list of effective jamming margins in dB "
        "(default the standard calibration grid)",
    )
    p.add_argument("--payload-bytes", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out",
        default=None,
        help="write the versioned calibration artifact here (JSON)",
    )
    p.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="verify an existing artifact instead of generating: regenerate "
        "from its stored parameters and require bit-identical measurements "
        "with the fit residual inside --tolerance",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=CALIBRATION_TOLERANCE,
        help="max allowed |corrected - measured| on the grid "
        f"(default {CALIBRATION_TOLERANCE})",
    )
    knobs.add_flags(p, *_POOL_KNOBS)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("emulate", help="run the EmuBee pipeline on hex bytes")
    p.add_argument("hex", help="ZigBee payload as hex, e.g. deadbeef")
    p.set_defaults(func=cmd_emulate)

    p = sub.add_parser(
        "obs", help="inspect RUN_* traces and TELEM_* telemetry"
    )
    obs_sub = p.add_subparsers(dest="obs_action", required=True)

    ps = obs_sub.add_parser(
        "summary",
        help="summarise a RUN_<name>.jsonl trace (or TELEM_* dashboard once)",
    )
    ps.add_argument("trace", help="path to the trace written under REPRO_TRACE")
    ps.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many counters/events to list (default 10)",
    )
    ps.set_defaults(func=cmd_obs)

    pe = obs_sub.add_parser(
        "export",
        help="export TELEM_*.jsonl as OpenMetrics .prom + merged series JSONL",
    )
    pe.add_argument(
        "telemetry", help="path to the telemetry written under REPRO_TELEM"
    )
    pe.add_argument(
        "--out", default=None, help="OpenMetrics path (default <stem>.prom)"
    )
    pe.add_argument(
        "--series-out",
        default=None,
        help="merged series path (default <stem>_series.jsonl)",
    )
    pe.set_defaults(func=cmd_obs_export)

    pw = obs_sub.add_parser(
        "watch", help="live fleet dashboard over a TELEM_*.jsonl file"
    )
    pw.add_argument(
        "telemetry", help="path to the telemetry written under REPRO_TELEM"
    )
    pw.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2)",
    )
    pw.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    pw.add_argument(
        "--top",
        type=int,
        default=5,
        help="how many hottest networks/counters to list (default 5)",
    )
    pw.set_defaults(func=cmd_obs_watch)

    p = sub.add_parser(
        "field-scale",
        help="scale the sharded multi-network field grid and report slots/sec",
    )
    p.add_argument(
        "--networks",
        default="256",
        help="comma list of network counts to sweep (default 256)",
    )
    p.add_argument("--slots", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scheme",
        choices=SCHEMES,
        default="optimal",
        help="anti-jamming scheme every network runs (default optimal)",
    )
    p.add_argument(
        "--sampling",
        choices=["aggregate", "packet"],
        default="aggregate",
        help="data-phase pricing: 'aggregate' batches thousands of networks "
        "per slot, 'packet' is the paper's exact per-packet loop",
    )
    p.add_argument(
        "--sweep-strategy",
        choices=STRATEGY_NAMES,
        default="random",
        help="sweep jammer search order (default 'random', the paper's)",
    )
    p.add_argument("--width", type=float, default=100.0, help="field width, m")
    p.add_argument("--height", type=float, default=100.0, help="field height, m")
    p.add_argument(
        "--radius",
        type=float,
        default=0.0,
        help="cross-network co-channel interference radius in metres "
        "(0 disables interference)",
    )
    knobs.add_flags(
        p, "REPRO_SHARDS", "REPRO_FIELD_BATCH", "REPRO_CHANNEL", *_POOL_KNOBS
    )
    p.set_defaults(func=cmd_field_scale)

    p = sub.add_parser(
        "selfplay",
        help="train the learning jammer DQN-vs-DQN and print learning curves",
    )
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--episodes", type=int, default=30)
    p.add_argument("--steps", type=int, default=200, help="slots per episode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--save", help="path for the best jammer's .npz parameter artifact"
    )
    p.set_defaults(func=cmd_selfplay)

    def _add_serve_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--networks", type=int, default=64, help="simulated client networks"
        )
        p.add_argument(
            "--requests",
            type=int,
            default=32,
            help="decisions each network asks for (default 32)",
        )
        p.add_argument(
            "--policies",
            type=int,
            default=4,
            help="fresh paper-geometry policies to serve when no artifacts "
            "are given (default 4)",
        )
        p.add_argument(
            "--artifact",
            nargs="+",
            default=None,
            help=".npz policy artifacts to serve (e.g. from "
            "'repro selfplay --save'); geometries are cross-validated",
        )
        knobs.add_flags(
            p,
            "REPRO_SERVE_BATCH",
            "REPRO_SERVE_DEADLINE_MS",
            "REPRO_SERVE_QUEUE",
            "REPRO_SERVE_ADMISSION",
        )
        p.add_argument(
            "--think-ms",
            type=float,
            default=0.5,
            help="mean exponential client think time in ms (default 0.5)",
        )
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "serve",
        help="run trained policies as an in-process batched decision service",
    )
    _add_serve_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="deterministic virtual-time closed-loop load run (same seed, "
        "same trace)",
    )
    _add_serve_args(p)
    p.add_argument("--out", default=None, help="write the trace as JSONL")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "bench", help="compare a BENCH_<name>.json against a committed baseline"
    )
    p.add_argument("action", choices=["diff"], help="comparison to run")
    p.add_argument("current", help="freshly generated BENCH_<name>.json")
    p.add_argument(
        "--baseline",
        default=None,
        help="baseline artifact (default: benchmarks/baselines/<same name>)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="fail when a stage is more than this many times slower than "
        "the baseline (default 2.0)",
    )
    p.set_defaults(func=cmd_bench)
    return parser


#: ``repro obs`` sub-actions; anything else after ``obs`` is a trace path
#: from the pre-subcommand CLI and routes to ``summary`` (back-compat).
_OBS_ACTIONS = frozenset({"summary", "export", "watch"})


def _obs_shim(argv: list[str]) -> list[str]:
    """Insert ``summary`` after a bare ``repro obs <file>`` invocation."""
    for i, token in enumerate(argv):
        if token.startswith("-"):
            continue  # top-level flags (-q/--quiet) precede the command
        if token == "obs":
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            if nxt is not None and nxt not in _OBS_ACTIONS:
                return argv[: i + 1] + ["summary"] + argv[i + 1 :]
        return argv
    return argv


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_obs_shim(argv))
    obs_log.configure(quiet=args.quiet)
    # Knob flags go to the environment before anything resolves a knob, so
    # the trace manifest records them too, and are restored on the way
    # out, so a later main() in the same process starts from the caller's
    # environment.
    exported = knobs.export_flags(args)
    try:
        # ``obs`` reads traces/telemetry; it must never record into the
        # very file it is asked to summarise when REPRO_TRACE/REPRO_TELEM
        # point at it.
        if args.command == "obs":
            sink.disable()
        else:
            obs_trace.start_run(command=args.command)
        with timing.stage(f"cli.{args.command}"):
            with obs_trace.span(f"cli/{args.command}"):
                return args.func(args)
    except ReproError as exc:
        log.error("command failed", command=args.command, error=str(exc))
        return 1
    finally:
        # Telemetry closes first, so its log line still lands in the trace.
        for stream, what in ((sink.TELEM, "telemetry"), (sink.RUN, "trace")):
            path = sink.finish(stream).get(stream)
            if path is not None:
                log.info(f"{what} written", path=str(path))
        knobs.restore_flags(exported)


if __name__ == "__main__":
    sys.exit(main())
