"""End-to-end benchmark of the repository: train, field grid, serve.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds T] [--trace 0|1] [--budget full|smoke] [--out DIR]

The first stdout line is a header recording the machine and every knob
the workloads read. Then each metric is one JSON line ``{workload,
metric, value, unit, n, spread, kind}``, where ``kind`` says whether the
metric is one of ``BENCHMARK.json``'s end-to-end metrics, one of its
per-layer metrics, or a detail. The last line is the result object
``{correct, attempted, failed, metrics}``: the end-to-end metrics of an
untraced run, or the per-layer metrics of a traced one (``--trace 1``),
which also writes ``TRACE_<workload>.json``. The exit code is 0 only if
every output check passed.

End-to-end times and rates are corrected for the speed the machine gave
the process while it was measured (see ``workloads.probed``); the raw
values are detail metrics.

Every workload runs in this one process, with ``REPRO_WORKERS=1``,
``REPRO_SHARDS=1`` and BLAS pinned to one thread. Inherited ``REPRO_*``
variables are removed before the library is imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Knobs every workload runs under; any other REPRO_* takes its default.
PINNED_KNOBS = {"REPRO_WORKERS": "1", "REPRO_SHARDS": "1"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Scrub inherited ``REPRO_*`` knobs and pin threads (before numpy)."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(PINNED_KNOBS)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def header(args, import_s: float, runs: dict, mod, np) -> dict:
    return {
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(np),
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
        "seed": args.seed,
        "seconds_per_workload": args.seconds,
        "budget": args.budget,
        "trace": bool(args.trace),
        "setup_repeats": {
            "min": mod.SETUP_REPEATS,
            "max": mod.SETUP_MAX,
            "until_s": mod.SETUP_SECONDS,
        },
        "probe": {
            "reference_s": mod.PROBE_REFERENCE_S,
            "per_side": mod.PROBES_PER_SIDE,
            "exponent": mod.SLOWDOWN_EXPONENT,
        },
        "import_s": import_s,
        "workloads": {
            name: {"sizes": workload.sizes, "knobs": workload.knobs()}
            for name, workload in runs.items()
        },
    }


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def run_workload(workload, args, import_s: float, spec: dict, mod) -> dict:
    """Set up, warm up, measure and check one workload; returns its record."""
    names = {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    wanted = names["per_layer" if args.trace else "end_to_end"]
    errors: list[str] = []
    lines: list[dict] = []
    outcome = mod.Outcome()
    try:
        setups = mod.time_setups(workload)
        workload.warm_up()
        if args.trace:
            outcome = workload.measure_traced(args.seconds)
        else:
            outcome = workload.measure(args.seconds)
            outcome.add_timing("setup_s", setups.corrected, "s")
            outcome.add_timing("setup_raw_s", setups.walls, "s")
            outcome.add("import_s", import_s, "s", 1)
        errors += workload.check()
    except Exception:  # noqa: BLE001 - report the failure as a result
        traceback.print_exc()
        errors.append(f"{workload.name}: raised {sys.exc_info()[1]!r}")
        outcome.failed += 1

    values = {}
    for metric in outcome.metrics:
        kind = next((k for k, v in names.items() if metric.name in v), "detail")
        if kind != "detail" and names[kind][metric.name] != metric.unit:
            errors.append(
                f"{workload.name}: {metric.name} measured in {metric.unit!r}, "
                f"BENCHMARK.json says {names[kind][metric.name]!r}"
            )
        values[metric.name] = metric.value
        lines.append(
            {
                "workload": workload.name,
                "metric": metric.name,
                "value": metric.value,
                "unit": metric.unit,
                "n": metric.n,
                "spread": metric.spread,
                "kind": kind,
            }
        )
    if args.trace:
        # A layer the workload never enters reads 0.
        for name, unit in wanted.items():
            if name not in values and not errors:
                values[name] = 0.0
                lines.append(
                    {
                        "workload": workload.name,
                        "metric": name,
                        "value": 0.0,
                        "unit": unit,
                        "n": 0,
                        "spread": 0.0,
                        "kind": "per_layer",
                    }
                )
    for line in lines:
        emit(line)
    missing = [name for name in wanted if name not in values]
    if missing and not errors:
        errors.append(f"{workload.name}: no value for {', '.join(missing)}")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "lines": lines,
        "errors": errors,
        "result": {
            "correct": not errors,
            "attempted": max(outcome.attempted, 1),
            "failed": outcome.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in wanted.items()
                if name in values
            },
        },
    }


def write_record(out: Path, workload, args, head: dict, record: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    doc = {"header": head, **record}
    if args.trace:
        tracer = workload.tracer
        if tracer is not None and tracer.rounds:
            doc["rounds"] = [
                {"wall_s": r.wall_s, "self_s": r.self_s, "calls": r.calls}
                for r in tracer.rounds
            ]
            doc["spans"] = tracer.export()
        path = out / f"TRACE_{workload.name}.json"
    else:
        path = out / f"{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="measured seconds per workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--budget", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(
            f"run.py: expected the library under {SRC} and {SPEC_PATH}; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec)
    pin_environment()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    mod = importlib.import_module("workloads")
    import_s = time.perf_counter() - start
    np = sys.modules["numpy"]

    names = list(mod.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {
        name: mod.WORKLOADS[name](args.seed, mod.BUDGETS[args.budget][name])
        for name in names
    }
    head = header(args, import_s, runs, mod, np)
    emit({"header": head})
    results = {}
    for name, workload in runs.items():
        record = run_workload(workload, args, import_s, spec, mod)
        write_record(args.out, workload, args, head, record)
        results[name] = record["result"]

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    emit(final)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
