"""Module-level task functions for runner tests (pool workers pickle by
reference, so these cannot live inside test functions)."""

import os
import time

from repro.rng import derive


def square(spec):
    return spec * spec


def seeded_specs(n, seed, stream="task"):
    """Specs ``(i, seed, stream)`` for :func:`pair_with_draw`, ``i < n``."""
    return [(i, seed, stream) for i in range(n)]


def pair_with_draw(spec):
    """Seeded task: returns ``i`` and one draw from its private stream.

    The stream is ``derive(seed, f"{stream}[{i}]")``: it depends on the
    payload alone, never on the worker, dispatch order or retry attempt.
    """
    i, seed, stream = spec
    return (i, float(derive(seed, f"{stream}[{i}]").random()))


def explode(spec):
    raise ValueError(f"task {spec} exploded")


def explode_odd(spec):
    """Fails permanently for odd specs, succeeds for even ones."""
    if spec % 2:
        raise ValueError(f"task {spec} exploded")
    return spec * spec


def sleeper(spec):
    """Sleeps ``spec[1]`` seconds, then returns ``spec[0]``."""
    value, duration = spec
    time.sleep(duration)
    return value


def flaky_file(spec):
    """Fails the first ``fail_times`` attempts, tallied in a counter file.

    ``spec`` is ``(value, counter_path, fail_times)``; attempts append one
    byte to the counter file, so the function recovers exactly after the
    requested number of failures — across processes.
    """
    value, counter_path, fail_times = spec
    with open(counter_path, "ab") as fh:
        fh.write(b".")
    if os.path.getsize(counter_path) <= fail_times:
        raise RuntimeError(f"flaky task {value} (planned failure)")
    return value * 10


def kill_worker_once(spec):
    """First caller hard-kills its worker process; later callers succeed.

    ``spec`` is ``(value, marker_path)``. Marker creation is atomic
    (O_EXCL), so exactly one task across the whole pool dies — simulating
    an OOM-killed worker that breaks the ProcessPoolExecutor.
    """
    value, marker_path = spec
    try:
        fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value * 2
    os.close(fd)
    os._exit(13)
