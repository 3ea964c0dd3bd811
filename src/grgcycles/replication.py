"""Seeds, the one replication map on which the census runs, and the split
draw streams of the graph sampler and the ratio estimator.

Reproducibility contract: every random stream of a study comes from
``SeedSequence(master_seed, spawn_key=(replication, stream))``.  A census
unit is one replication, whose count does not depend on the thread that
runs it, and ``map_replications`` returns the counts in unit order for any
worker count: the same bytes on this thread or on several.

This module also owns the package's threads, and ``_on_threads`` is the
one place that starts them.  ``map_replications`` runs contiguous blocks
of census units on it, one block per thread.  ``_on_stream`` cuts one
seeded draw stream into parts: the pairs of a graph (a unit is a row) or
the replications of a Monte Carlo estimate (a unit is a chunk).  The units
are cut into contiguous parts balanced by draws, as many as ``_cpus`` lists
(one per CPU in the calling thread's mask, so one on a placed block of the
replication map) and no more than chunks of draws.  Each part
rebuilds the PCG64 generator from the seed, advances it past the draws of
the units before its own and consumes its units in order, so every unit
sees the draws of one sequential generator and the results are
byte-identical for any part count.  A part's scratch buffers are its
own, one draw block of ``_DRAW_BLOCK`` uniforms (or one row, if longer).
The Monte Carlo draw buffers are made on the calling thread before the
parts start, and the sampler's pair buffer in the part's own thread: the
other way round, the peak RSS of the ``bounds_ratio`` benchmark rose by
0.5 MB (4 of 4 pairs; a two-point ratio study alone, n = 64 and 4096,
moved by less than 0.15 MB) and that of a census of n = 2000 graphs by
0.7 MB.
``_on_threads`` runs part 0 on the calling thread and the rest on helper
threads, all joined before the results come back in unit order.

Part k runs on the k-th CPU of the set that ``_cpus`` lists, alone:
its thread's affinity mask is that one CPU while it runs, and the caller's
own mask comes back after part 0.  Where the kernel does not balance load
across CPUs (a cpuset with ``sched_load_balance = 0``), a helper can start
on its creator's CPU and stay there, so unplaced parts can time-share the
caller's one core while the others idle.  A part whose CPU cannot be set
(no ``os.sched_setaffinity``, or an ``OSError`` because the CPU has left
the set) runs where it is; no draw depends on where a part runs.
"""

from __future__ import annotations

import numbers
import os
from typing import Callable, Iterable, List

import numpy as np

__all__ = ["replication_seed", "map_replications"]

# Most uniforms that a part of a split stream draws per ``rng.random`` call
# (512 kB of doubles), unless one row is longer: the sampler's chunk of
# pairs and the estimator's block of replications.
_DRAW_BLOCK = 1 << 16


def replication_seed(master_seed: int, replication: int,
                     stream: int = 0) -> np.random.SeedSequence:
    """Derived seed for one replication; stream 0 = weights, 1 = graph."""
    return _seed_sequence(master_seed, (replication, stream))


def _seed_sequence(seed, spawn_key=()) -> np.random.SeedSequence:
    """``SeedSequence(seed, spawn_key=spawn_key)``, refusing a negative
    integer seed by name."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ValueError(f"seed={seed} is negative")
    return np.random.SeedSequence(seed, spawn_key=spawn_key)


def map_replications(job: Callable, units: Iterable,
                     workers: int = 1) -> List:
    """``[job(unit) for unit in units]``, on up to ``workers`` threads.

    The units are cut into ``min(workers, len(units), len(_cpus()))``
    contiguous blocks, one per part of ``_on_threads``: one block runs on
    this thread and starts no other.  A placed block sees a one-CPU mask,
    so its units sample their graphs in one part and threads x parts <=
    CPUs; a block whose thread cannot be placed samples on every CPU, with
    the same bytes.  Every study runs at least one replication on at least
    one worker, so no units, or fewer than one worker, is an error.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} is below 1")
    units = list(units)
    if not units:
        raise ValueError("replications must be at least 1")
    blocks = min(workers, len(units), len(_cpus()))
    cuts = [b * len(units) // blocks for b in range(blocks + 1)]

    def run_block(b):
        return [job(unit) for unit in units[cuts[b]:cuts[b + 1]]]

    return [result for block in _on_threads(run_block, blocks)
            for result in block]


def _cpus() -> list:
    """The CPUs this thread may use, in ascending order: its affinity
    mask, or all ``os.cpu_count()`` where the OS keeps none."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _on_cpu(cpu: int, job: Callable, k: int):
    """``job(k)`` on this thread with its affinity mask set to ``cpu``
    alone, and the thread's own mask restored after it; where the mask
    cannot be set, ``job(k)`` where the thread is."""
    if not hasattr(os, "sched_setaffinity"):
        return job(k)
    mask = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, (cpu,))
    except OSError:
        return job(k)
    try:
        return job(k)
    finally:
        os.sched_setaffinity(0, mask)


def _on_threads(job: Callable, parts: int) -> list:
    """``[job(k) for k in range(parts)]``, part 0 on this thread and each
    other part on a helper thread, part k on the k-th CPU of ``_cpus()``
    (see the module docstring).  Every helper is joined before this
    returns, and a helper's exception is raised here."""
    if parts == 1:
        return [job(0)]
    # imported here: it costs about 10 ms, and one part never needs it
    from concurrent.futures import ThreadPoolExecutor
    cpus = _cpus()

    def placed(k):
        return _on_cpu(cpus[k % len(cpus)], job, k)

    # the helpers start before this thread is placed, so a helper that
    # cannot place itself keeps the caller's whole mask, not part 0's CPU
    with ThreadPoolExecutor(parts - 1) as helpers:
        rest = [helpers.submit(placed, k) for k in range(1, parts)]
        return [placed(0)] + [future.result() for future in rest]


def _on_stream(job: Callable, seed, offsets: np.ndarray, chunk: int,
               scratch: Callable = tuple) -> list:
    """The items that ``job`` returns for each part of one seeded draw
    stream, in unit order (see the module docstring).

    Unit ``j`` takes the draws ``offsets[j]`` up to ``offsets[j + 1]``, and
    there are no more parts than chunks of ``chunk`` draws.  Part ``k``
    calls ``job(rng, first, stop, *scratch_k)`` for its units
    ``first..stop - 1``, where ``rng`` stands at draw ``offsets[first]`` and
    ``scratch_k = scratch()`` (no buffers by default) is made on this
    thread; ``job`` returns a list.  ``seed`` is an int, a ``SeedSequence`` or None, which draws its
    entropy once.
    """
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise TypeError("seed must be an int or a SeedSequence: each part "
                        "rebuilds its generator from it")
    if not isinstance(seed, np.random.SeedSequence):
        seed = _seed_sequence(seed)
    # part k takes units cuts[k]..cuts[k + 1] - 1, about total / parts draws
    total = int(offsets[-1])
    parts = min(len(_cpus()), -(-total // chunk))
    cuts = np.append(offsets.searchsorted(np.arange(parts) * total // parts),
                     len(offsets) - 1)
    buffers = [scratch() for _ in range(parts)]

    def run_part(k):
        first = int(cuts[k])
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(int(offsets[first]))
        return job(rng, first, int(cuts[k + 1]), *buffers[k])

    return [item for part in _on_threads(run_part, parts) for item in part]
