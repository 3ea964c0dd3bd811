"""Seeds, and the one replication map, on which the census runs.

Reproducibility contract: every random stream of a study comes from
``SeedSequence(master_seed, spawn_key=(replication, stream))``.  A census
unit is one replication, whose count does not depend on the process that
runs it, and ``map_replications`` returns the counts in unit order for any
worker count: the same bytes in this process or on a pool.

This module also owns the package's threads.  The graph sampler cuts a
graph's pair stream, and the ratio estimator a Monte Carlo estimate's chunk
list, into ``_part_count()`` parts, one per CPU the process may use, and
runs them with ``_on_threads``; a pool worker runs one part, so that
workers x parts <= CPUs.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, List

import numpy as np

__all__ = ["replication_seed", "map_replications"]

_MAX_CHUNK = 8   # units sent to a pool worker at a time


def replication_seed(master_seed: int, replication: int,
                     stream: int = 0) -> np.random.SeedSequence:
    """Derived seed for one replication; stream 0 = weights, 1 = graph."""
    if master_seed < 0:
        raise ValueError(f"seed={master_seed} is negative")
    return np.random.SeedSequence(master_seed,
                                  spawn_key=(replication, stream))


def map_replications(job: Callable, units: Iterable,
                     workers: int = 1) -> List:
    """``[job(unit) for unit in units]``, on up to ``workers`` processes.

    With one worker or one unit the units run in this process.  Otherwise
    one pool of ``min(workers, len(units))`` processes runs them, handed out
    in chunks of at most eight units; ``job`` and the units must pickle.
    Every study runs at least one replication on at least one worker, so
    no units, or fewer than one worker, is an error.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} is below 1")
    units = list(units)
    if not units:
        raise ValueError("replications must be at least 1")
    processes = min(workers, len(units))
    if processes <= 1:
        return [job(unit) for unit in units]
    # imported here: loading the pool machinery costs about 20 ms, and a
    # study on one worker never needs it
    from concurrent.futures import ProcessPoolExecutor
    chunksize = min(_MAX_CHUNK, -(-len(units) // processes))
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(job, units, chunksize=chunksize))


def _part_count() -> int:
    """Parts to cut one unit of work into, at most: one per CPU this
    process may use, but one in a pool worker of the replication map, so
    that workers x parts <= CPUs."""
    # a process that never loaded multiprocessing is no pool worker, and
    # need not pay the import (about 12 ms)
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_threads(job: Callable, parts: int) -> list:
    """``[job(k) for k in range(parts)]``, part 0 on this thread and each
    other part on a helper thread.  Every helper is joined before this
    returns, and a helper's exception is raised here."""
    if parts == 1:
        return [job(0)]
    # imported here: it costs about 10 ms, and one part never needs it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(parts - 1) as helpers:
        rest = [helpers.submit(job, k) for k in range(1, parts)]
        return [job(0)] + [future.result() for future in rest]
