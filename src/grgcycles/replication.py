"""Seeds, worker counts and the one replication map every study runs on.

Reproducibility contract: every random stream of a study comes from
``SeedSequence(master_seed, spawn_key=(replication, stream))``, and a study
cuts its work into units whose results do not depend on which process runs
them.  ``map_replications`` returns the results in unit order for any
worker count, so a study that aggregates them in that order writes the same
bytes whether it ran in this process or on a pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List

import numpy as np

__all__ = ["WORKERS_ENV", "replication_seed", "resolve_workers",
           "map_replications"]

WORKERS_ENV = "GRGCYCLES_WORKERS"
_MAX_CHUNK = 8   # units sent to a pool worker at a time


def replication_seed(master_seed: int, replication: int,
                     stream: int = 0) -> np.random.SeedSequence:
    """Derived seed for one replication; stream 0 = weights, 1 = graph."""
    return np.random.SeedSequence(master_seed,
                                  spawn_key=(replication, stream))


def resolve_workers(requested: int = 0) -> int:
    """Worker count: explicit request, else environment, else 1."""
    if requested and requested > 0:
        return requested
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={env!r} is not an integer") from None
        if value > 0:
            return value
    return 1


def map_replications(job: Callable, units: Iterable,
                     workers: int = 1) -> List:
    """``[job(unit) for unit in units]``, on up to ``workers`` processes.

    With one worker or one unit the units run in this process.  Otherwise
    one pool of ``min(workers, len(units))`` processes runs them, handed out
    in chunks of at most eight units; ``job`` and the units must pickle.
    """
    units = list(units)
    processes = min(workers, len(units))
    if processes <= 1:
        return [job(unit) for unit in units]
    chunksize = min(_MAX_CHUNK, -(-len(units) // processes))
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(job, units, chunksize=chunksize))
