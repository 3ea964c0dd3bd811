"""Force the CPU count that the package's thread parts see, and read the part
count back: shared by the tests of the sampler and of the ratio estimator.

Both cut their draw stream with ``replication._on_stream``, which takes its
part count from ``replication._part_count`` and runs its parts with
``replication._on_threads``.
"""

import os

from grgcycles import replication

_ON_THREADS = replication._on_threads


def force_parts(monkeypatch, cpus):
    """Let the thread helpers see ``cpus`` CPUs; returns the list that
    records the part count of each thread map that the sampler or the ratio
    estimator runs in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus),
                        raising=False)
    used = []

    def record(job, parts):
        used.append(parts)
        return _ON_THREADS(job, parts)

    monkeypatch.setattr(replication, "_on_threads", record)
    return used


def part_count(unit):
    """The thread helpers' part count in the process that runs ``unit``."""
    return replication._part_count()
