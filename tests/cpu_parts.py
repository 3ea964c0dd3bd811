"""Force the CPU count that the package's thread parts see, and read the part
count back: shared by the tests of the sampler and of the ratio estimator.

Both take their part count from ``replication._part_count`` and run their
parts with ``replication._on_threads``.
"""

import os

from grgcycles import graphs, ratios, replication


def force_parts(monkeypatch, cpus):
    """Let the thread helpers see ``cpus`` CPUs; returns the list that
    records the part count of each thread map that the sampler or the ratio
    estimator runs in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus),
                        raising=False)
    used = []

    def record(job, parts):
        used.append(parts)
        return replication._on_threads(job, parts)

    for module in (graphs, ratios):
        monkeypatch.setattr(module, "_on_threads", record)
    return used


def part_count(unit):
    """The thread helpers' part count in the process that runs ``unit``."""
    return replication._part_count()
