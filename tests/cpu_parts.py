"""Force the CPU count that the package's thread parts see, and read the part
count back: shared by the tests of the sampler and of the ratio estimator.

Both cut their draw stream with ``replication._on_stream``, which takes its
part count from ``replication._part_count`` and runs its parts with
``replication._on_threads``, each part on a CPU of its own.
"""

import os
import threading

from grgcycles import replication

_ON_THREADS = replication._on_threads


def force_parts(monkeypatch, cpus):
    """Let the thread helpers see ``cpus`` CPUs; returns the list that
    records the part count of each thread map that the sampler or the ratio
    estimator runs in this process.

    The affinity masks are faked per thread, since the forced CPUs need not
    exist: each thread starts with all ``cpus`` of them, and
    ``os.sched_setaffinity`` sets the calling thread's mask.  Each thread
    map checks that part k runs under the k-th CPU alone and that the
    caller's mask comes back after it, also when a part raises.
    """
    every = frozenset(range(cpus))
    masks = {}

    def get_mask(pid):
        return set(masks.get(threading.get_ident(), every))

    def set_mask(pid, mask):
        masks[threading.get_ident()] = frozenset(mask)

    monkeypatch.setattr(os, "sched_getaffinity", get_mask, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", set_mask, raising=False)
    used = []

    def record(job, parts):
        used.append(parts)
        placed = {}

        def observed(k):
            placed[k] = get_mask(0)
            return job(k)

        try:
            return _ON_THREADS(observed, parts)
        finally:
            assert get_mask(0) == every, "the caller's mask did not return"
            if parts > 1:
                assert placed == {k: {k} for k in placed}, placed

    monkeypatch.setattr(replication, "_on_threads", record)
    return used


def part_count(unit):
    """The thread helpers' part count in the process that runs ``unit``."""
    return replication._part_count()
