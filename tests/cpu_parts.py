"""Force the CPU count that the package's thread maps see: shared by the
tests of the sampler, the ratio estimator and the replication map.

The sampler and the estimator cut their draw stream with
``replication._on_stream``, which takes its part count from the CPUs that
``replication._cpus`` lists and runs its parts with
``replication._on_threads``, each part on a CPU of its own; the
replication map runs its blocks of units there too.
"""

import os
import threading

from grgcycles import replication

_ON_THREADS = replication._on_threads


def force_parts(monkeypatch, cpus):
    """Let the thread helpers see ``cpus`` CPUs; returns the list that
    records the part count of each thread map run in this process.

    The affinity masks are faked per thread, since the forced CPUs need not
    exist: each thread starts with all ``cpus`` of them, and
    ``os.sched_setaffinity`` sets the calling thread's mask.  Each thread
    map checks that the caller's mask comes back after it, also when a
    part raises, and a map of several parts that part k runs under the
    k-th CPU alone.
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
        before = get_mask(0)
        placed = {}

        def observed(k):
            placed[k] = get_mask(0)
            return job(k)

        try:
            return _ON_THREADS(observed, parts)
        finally:
            assert get_mask(0) == before, "the caller's mask did not return"
            if parts > 1:
                assert placed == {k: {k} for k in placed}, placed

    monkeypatch.setattr(replication, "_on_threads", record)
    return used
