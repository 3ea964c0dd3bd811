"""The four benchmark workloads, each a study run through the package's
public functions.

Every workload provides:

* ``takes_workers``: whether ``study`` uses its worker count, so that
  timing it at workers=2 as well means something;
* ``warm_up()``: the same study at a tiny size, run once during set-up;
* ``study(seed, workers)``: the timed study, returning a digest of its
  results (plain lists and numbers) that the checks compare;
* ``instrument(tracer)``: the public functions the study calls, wrapped
  with spans named ``<module>.<what>`` and with counters;
* ``oracles(seed, digest, checker)``: checks against independent results.

Weights are Pareto(9.5, 10, 1) unless stated; seeds follow the package's
contract ``SeedSequence(seed, spawn_key=(replication, stream))``.
"""

from __future__ import annotations

import numpy as np

from grgcycles import chen_stein, cycles, experiments, graphs, spectral
from grgcycles import weights as weights_mod
from grgcycles.experiments import ExperimentConfig
from grgcycles.ratios import exact_t_moment
from grgcycles.weights import WeightSpec

PARETO = WeightSpec.pareto_shifted(9.5, 10, 1)
TWO_POINT = WeightSpec.two_point(1, 2, 0.5)


def _seed(seed, replication, stream):
    return np.random.SeedSequence(seed, spawn_key=(replication, stream))


def _count_graph(counts, arguments, graph):
    degree = np.diff(graph.indptr)
    counts["graphs.pairs"] += graph.n * (graph.n - 1) // 2
    counts["graphs.edges"] += graph.m
    counts["graphs.wedges"] += int((degree * (degree - 1) // 2).sum())
    counts["graphs.max_degree"] = max(counts["graphs.max_degree"],
                                      int(degree.max()))


def _count_found(counts, arguments, census):
    counts["cycles.found"] += census.count


def _wedge_ends(graph):
    """Endpoints (u, w), u < w, of every path u - v - w, one per wedge."""
    degree = np.diff(graph.indptr)
    pos = np.arange(graph.indices.size)
    row_end = np.repeat(graph.indptr[1:], degree)
    us, ws = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for step in range(1, int(degree.max(initial=0))):
        ok = pos + step < row_end
        us.append(graph.indices[pos[ok]])
        ws.append(graph.indices[pos[ok] + step])
    return np.concatenate(us), np.concatenate(ws)


def wedge_cycle_count(graph, k):
    """Independent 3- or 4-cycle count from wedges.  Each triangle closes
    three wedges; each 4-cycle is a pair of common neighbours of each of
    its two diagonals, so it is counted twice by sum C(codegree, 2)."""
    us, ws = _wedge_ends(graph)
    keys = us * graph.n + ws
    if k == 3:
        edges = graph.edge_array()
        closed = np.isin(keys, edges[:, 0] * graph.n + edges[:, 1])
        return int(closed.sum()) // 3
    if k == 4:
        _, codegree = np.unique(keys, return_counts=True)
        return int((codegree * (codegree - 1) // 2).sum()) // 2
    raise ValueError("the wedge oracle covers k = 3 and k = 4")


class Census:
    """``run_census`` at n=2000.  Sixteen replications make two chunks of
    the runner's chunk size 8, so two workers each get one."""

    n = 2000
    replications = 16
    takes_workers = True

    def __init__(self, k):
        self.k = k

    def _config(self, seed, workers, n, replications):
        return ExperimentConfig(spec=PARETO, n=n, k=self.k,
                                replications=replications, seed=seed,
                                workers=workers)

    def warm_up(self):
        experiments.run_census(self._config(0, 1, 60, 2))

    def study(self, seed, workers):
        result = experiments.run_census(
            self._config(seed, workers, self.n, self.replications))
        summary = result.summary
        return {"counts": list(result.counts),
                **{key: summary[key] for key in
                   ("mean", "variance", "tv_sup", "qq_correlation")}}

    def instrument(self, tracer):
        tracer.wrap(experiments, "sample_weights", "weights.sample")
        tracer.wrap(experiments, "sample_grg", "graphs.sample", _count_graph)
        tracer.wrap(experiments, "count_k_cycles", "cycles.census",
                    _count_found)
        for name in ("poisson_rate", "qq_table", "tv_distance"):
            tracer.wrap(experiments, name, "poisson.summary")

    def oracles(self, seed, digest, checker):
        counts, wedge_counts = [], []
        for rep in range(self.replications):
            w = weights_mod.sample_weights(PARETO, self.n, _seed(seed, rep, 0))
            graph = graphs.sample_grg(w, _seed(seed, rep, 1))
            counts.append(cycles.count_k_cycles(graph, self.k).count)
            wedge_counts.append(wedge_cycle_count(graph, self.k))
        checker.compare("oracle.derived_counts", digest["counts"], counts)
        checker.compare("oracle.wedge_counts", digest["counts"], wedge_counts)


class BoundsRatio:
    """Exact b1/b2 bound terms and ratio-statistic estimates: weight draws
    only, no graphs.  The runners ignore ``workers`` today; it is timed at
    workers=2 anyway so that a shared replication map can show a gain."""

    takes_workers = True

    dense_grid = (250, 500, 1000, 2000)
    candidate_grid = (8, 10, 12, 14)
    ratio_grid = (64, 4096)
    ratio_replications = 2000
    oracle_grid = (10, 16)

    def _configs(self, seed, workers, dense_grid, candidate_grid,
                 ratio_grid, ratio_replications):
        common = dict(seed=seed, workers=workers)
        return (
            ExperimentConfig(spec=PARETO, k=3, n_grid=dense_grid,
                             replications=1, **common),
            ExperimentConfig(spec=PARETO, k=4, n_grid=candidate_grid,
                             replications=1, **common),
            ExperimentConfig(spec=TWO_POINT, p=2, n_grid=ratio_grid,
                             replications=ratio_replications, statistic="t",
                             **common),
            ExperimentConfig(spec=TWO_POINT, p=3, n_grid=ratio_grid,
                             replications=ratio_replications, statistic="r",
                             **common),
        )

    def _run(self, configs):
        dense, candidates, t_cfg, r_cfg = configs
        digest = {}
        for label, cfg in (("k3", dense), ("k4", candidates)):
            result = experiments.run_bounds(cfg)
            digest[label] = [[n, rep.b1, rep.b2, rep.conditional_mean]
                             for n, rep in result.reports]
        t_result = experiments.run_ratio_study(t_cfg)
        r_result = experiments.run_ratio_study(r_cfg)
        digest["t"] = [[n, est, se] for n, est, se, _ in t_result.rows]
        digest["t_exact"] = [list(row) for row in t_result.exact_rows]
        digest["r"] = [[n, est, se] for n, est, se, _ in r_result.rows]
        return digest

    def warm_up(self):
        self._run(self._configs(0, 1, (20,), (6,), (8,), 1000))

    def study(self, seed, workers):
        return self._run(self._configs(
            seed, workers, self.dense_grid, self.candidate_grid,
            self.ratio_grid, self.ratio_replications))

    @staticmethod
    def _count_bounds(counts, arguments, result):
        n, reps = arguments["n"], arguments["replications"]
        if arguments["k"] == 3:
            # the dense path's two n x n products: 2 n^3 flops each, and
            # each operand read and result written once
            counts["chen_stein.dense_flops"] += 4 * n ** 3 * reps
            counts["chen_stein.dense_bytes"] += 6 * 8 * n * n * reps
        else:
            counts["chen_stein.candidates"] += (
                cycles.candidate_count(n, arguments["k"]) * reps)

    @staticmethod
    def _count_variates(counts, arguments, result):
        counts["ratios.variates"] += arguments["n"] * arguments["replications"]

    def instrument(self, tracer):
        tracer.wrap(experiments, "bound_report",
                    lambda a: ("chen_stein.dense" if a["k"] == 3
                               else "chen_stein.candidates"),
                    self._count_bounds)
        tracer.wrap(chen_stein, "sample_weights", "weights.sample")
        for name in ("estimate_t_moment", "estimate_r_moment"):
            tracer.wrap(experiments, name, "ratios.estimate",
                        self._count_variates)

    def oracles(self, seed, digest, checker):
        for idx, n in enumerate(self.oracle_grid):
            w = weights_mod.sample_weights(PARETO, n, _seed(seed, idx, 3))
            dense = chen_stein.exact_bound_terms(w, 3, method="dense")
            cands = chen_stein.exact_bound_terms(w, 3, method="candidates")
            checker.compare(f"oracle.dense_vs_candidates.n{n}",
                            [dense.b1, dense.b2], [cands.b1, cands.b2],
                            rel=1e-9)
        # Monte Carlo t-moments against the exact binomial sum, within 4 SE
        points = [(n, mc, se) for n, _, mc, se in digest["t_exact"]]
        points.append(tuple(digest["t"][0]))
        for n, est, se in points:
            exact = exact_t_moment(TWO_POINT, n, 2)
            checker.expect(f"oracle.t_moment.n{n}",
                           abs(est - exact) <= 4 * se,
                           f"estimate {est!r} vs exact {exact!r} (SE {se!r})")


class Threshold:
    """The ``sample`` -> ``threshold`` command flow at n=8000, in memory:
    sample a graph, write it as edge text, read it back and report its
    spectral threshold.  It takes no worker count."""

    n = 8000
    takes_workers = False

    def _run(self, seed, n):
        w = weights_mod.sample_weights(PARETO, n, _seed(seed, 0, 0))
        sampled = graphs.sample_grg(w, _seed(seed, 0, 1))
        text = sampled.to_edge_text()
        graph = graphs.GrgGraph.from_edge_text(text)
        report = spectral.threshold_report(graph)
        return {"edges": report.edges, "triangles": report.triangles,
                "radius_estimate": report.radius_estimate,
                "radius_lower_bound": report.radius_lower_bound}

    def warm_up(self):
        self._run(0, 200)

    def study(self, seed, workers):
        return self._run(seed, self.n)

    @staticmethod
    def _count_text(counts, arguments, text):
        counts["graphs.text_bytes"] += len(text)

    def instrument(self, tracer):
        tracer.wrap(weights_mod, "sample_weights", "weights.sample")
        tracer.wrap(graphs, "sample_grg", "graphs.sample", _count_graph)
        tracer.wrap(graphs.GrgGraph, "to_edge_text", "graphs.text_write",
                    self._count_text)
        tracer.wrap(graphs.GrgGraph, "from_edge_text", "graphs.text_read")
        tracer.wrap(spectral, "threshold_report", "spectral.threshold")
        tracer.wrap(spectral, "count_triangles", "cycles.triangles",
                    _count_found)
        tracer.wrap(spectral, "power_iteration_radius", "spectral.power")

    def oracles(self, seed, digest, checker):
        w = weights_mod.sample_weights(PARETO, self.n, _seed(seed, 0, 0))
        sampled = graphs.sample_grg(w, _seed(seed, 0, 1))
        graph = graphs.GrgGraph.from_edge_text(sampled.to_edge_text())
        checker.expect("oracle.text_roundtrip",
                       np.array_equal(graph.indptr, sampled.indptr)
                       and np.array_equal(graph.indices, sampled.indices))
        census = cycles.count_k_cycles(graph, 3).count
        checker.compare("oracle.edges", digest["edges"], sampled.m)
        checker.compare("oracle.triangles_vs_census",
                        cycles.count_triangles(graph).count, census)
        checker.compare("oracle.report_triangles", digest["triangles"],
                        census)


WORKLOADS = {
    "census_k3": Census(3),
    "census_k4": Census(4),
    "bounds_ratio": BoundsRatio(),
    "threshold_n8000": Threshold(),
}
