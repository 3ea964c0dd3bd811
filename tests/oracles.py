"""Independent reference implementations that the tests compare against.

None of these runs in a study: each is a literal, slow evaluation of a
definition (every ordered vertex tuple, every 2**n outcome or their exact
rational sum, every candidate neighbor, every token of an edge list, every
Poisson mass through its own ``lgamma``), kept
here so that a refactor of the package cannot edit the oracle together with
the code it checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, lgamma, log, perm
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np

from grgcycles.cycles import (DEFAULT_CANDIDATE_CAP, CandidateCapError,
                              CycleCensus, _candidate_rows, _iter_present,
                              _validate_k, candidate_count)
from grgcycles.graphs import GrgGraph
from grgcycles.weights import WeightSpec, WeightVector


# ---------------------------------------------------------------------------
# Cycles: canonical form, brute-force census, enumeration
# ---------------------------------------------------------------------------

def canonicalize(vertices: Sequence[int]) -> tuple:
    """Canonical representative of a cycle given as a vertex sequence."""
    verts = [int(v) for v in vertices]
    if len(verts) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(verts)) != len(verts):
        raise ValueError("cycle contains a repeated vertex")
    k = len(verts)
    start = verts.index(min(verts))
    rot = verts[start:] + verts[:start]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def is_canonical(vertices: Sequence[int]) -> bool:
    return tuple(int(v) for v in vertices) == canonicalize(vertices)


def complete_graph(n: int) -> GrgGraph:
    """The complete graph on n vertices, every pair an edge."""
    return GrgGraph.from_edges(n, combinations(range(n), 2))


@lru_cache(maxsize=32)
def _permutation_array(n: int, k: int) -> np.ndarray:
    return np.array(list(permutations(range(n), k)), dtype=np.int64)


def brute_force_count(graph: GrgGraph, k: int) -> CycleCensus:
    """Oracle census: test all ordered k-tuples, divide hits by 2k."""
    if graph.n > 10:
        raise ValueError("brute force oracle is limited to n <= 10")
    _validate_k(graph.n, k)
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    for u, v in graph.edge_array():
        adj[u, v] = adj[v, u] = True
    perms = _permutation_array(graph.n, k)
    ok = np.ones(len(perms), dtype=bool)
    for t in range(k):
        ok &= adj[perms[:, t], perms[:, (t + 1) % k]]
    hits = int(ok.sum())
    count, rem = divmod(hits, 2 * k)
    if rem:
        raise ArithmeticError("ordered-tuple hits not divisible by 2k")
    return CycleCensus(k=k, count=count)


def enumerate_cycles(graph: GrgGraph, k: int, mode: str = "present",
                     cap: int = DEFAULT_CANDIDATE_CAP) -> Iterator[tuple]:
    """Yield each canonical k-cycle exactly once.

    ``mode="present"`` walks the cycles realized in the graph;
    ``mode="candidates"`` walks every potential cycle on ``graph.n``
    vertices (refused if their number exceeds ``cap``).
    """
    _validate_k(graph.n, k)
    if mode == "candidates":
        total = candidate_count(graph.n, k)
        if total > cap:
            raise CandidateCapError(
                f"{total} candidate cycles exceed the cap {cap}")
        return map(tuple, _candidate_rows(graph.n, k).tolist())
    if mode == "present":
        return _iter_present(graph, k)
    raise ValueError(f"unknown enumeration mode {mode!r}")


# ---------------------------------------------------------------------------
# Edge and cycle probabilities given the weights
# ---------------------------------------------------------------------------

def edge_probability(w_i: float, w_j: float, total: float) -> float:
    """Connection probability of one vertex pair given the total weight."""
    if w_i <= 0 or w_j <= 0:
        raise ValueError("weights must be strictly positive")
    if total < w_i + w_j:
        raise ValueError("total weight is smaller than the pair's weights")
    prod = w_i * w_j
    return prod / (total + prod)


def cycle_probability(weights: WeightVector, cycle: Sequence[int]) -> float:
    """Probability that a given vertex cycle occurs, given the weights.

    Edges are conditionally independent, so this is the product of the edge
    probabilities along the cycle.
    """
    verts = [int(v) for v in cycle]
    if len(verts) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(verts)) != len(verts):
        raise ValueError("cycle contains a repeated vertex")
    w = weights.values
    if any(not 0 <= v < w.size for v in verts):
        raise ValueError("cycle vertex outside the weight vector")
    total = weights.total
    prob = 1.0
    for a, b in zip(verts, verts[1:] + verts[:1]):
        prob *= edge_probability(w[a], w[b], total)
    return prob


# ---------------------------------------------------------------------------
# Edge-list text
# ---------------------------------------------------------------------------

def token_edge_list(text: str) -> Tuple[int, List[Tuple[int, int]]]:
    """``n`` and the sorted 0-based edges ``(u, v)``, ``u < v``, of an edge
    list, read token by token: ``str.split`` on each line and ``int`` on
    each token.

    It takes Python's integer syntax (signs, ``1_0``, non-ASCII digits and
    spaces), a superset of what ``GrgGraph.from_edge_text`` reads.  On text
    of ASCII digits and whitespace, with at most 18 digits per field, it
    raises the package's messages.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("edge list must start with an 'n m' header")
    n, m = (int(field) for field in rows[0])
    if n < 0 or m < 0:
        raise ValueError(f"negative header {n} {m}")
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"malformed edge line: {' '.join(row)}")
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(rows) - 1}")
    pairs = [(int(u), int(v)) for u, v in rows[1:]]
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
    for u, v in pairs:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) outside 1..{n}")
    edges = sorted((min(u, v) - 1, max(u, v) - 1) for u, v in pairs)
    for a, b in zip(edges, edges[1:]):
        if a == b:
            raise ValueError(f"repeated edge ({a[0] + 1},{a[1] + 1})")
    return n, edges


# ---------------------------------------------------------------------------
# Dependency neighborhoods and joint pair probabilities
# ---------------------------------------------------------------------------

def _cycle_edges(cycle: Sequence[int]) -> Set[Tuple[int, int]]:
    verts = list(cycle)
    edges = set()
    for a, b in zip(verts, verts[1:] + verts[:1]):
        edges.add((min(a, b), max(a, b)))
    return edges


def neighborhood(alpha: Sequence[int], k: int, n: int,
                 cap: int = DEFAULT_CANDIDATE_CAP) -> Set[tuple]:
    """All candidate k-cycles sharing at least one edge with ``alpha``.

    Includes ``alpha`` itself.  Built constructively: for each edge of
    ``alpha``, every candidate through that edge is a path of k-2 further
    vertices connecting its endpoints.
    """
    alpha = canonicalize(alpha)
    if len(alpha) != k:
        raise ValueError("alpha does not have length k")
    if max(alpha) >= n:
        raise ValueError("alpha vertex outside 0..n-1")
    per_edge = perm(n - 2, k - 2)
    if k * per_edge > cap:
        raise CandidateCapError(
            f"neighborhood enumeration of ~{k * per_edge} cycles exceeds cap {cap}")
    out: Set[tuple] = set()
    verts = set(range(n))
    for u, v in _cycle_edges(alpha):
        rest = sorted(verts - {u, v})
        for mid in permutations(rest, k - 2):
            out.add(canonicalize((u,) + mid + (v,)))
    return out


def pair_probability(weights: WeightVector, alpha: Sequence[int],
                     beta: Sequence[int]) -> float:
    """Joint occurrence probability of two cycles given the weights."""
    union = _cycle_edges(canonicalize(alpha)) | _cycle_edges(canonicalize(beta))
    w = weights.values
    prob = 1.0
    for u, v in union:
        prob *= edge_probability(w[u], w[v], weights.total)
    return prob


# ---------------------------------------------------------------------------
# Ratio statistics
# ---------------------------------------------------------------------------

def exact_t_moment_fraction(spec: WeightSpec, n: int, p: int) -> float:
    """First-tier oracle: the binomial sum over the count of draws hitting
    the second atom, in exact rational arithmetic (about n**2 time)."""
    if spec.family != "two_point":
        raise ValueError("the binomial sum covers two_point laws only")
    x1 = Fraction(spec.x1)
    x2 = Fraction(spec.x2)
    q = 1 - Fraction(spec.p1)        # probability of the x2 atom
    total = Fraction(0)
    for j in range(n + 1):
        weight = comb(n, j) * q ** j * (1 - q) ** (n - j)
        t = (j * x2 * x2 + (n - j) * x1 * x1) / (j * x2 + (n - j) * x1)
        total += weight * t ** p
    return float(total)


def exact_t_moment_bruteforce(spec: WeightSpec, n: int, p: int) -> float:
    """Second-tier oracle: full 2^n enumeration, guarded to n <= 12."""
    if spec.family != "two_point":
        raise ValueError("brute force covers two_point laws only")
    if n > 12:
        raise ValueError("brute force enumeration is limited to n <= 12")
    atoms = ((Fraction(spec.x1), Fraction(spec.p1)),
             (Fraction(spec.x2), 1 - Fraction(spec.p1)))
    total = Fraction(0)
    for outcome in product(atoms, repeat=n):
        prob = Fraction(1)
        ssum = Fraction(0)
        sq = Fraction(0)
        for x, pr in outcome:
            prob *= pr
            ssum += x
            sq += x * x
        total += prob * (sq / ssum) ** p
    return float(total)


def exact_r_moment_bruteforce(spec: WeightSpec, n: int, p: int) -> float:
    """``E r`` by full 2^n enumeration of a two-point law, where
    ``r = t**p * max**2 / sum``, guarded to n <= 12."""
    if spec.family != "two_point":
        raise ValueError("brute force covers two_point laws only")
    if n > 12:
        raise ValueError("brute force enumeration is limited to n <= 12")
    atoms = ((Fraction(spec.x1), Fraction(spec.p1)),
             (Fraction(spec.x2), 1 - Fraction(spec.p1)))
    total = Fraction(0)
    for outcome in product(atoms, repeat=n):
        prob = Fraction(1)
        for _, pr in outcome:
            prob *= pr
        xs = [x for x, _ in outcome]
        ssum = sum(xs)
        t = sum(x * x for x in xs) / ssum
        total += prob * t ** p * max(xs) ** 2 / ssum
    return float(total)


# ---------------------------------------------------------------------------
# Poisson: the log-space pmf, one lgamma per outcome
# ---------------------------------------------------------------------------

def poisson_pmf(lam: float, outcomes) -> np.ndarray:
    """The Poisson(lam) pmf at the nonnegative integer ``outcomes``, through
    log space with one ``lgamma`` per outcome; rate 0 is the point mass at
    0.  Each mass is off by about ``lam log(lam)`` rounding units."""
    outcomes = np.atleast_1d(outcomes)
    if lam == 0:
        return (outcomes == 0).astype(float)
    log_factorial = np.array([lgamma(m + 1) for m in outcomes.tolist()])
    return np.exp(-lam + outcomes * log(lam) - log_factorial)
