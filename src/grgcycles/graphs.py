"""Random graph sampling from vertex weights.

The edge law connects vertices ``i`` and ``j`` independently with
probability ``w_i * w_j / (total + w_i * w_j)``, the generalized random
graph of Britton, Deijfen and Martin-Löf.  Graphs are stored as CSR
adjacency (strictly sorted neighbor lists, no self-loops, ``int64`` ids).
One builder makes every CSR, here and in the cycle census: it writes the
keys ``row * n + col`` of the entries straight into one array and sorts
them, in ``uint32`` when n**2 <= 2**32 and in ``int64`` otherwise, since the
narrower keys sort and compare faster.  An edge list's two directions are
the array's two halves.

Sampling consumes exactly one uniform variate per vertex pair, visiting
pairs in lexicographic order, so a fixed seed pins the whole bit stream.
The uniforms are drawn in chunks of whole rows; PCG64 yields one double per
variate, so ``random(a)`` then ``random(b)`` equals ``random(a + b)`` and
the chunking does not move a draw.  ``replication._on_stream`` cuts the
stream at row boundaries into parts on threads, so the graph is
byte-identical for any part count.  A pre-filter bounds ``p_ij``, times
``1 + 1e-12``; only pairs whose uniform falls below the bound get the exact
test ``u < p_ij``, with ``p_ij`` evaluated as ``prod / (total + prod)`` from
``prod = w_i * w_j``.  Each chunk takes one bound first, the edge law at
its largest row weight times the largest weight right of its first row.
If that is at most ``_SCALAR_TOP`` every uniform is compared with the one
number; a looser chunk instead bounds each run of columns by the edge law
at the run's largest weight and spreads those bounds over its pairs, which
costs a pass over the pairs but sends fewer candidates to the exact test.
The runs are built only for a graph whose largest weight squared gives a
bound above ``_SCALAR_TOP``, since no chunk's bound is higher.  The law
increases with the product and rounding moves each value by a few ulps,
far less than the slack, so no bound falls below ``p_ij`` and the
pre-filter cannot change an edge, whichever path a chunk takes.  Weights
whose largest square is not finite in float64 are refused: their products
would read ``inf / inf``, NaN, which no uniform falls below.  (A
``WeightVector`` never holds an infinite total.)

Graphs exchange as whitespace edge lists: an ``n m`` header, then one
``u v`` line per edge with 1-based ids.  Both directions work on ASCII bytes
in a few NumPy passes, one block at a time, so that no temporary grows with
the text.  The writer takes ``_TEXT_BLOCK`` CSR entries at a time and their
ids straight from the CSR, in the narrowest unsigned type that holds n.  It
counts each id's digits in ``uint8``, places the separators by one
``int32`` running sum and fills in the digits from right to left, into one
byte buffer whose size the row pointers give beforehand.  The reader cuts
the text into blocks of about ``_TEXT_BLOCK`` characters, each just after a
line end, so that no line spans two blocks.  In each block it finds the
fields where digits meet whitespace, at ``int32`` positions, checks two
fields per line, and adds up each field's digits from right to left.  It
reads nothing else: a field that is not a run of at most 18 ASCII digits
(a sign, ``1_0``, a non-ASCII digit or space), or a line with the wrong
number of fields, is refused with a message that names the header, the line
or the field.  So is a header whose n is too large for the CSR builder's
int64 sort key, before anything is allocated, and one whose graph does not
fit in memory: the builder's one array of size n + 1 is its row pointers.
Only a refused block is split into rows to name its offender, so a bad last
line costs what one block costs.

The writer's memory is its byte buffer and the string decoded from it, two
bytes per byte of text, and one block's temporaries.  The reader holds the
int64 fields, 16 bytes per edge, while the builder makes the keys, 4 or 8
bytes per entry, and the int64 columns, 8 bytes per entry, two entries per
edge; int64 keys turn into the columns in place.  On 2,000,000 random
edges at n = 200,000 (25.8 MB of text), the tracemalloc peak per byte of
text is 2.0 for the writer and 2.7 for the reader.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .replication import _DRAW_BLOCK, _on_stream
from .weights import WeightVector

__all__ = [
    "GrgGraph",
    "sample_grg",
]


@dataclass(frozen=True)
class GrgGraph:
    """Simple undirected graph over vertices ``0..n-1`` in CSR form."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) array with u < v, lexicographically sorted."""
        us = np.repeat(np.arange(self.n), np.diff(self.indptr))
        mask = us < self.indices
        return np.column_stack([us[mask], self.indices[mask]])

    # -- construction & text interop ---------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "GrgGraph":
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        indptr, indices = _csr_from_pairs(n, pairs[:, 0], pairs[:, 1])
        return cls(n=n, indptr=indptr, indices=indices)

    def to_edge_text(self) -> str:
        """Whitespace edge list with an ``n m`` header, 1-based vertex ids."""
        n, indptr, indices = self.n, self.indptr, self.indices
        header = f"{n} {self.m}\n".encode("ascii")
        # each id takes its digits and one separator: two bytes, and one
        # more for each power of ten 10**d <= id; id v + 1 is written once
        # per CSR entry of row v, and indices.size - indptr[k] entries lie
        # in rows k and above
        size = len(header) + 2 * indices.size + sum(
            indices.size - int(indptr[10 ** d - 1])
            for d in range(1, len(str(n))))
        buf = np.empty(size, dtype=np.uint8)
        buf[:len(header)] = np.frombuffer(header, dtype=np.uint8)
        at = len(header)
        # in the narrowest unsigned type that holds n the passes run faster
        id_type = np.min_scalar_type(n)
        for e0 in range(0, indices.size, _TEXT_BLOCK):
            # CSR entries e0..e1-1 lie in rows i0..i1-1; each edge u < v is
            # written at its entry in row u, where the 1-based head u + 1
            # is at most the column v
            e1 = min(e0 + _TEXT_BLOCK, indices.size)
            i0 = int(indptr.searchsorted(e0, "right")) - 1
            i1 = int(indptr.searchsorted(e1))
            counts = np.diff(np.clip(indptr[i0:i1 + 1], e0, e1))
            heads = np.arange(i0 + 1, i1 + 1, dtype=id_type).repeat(counts)
            cols = indices[e0:e1]
            keep = heads <= cols
            ids = np.empty(2 * int(np.count_nonzero(keep)), dtype=id_type)
            if not ids.size:
                continue
            ids[0::2] = heads[keep]
            np.add(cols[keep], 1, out=ids[1::2], casting="unsafe")
            # ends[t] is the position just past the separator of id t
            width = np.full(ids.size, 2, dtype=np.uint8)
            for d in range(1, len(str(n))):
                width += ids >= 10 ** d
            ends = np.cumsum(width, dtype=np.int32)
            out = buf[at:at + int(ends[-1])]
            at += out.size
            out[ends[0::2] - 1] = ord(" ")
            out[ends[1::2] - 1] = ord("\n")
            # digits right to left; an id drops out after its leading digit
            pos = ends - 2
            while ids.size:
                quot = ids // 10
                out[pos] = ids - 10 * quot + ord("0")
                more = quot > 0
                ids, pos = quot[more], pos[more] - 1
        return str(buf, "ascii")

    @classmethod
    def from_edge_text(cls, text: str) -> "GrgGraph":
        fields = _digit_fields(text)
        n, m = int(fields[0]), int(fields[1])
        if n > _MAX_VERTICES:
            raise ValueError(f"edge list header '{n} {m}': n = {n} is above "
                             f"{_MAX_VERTICES}, the most vertices whose "
                             f"pair keys fit in int64")
        if fields.size // 2 - 1 != m:
            raise ValueError(
                f"header declares {m} edges, found {fields.size // 2 - 1}")
        # 0-based ids, in place
        pairs = fields[2:].reshape(-1, 2)
        pairs -= 1
        try:
            indptr, indices = _csr_from_pairs(n, pairs[:, 0], pairs[:, 1],
                                              base=1)
        except MemoryError:
            raise ValueError(f"edge list header '{n} {m}': the arrays of a "
                             f"graph of n = {n} vertices do not fit in "
                             f"memory") from None
        return cls(n=n, indptr=indptr, indices=indices)


# The ASCII characters that ``str.split()`` treats as whitespace, and those
# of them that ``str.splitlines()`` ends a line at: the reader's separators.
_SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_LINE_ENDS = "\n\r\x0b\x0c\x1c\x1d\x1e"
_SPACE = np.zeros(128, dtype=bool)
_SPACE[list(_SPACES.encode("ascii"))] = True
_LINE_END = np.zeros(128, dtype=bool)
_LINE_END[list(_LINE_ENDS.encode("ascii"))] = True
# Characters per block of text that the reader parses, and entries per
# block that the writer formats and the CSR builder turns from keys into
# columns: each block's temporaries stay small.
_TEXT_BLOCK = 1 << 16
# Longest field the reader takes; 10**18 - 1 < 2**63.
_MAX_DIGITS = 18
# Most vertices the CSR builder takes: its sort key u * n + v, at most
# n**2 - 1, must fit in int64.
_MAX_VERTICES = math.isqrt(2 ** 63 - 1)


def _digit_fields(text: str) -> np.ndarray:
    """The fields of ``text`` as int64 values, if the text is ASCII, some
    line holds fields, every such line holds exactly two and every field is
    a run of at most ``_MAX_DIGITS`` decimal digits.  Otherwise raise,
    naming the header, the line or the field.

    The text is read in blocks of about ``_TEXT_BLOCK`` characters, each cut
    just after a line end (see ``_block_end``), so no line is split and
    every check stays within a block; a refused block is the one that
    ``_check_lines`` reads."""
    parts = []
    start = 0
    while start < len(text):
        stop = start + _TEXT_BLOCK
        if stop < len(text):
            stop = _block_end(text, start, stop)
        block = text[start:stop]
        start = stop
        values = _block_fields(block)
        if values is None:
            # the block's first row with fields is the header if no
            # earlier block holds one
            _check_lines(block, header=not parts)
        if values.size:
            parts.append(values)
    if not parts:
        raise ValueError("edge list must start with an 'n m' header")
    return np.concatenate(parts)


def _block_end(text: str, start: int, stop: int) -> int:
    """The index just after the last of ``_LINE_ENDS`` in
    ``text[start:stop]``; if there is none, just after the first one past
    it, or the end of the text.  A ``"\\r\\n"`` cut between its two
    characters leaves an empty line, which reads as no line."""
    last = start - 1
    # "\n" first: in a text of "\n" lines each other search spans a line
    for char in _LINE_ENDS:
        last = max(last, text.rfind(char, last + 1, stop))
    if last >= start:
        return last + 1
    after = re.compile(f"[{_LINE_ENDS}]").search(text, stop)
    return after.end() if after else len(text)


def _block_fields(block: str) -> Optional[np.ndarray]:
    """The fields of a block of lines as int64 values, or ``None`` unless
    it passes the checks of ``_digit_fields``."""
    if not block.isascii():
        return None
    # padded with a space at both ends, so every field lies between two
    # non-digit bytes
    codes = np.frombuffer(f" {block} ".encode("ascii"), dtype=np.uint8)
    digits = codes - np.uint8(ord("0"))
    # positions in int32, unless a line of 2 GiB makes one block that long
    gaps = np.flatnonzero(digits > 9).astype(
        np.int32 if codes.size < 2 ** 31 else np.int64)
    others = codes.take(gaps)
    if not _SPACE.take(others).all():
        return None
    # a field lies between non-digit bytes gaps[j] and gaps[j + 1] that are
    # not adjacent; its line number counts the line ends up to gaps[j]
    cut = np.flatnonzero(np.diff(gaps) > 1)
    line = np.cumsum(_LINE_END.take(others), dtype=gaps.dtype).take(cut)
    if not (line.size % 2 == 0
            and np.array_equal(line[0::2], line[1::2])
            and bool(np.all(line[1:-1:2] < line[2::2]))):
        return None
    before = gaps.take(cut)
    ends = gaps.take(cut + 1)
    width = int((ends - before).max(initial=1)) - 1
    if width > _MAX_DIGITS:
        return None
    digits[gaps] = 0
    # digit d of a field, counted from the right, sits at ends - 1 - d; a
    # shorter field reads the zero of the space before it instead
    values = np.zeros(cut.size, dtype=np.int64)
    pos = ends
    for d in range(width):
        pos = np.maximum(pos - 1, before)
        values += digits.take(pos) * np.int64(10 ** d)
    return values


def _check_lines(text: str, header: bool) -> None:
    """Raise naming the header, the edge line or the field of ``text``, a
    block that ``_digit_fields`` refuses; its first row with fields is the
    header if ``header`` is true.  Lines and fields are cut at the reader's
    ASCII separators only, so any other character stays in a field."""
    rows = [re.findall(f"[^{_SPACES}]+", line)
            for line in re.split(f"[{_LINE_ENDS}]", text)]
    rows = [row for row in rows if row]
    if not rows:
        raise ValueError("edge list must start with an 'n m' header")
    for r, row in enumerate(rows, start=0 if header else 1):
        line = " ".join(row)
        for name, field in zip("uv" if r else "nm", row):
            if not (field.isascii() and field.isdigit()):
                problem = "is not a nonnegative integer"
            elif len(field) > _MAX_DIGITS:
                problem = f"has more than {_MAX_DIGITS} digits"
            else:
                continue
            raise ValueError(f"edge list {'line' if r else 'header'} "
                             f"'{line}': {name} = {field!r} {problem}")
        if len(row) != 2:
            raise ValueError(f"malformed edge line: {line}" if r else
                             "edge list must start with an 'n m' header")


def _csr_from_pairs(n: int, us: np.ndarray, vs: np.ndarray,
                    base: int = 0) -> tuple:
    """CSR arrays of the simple graph with edges ``(us[t], vs[t])``, given
    as int64 arrays.

    Rejects self-loops, endpoints outside ``0..n-1`` and repeated edges,
    naming the first offender with vertex ids shifted by ``base``.
    """
    loops = (us == vs).nonzero()[0]
    if loops.size:
        raise ValueError(f"self-loop at vertex {us[loops[0]] + base}")
    # as unsigned integers, negative ids wrap round to values above n
    outside = (np.maximum(us.view(np.uint64), vs.view(np.uint64))
               >= n).nonzero()[0]
    if outside.size:
        t = outside[0]
        raise ValueError(f"edge ({us[t] + base},{vs[t] + base}) outside "
                         f"{base}..{n - 1 + base}")
    # both directions of every edge, keyed into the two halves of one array
    indptr, keys = _csr_keys(n, (us, vs), (vs, us))
    repeated = (keys[1:] == keys[:-1]).nonzero()[0]
    if repeated.size:
        u, v = sorted(divmod(int(keys[repeated[0]]), n))
        raise ValueError(f"repeated edge ({u + base},{v + base})")
    # keys % n, in place on the int64 output (a copy only of narrower
    # keys), a block at a time: NumPy's // by a scalar multiplies and
    # shifts, its % divides
    indices = keys.astype(np.int64, copy=False)
    for at in range(0, indices.size, _TEXT_BLOCK):
        block = indices[at:at + _TEXT_BLOCK]
        block -= block // n * n
    return indptr, indices


def _key_dtype(n: int) -> type:
    """Type of the pair keys ``row * n + col`` of an n-vertex graph: the
    keys run up to n**2 - 1, so ``uint32`` holds them while n**2 <= 2**32,
    and it sorts and compares faster than ``int64``."""
    return np.uint32 if n * n <= 2 ** 32 else np.int64


def _index_dtype(size: int) -> type:
    """Type of the positions in an array of ``size`` entries: ``int32``
    holds them while size <= 2**31 - 1, and it halves their memory."""
    return np.int32 if size < 2 ** 31 else np.int64


def _csr_keys(n: int, *parts: tuple) -> tuple:
    """Row pointers and sorted keys of the entries ``(rows[t], cols[t])`` of
    each part ``(rows, cols)``, ids in ``0..n-1``.  The keys ``rows * n +
    cols`` are written in ``_key_dtype(n)`` straight into one array, part
    after part, and sorted: the key order is the CSR order, by row and then
    by column.  The row pointers add up each row's entries in the one array
    of size ``n + 1``, so a large n costs that array and no other."""
    keys = np.empty(sum(rows.size for rows, _ in parts), dtype=_key_dtype(n))
    indptr = np.zeros(n + 1, dtype=np.int64)
    at = 0
    for rows, cols in parts:
        half = keys[at:at + rows.size]
        at += rows.size
        np.multiply(rows, n, out=half, casting="unsafe")
        np.add(half, cols, out=half, casting="unsafe")
        np.add.at(indptr[1:], rows, 1)
    keys.sort()
    return np.cumsum(indptr, out=indptr), keys


# Most uniforms drawn per ``rng.random`` call, unless a single row is longer:
# the split streams' draw block (see ``replication``).
_PAIR_CHUNK = _DRAW_BLOCK
# Columns that share one pre-filter bound within a row; the 2n/_BLOCK
# heaviest columns get a bound of their own.
_BLOCK = 128
# Relative slack that lifts each bound far above its rounding error.
_SLACK = 1.0 + 1e-12
# Largest chunk bound that the pre-filter compares every uniform against;
# a chunk whose bound is higher gets a bound per column segment.  At 1/32
# every chunk of a Pareto(9.5, 10, 1) graph at n = 2000 and 8000 takes the
# one bound, and every chunk of a Pareto 2.5 graph at n = 2000 the segments.
_SCALAR_TOP = 1 / 32


def _column_segments(w: np.ndarray) -> tuple:
    """Edges of the pre-filter's column segments and each segment's largest
    weight: blocks of ``_BLOCK`` columns, with each of the ``2n/_BLOCK``
    heaviest columns cut out as a segment of its own, so that a hub does not
    loosen the bound of its block."""
    n = w.size
    cut = np.zeros(n + 1, dtype=bool)
    cut[::_BLOCK] = True
    cut[-1] = True
    hubs = w.argsort()[n - 2 * n // _BLOCK:]
    cut[hubs] = True
    cut[1:][hubs] = True
    edges = cut.nonzero()[0]
    return edges, np.maximum.reduceat(w, edges[:-1])


def sample_grg(weights: WeightVector, seed) -> GrgGraph:
    """Sample the graph that joins each pair ``i < j`` independently with
    probability ``w_i w_j / (total + w_i w_j)``; ``seed`` is an int, a
    ``SeedSequence`` or None.  Weights whose largest square overflows
    float64 are refused: the edge law would read NaN."""
    w = weights.values
    n = w.size
    if n < 2:
        raise ValueError("need at least two vertices")
    total = weights.total
    largest = float(w.max())
    if not math.isfinite(largest * largest):
        raise ValueError(f"weights up to {largest!r} overflow float64 in the "
                         f"edge law: the largest weight squared is not "
                         f"finite")
    # pair (i, j) sits at flat index starts[i] + j - i - 1 of the stream,
    # so adding col_shift[i] to a flat index of row i gives its column
    ids = np.arange(n + 1)
    starts = np.zeros(n, dtype=np.int64)
    np.add.accumulate(ids[n - 1:0:-1], out=starts[1:])
    col_shift = ids[1:] - starts
    # tail[i] is the largest weight right of column i
    tail = np.maximum.accumulate(w[:0:-1])[::-1]
    # no chunk's bound exceeds the one at the largest weight squared (but
    # by rounding, and any bound is valid): below the switch there, every
    # chunk compares with its one bound and no column segments are made
    x = largest * largest
    segments = (_column_segments(w) if x / (total + x) * _SLACK > _SCALAR_TOP
                else None)

    def sample_part(rng, i0, stop):
        # rows i0..stop-1; every chunk's uniforms and compare mask go to
        # buffers made in this part's thread (see the replication
        # docstring): a fresh 512 kB array per chunk lets malloc hand the
        # pages back and fault them in again (about 1,300 page faults per
        # graph at n = 2000, 4 with it)
        buf = np.empty(max(_PAIR_CHUNK, n - 1))
        below = np.empty(buf.size, dtype=bool)
        found = []
        # chunk c takes rows cuts[c]..cuts[c + 1] - 1, at most _PAIR_CHUNK
        # pairs unless one row is longer
        cuts = [i0]
        while cuts[-1] < stop:
            a = int(starts[cuts[-1]])
            i1 = int(starts.searchsorted(a + _PAIR_CHUNK, "right")) - 1
            cuts.append(max(cuts[-1] + 1, min(i1, stop)))
        # one bound per chunk: the edge law at the chunk's largest row
        # weight times the largest weight right of its first row, in one
        # pass (a reduction per chunk slowed heavy-tailed graphs by 2-4 %)
        x = np.maximum.reduceat(w[:stop], cuts[:-1]) * tail[cuts[:-1]]
        tops = (x / (total + x) * _SLACK).tolist()
        for i0, i1, top in zip(cuts, cuts[1:], tops):
            a = int(starts[i0])
            u = rng.random(out=buf[:int(starts[i1]) - a])
            mask = below[:u.size]
            if top <= _SCALAR_TOP or segments is None:
                np.less(u, top, out=mask)
            else:
                # too loose: bound p_ij over row i's columns in segment k by
                # the segment's largest weight, spread over the pairs as a
                # temporary, freed before the exact test allocates; segments
                # left of the row get length 0
                edges, seg_max = segments
                k0 = int(edges.searchsorted(i0 + 1, "right")) - 1
                x = w[i0:i1, None] * seg_max[k0:]
                bound = x / (total + x) * _SLACK
                clipped = np.maximum(edges[k0:], ids[i0 + 1:i1 + 1, None])
                lens = clipped[:, 1:] - clipped[:, :-1]
                np.less(u, bound.ravel().repeat(lens.ravel()), out=mask)
            cand = mask.nonzero()[0]
            # exact test of the candidates; row i0 + r holds candidates
            # firsts[r] up to firsts[r + 1]
            pos = cand + a
            firsts = pos.searchsorted(starts[i0:i1 + 1])
            rows = ids[i0:i1].repeat(firsts[1:] - firsts[:-1])
            cols = pos + col_shift[rows]
            prod = w[rows] * w[cols]
            keep = u[cand] < prod / (total + prod)
            found.append((rows[keep], cols[keep]))
        return found

    heads, tails = zip(*_on_stream(sample_part, seed, starts, _PAIR_CHUNK))
    if len(heads) > 1:
        heads, tails = [np.concatenate(heads)], [np.concatenate(tails)]
    indptr, indices = _csr_from_pairs(n, heads[0], tails[0])
    return GrgGraph(n=n, indptr=indptr, indices=indices)
