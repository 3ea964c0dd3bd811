"""Edge law, graph sampling and the adjacency representation."""

import dataclasses
import hashlib
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from grgcycles import graphs, replication
from grgcycles.experiments import ExperimentConfig, run_census
from grgcycles.graphs import GrgGraph, sample_grg
from grgcycles.replication import map_replications
from grgcycles.weights import WeightSpec, WeightVector, sample_weights
from cpu_parts import force_parts
from oracles import cycle_probability, edge_probability, token_edge_list


def er_weight(n, lam):
    """Constant weight making every edge probability exactly lam/n."""
    return n * lam / (n - lam)


class TestEdgeProbability:
    def test_unit_pair(self):
        assert edge_probability(1, 1, 2) == pytest.approx(1 / 3)

    def test_er_special_case(self):
        # all-equal weights n*lam/(n-lam) give exactly lam/n
        for n, lam in ((10, 1.0), (100, 2.5), (57, 0.3)):
            w = er_weight(n, lam)
            assert edge_probability(w, w, n * w) == pytest.approx(lam / n,
                                                                  rel=1e-12)

    def test_small_weight_limit(self):
        assert edge_probability(1e-12, 1.0, 10.0) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            edge_probability(0, 1, 2)
        with pytest.raises(ValueError):
            edge_probability(1, -1, 2)

    @given(wi=st.floats(0.01, 50), wj=st.floats(0.01, 50),
           extra=st.floats(0.0, 500))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_in_unit_interval(self, wi, wj, extra):
        total = wi + wj + extra
        p = edge_probability(wi, wj, total)
        assert 0 < p < 1
        assert p == edge_probability(wj, wi, total)

    @given(wi=st.floats(0.01, 50), wj=st.floats(0.01, 50),
           bump=st.floats(0.01, 10))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_each_weight(self, wi, wj, bump):
        total = 200.0
        assert edge_probability(wi + bump, wj, total) > edge_probability(
            wi, wj, total)


# malformed edge texts and the error message each one raises
MALFORMED_EDGE_TEXT = {
    "": "edge list must start with an 'n m' header",
    "3\n": "edge list must start with an 'n m' header",
    "2 1\n1 3\n": "edge (1,3) outside 1..2",
    "2 2\n1 2\n": "header declares 2 edges, found 1",
    "2 1\n1 2 3\n": "malformed edge line: 1 2 3",
    "2 2\n1 2\n2 1\n": "repeated edge (1,2)",
    "-1 0\n": "edge list header '-1 0': n = '-1' is not a nonnegative",
    "a b\n": "edge list header 'a b': n = 'a' is not a nonnegative",
    "3 x\n": "edge list header '3 x': m = 'x' is not a nonnegative",
    "3 -2\n": "edge list header '3 -2': m = '-2' is not a nonnegative",
    "3 1\n1 99999999999999999999\n":
        "edge list line '1 99999999999999999999': "
        "v = '99999999999999999999' has more than 18 digits",
    "99999999999999999999 0\n":
        "edge list header '99999999999999999999 0': "
        "n = '99999999999999999999' has more than 18 digits",
}


class TestGraphRepresentation:
    def test_symmetry_and_no_self_loops(self):
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 40, seed=5)
        graph = sample_grg(wv, seed=6)
        for i in range(graph.n):
            for j in graph.neighbors(i):
                assert j != i
                assert graph.has_edge(int(j), i)
            row = graph.neighbors(i)
            assert np.all(np.diff(row) > 0)   # strictly sorted

    def test_edge_text_roundtrip(self):
        graph = GrgGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        text = graph.to_edge_text()
        assert text.splitlines()[0] == "5 5"
        back = GrgGraph.from_edge_text(text)
        assert back.n == 5 and back.m == 5
        assert np.array_equal(back.indptr, graph.indptr)
        assert np.array_equal(back.indices, graph.indices)

    def test_edge_text_is_one_based(self):
        graph = GrgGraph.from_edges(2, [(0, 1)])
        assert graph.to_edge_text() == "2 1\n1 2\n"

    @pytest.mark.parametrize("text", list(MALFORMED_EDGE_TEXT))
    def test_malformed_edge_text(self, text):
        with pytest.raises(ValueError,
                           match=re.escape(MALFORMED_EDGE_TEXT[text])):
            GrgGraph.from_edge_text(text)

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GrgGraph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (2, 2), (1, 1)], r"self-loop at vertex 2$"),
        ([(0, 1), (0, 5), (3, 1)], r"edge \(0,5\) outside 0\.\.2$"),
        ([(0, 1), (2, 1), (1, 2), (1, 0)], r"repeated edge \(0,1\)$"),
    ])
    def test_from_edges_names_first_offender(self, edges, message):
        with pytest.raises(ValueError, match=message):
            GrgGraph.from_edges(3, edges)

    def test_edge_text_names_one_based_edge(self):
        with pytest.raises(ValueError, match=r"repeated edge \(1,2\)"):
            GrgGraph.from_edge_text("2 2\n1 2\n2 1\n")
        with pytest.raises(ValueError, match=r"edge \(1,3\) outside 1\.\.2"):
            GrgGraph.from_edge_text("2 1\n1 3\n")

    def test_header_above_int64_keys_named(self):
        # the pair key u * n + v reaches n**2 - 1, which must fit in int64
        limit = 3_037_000_499
        assert limit ** 2 - 1 < 2 ** 63 - 1 < (limit + 1) ** 2 - 1
        for n in (limit + 1, 10 ** 15):
            with pytest.raises(ValueError, match=(
                    f"^edge list header '{n} 0': n = {n} is above {limit}, ")):
                GrgGraph.from_edge_text(f"{n} 0\n")

    def test_header_above_memory_named(self, monkeypatch):
        # the row pointers are the reader's one array of size n + 1; make
        # every allocation of a million or more zeros fail, as the 24 GB of
        # row pointers at the int64 bound would, so nothing large is made
        zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            if np.prod(shape) >= 10 ** 6:
                raise MemoryError(f"Unable to allocate an array of {shape}")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_zeros)
        n = 3_037_000_499
        with pytest.raises(ValueError, match=(
                f"^edge list header '{n} 1': the arrays of a graph of n = "
                f"{n} vertices do not fit in memory$")):
            GrgGraph.from_edge_text(f"{n} 1\n1 {n}\n")
        assert GrgGraph.from_edge_text("3 1\n1 3\n").m == 1

    def test_edge_text_names_bad_header_field(self):
        with pytest.raises(ValueError, match=r"header '-1 0': n = '-1'"):
            GrgGraph.from_edge_text("-1 0\n")
        with pytest.raises(ValueError, match=r"header '3 x': m = 'x'"):
            GrgGraph.from_edge_text("3 x\n")


def reference_edge_text(graph):
    """The edge text of ``graph`` from one ``str.format`` call per edge."""
    us, vs = (graph.edge_array() + 1).T.tolist()
    return f"{graph.n} {graph.m}\n" + "".join(map("{} {}\n".format, us, vs))


def assert_token_graph(graph, text):
    """``graph`` is the graph the token reader of ``oracles`` reads from
    ``text``."""
    n, edges = token_edge_list(text)
    assert graph.n == n
    assert graph.edge_array().tolist() == [list(e) for e in edges]


def assert_same_graph(a, b):
    assert a.n == b.n
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def random_graph(n, m, rng):
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(m)}
    return GrgGraph.from_edges(n, sorted(pairs))


def styled_edge_text(graph, style, rng):
    """The edge list of ``graph`` in one whitespace style, with the edges
    and their two ends in random order."""
    edges = rng.permuted(rng.permutation(graph.edge_array() + 1), axis=1)
    lines = [(graph.n, graph.m)] + [tuple(e) for e in edges]
    seps, ends, zeros = [" "], ["\n"], [0]
    if style == "crlf":
        ends = ["\r\n"]
    elif style == "tabs":
        seps = ["\t", " \t ", "\t\t"]
    elif style == "blank_lines":
        ends = ["\n", "\n\n", "\n  \n", "\n\t\n\n"]
    elif style == "leading_zeros":
        zeros = [0, 1, 3]
    elif style == "mixed":
        seps = [" ", "\t", "  ", " \t", "\x1f", "\x1f\t"]
        ends = ["\n", "\r\n", "\r", " \n", "\x0b", "\x0c", "\x1c",
                "\x1d", "\x1e", "\n\r\n"]
        zeros = [0, 0, 2]

    def pick(options):
        return options[rng.integers(len(options))]

    text = pick(["", "\n", " "]) if style in ("mixed", "blank_lines") else ""
    for u, v in lines:
        text += ("0" * pick(zeros) + str(u) + pick(seps)
                 + "0" * pick(zeros) + str(v) + pick(ends))
    return text.rstrip("\n") if style == "no_final_newline" else text


# characters that the edits of ``edge_texts`` insert: the reader's
# separators, a no-break space, digits and what ``int`` also takes or refuses
_INSERTS = graphs._SPACES + "\xa0" + "0123456789+-_\x00\u0661"


@st.composite
def edge_texts(draw):
    """A small edge list, valid or not (loops, repeats), with up to three
    characters inserted before or after its fields.  No field grows past
    four characters, so no header declares more than 9999 vertices (the
    reader allocates a row pointer per vertex)."""
    n = draw(st.integers(2, 6))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    edges = draw(st.lists(ends, max_size=4))
    fields = [str(x) for pair in [(n, len(edges)), *edges] for x in pair]
    seps = [" ", "\n"] * (len(edges) + 1)
    for at, char, after in draw(st.lists(st.tuples(
            st.integers(0, len(fields) - 1), st.sampled_from(_INSERTS),
            st.booleans()), max_size=3)):
        if after:
            seps[at] = char + seps[at]
        else:
            fields[at] = char + fields[at]
    return "".join(f + s for f, s in zip(fields, seps))


def each_text_block(monkeypatch):
    """Patch the text block of the reader, the writer and the CSR builder to
    its default, then to a few characters and entries, so that a text spans
    many blocks."""
    for size in (graphs._TEXT_BLOCK, 5):
        monkeypatch.setattr(graphs, "_TEXT_BLOCK", size)
        yield size


def recorded_blocks(monkeypatch):
    """The list that records each block the reader passes to
    ``graphs._block_fields``."""
    blocks = []
    block_fields = graphs._block_fields

    def recording(block):
        blocks.append(block)
        return block_fields(block)

    monkeypatch.setattr(graphs, "_block_fields", recording)
    return blocks


def first_line_end(block):
    """The index of the first of the reader's line ends in ``block``."""
    return re.search(f"[{graphs._LINE_ENDS}]", block).start()


def traced_peak(call, *args):
    """The result of ``call(*args)``, or the ValueError it raised, and the
    peak of the memory that ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        try:
            result = call(*args)
        except ValueError as error:
            result = error
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sampled_graph():
    """A Pareto(9.5, 10, 1) graph at n = 12000: 72,946 edges, 739,905
    bytes of edge text."""
    return sample_grg(sample_weights(
        WeightSpec.pareto_shifted(9.5, 10, 1), 12000, 0), 1)


class TestEdgeText:
    """The byte-level writer and reader against ``str.format`` and the token
    reader of ``oracles``."""

    @pytest.mark.parametrize("n", [2, 9, 10, 11, 99, 100, 101, 255, 256,
                                   1000, 10001, 65536])
    @pytest.mark.parametrize("shape", ["path", "star"])
    def test_writer_matches_format_at_digit_boundaries(self, n, shape):
        if shape == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        else:
            edges = [(0, i) for i in range(1, n)]
        graph = GrgGraph.from_edges(n, edges)
        assert graph.to_edge_text() == reference_edge_text(graph)

    def test_writer_matches_format_on_sampled_graph(self, monkeypatch):
        wv = sample_weights(WeightSpec.pareto_shifted(2.5, 10, 1), 1200, 3)
        graph = sample_grg(wv, seed=4)
        for _ in each_text_block(monkeypatch):
            assert graph.to_edge_text() == reference_edge_text(graph)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless_graph_writes_header_only(self, n):
        graph = GrgGraph.from_edges(n, [])
        assert graph.to_edge_text() == f"{n} 0\n"
        assert_same_graph(GrgGraph.from_edge_text(f"{n} 0\n"), graph)

    @pytest.mark.parametrize("style", ["plain", "crlf", "tabs", "blank_lines",
                                       "leading_zeros", "no_final_newline",
                                       "mixed"])
    @pytest.mark.parametrize("seed", range(4))
    def test_parser_matches_token_path(self, monkeypatch, style, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 9, 10, 11, 120, 1500]))
        graph = random_graph(n, int(rng.integers(0, 3 * n)), rng)
        text = styled_edge_text(graph, style, rng)
        for _ in each_text_block(monkeypatch):
            assert graphs._digit_fields(text) is not None
            parsed = GrgGraph.from_edge_text(text)
            assert_token_graph(parsed, text)
            assert_same_graph(parsed, graph)

    @pytest.mark.parametrize("text", ["7 0", "7 0\r\n", "\n\t7\t0 \n\n",
                                      "007 000\n"])
    def test_header_only_text(self, text):
        assert graphs._digit_fields(text) is not None
        parsed = GrgGraph.from_edge_text(text)
        assert parsed.n == 7 and parsed.m == 0
        assert_token_graph(parsed, text)

    def test_eighteen_digit_field_is_parsed(self):
        text = "3 1\n000000000000000001 003\n"
        assert list(graphs._digit_fields(text)) == [3, 1, 1, 3]
        assert GrgGraph.from_edge_text(text).has_edge(0, 2)

    @pytest.mark.parametrize("text,message", [
        ("3 1\n+1 2\n", "line '+1 2': u = '+1' is not a nonnegative"),
        ("3 1\n2 \u0661\n",                 # ARABIC-INDIC DIGIT ONE
         "line '2 \u0661': v = '\u0661' is not a nonnegative"),
        ("3 1\n1\xa02\n",                   # NO-BREAK SPACE
         "line '1\xa02': u = '1\\xa02' is not a nonnegative"),
        ("3 1\n1 2\x00\n", "v = '2\\x00' is not a nonnegative"),
        ("3 1\n1_0 2\n", "line '1_0 2': u = '1_0' is not a nonnegative"),
        ("+3 1\n1 2\n", "header '+3 1': n = '+3' is not a nonnegative"),
        ("3 1\n0000000000000000001 3\n",
         "u = '0000000000000000001' has more than 18 digits"),
        ("3 1\n1 9999999999999999999\n",
         "v = '9999999999999999999' has more than 18 digits"),
        ("3 1\n1 99999999999999999999\n",
         "v = '99999999999999999999' has more than 18 digits"),
    ])
    def test_other_fields_are_refused_by_name(self, text, message):
        # the field parse itself refuses them
        for read in (graphs._digit_fields, GrgGraph.from_edge_text):
            with pytest.raises(ValueError, match=re.escape(message)):
                read(text)

    @pytest.mark.parametrize("text", [
        "3\n", "3 1 1\n", "3 1\n1\n2\n", "3 1\n1 2 3\n", "3 1\n1 2\n3\n",
        "3 1\n1\n", "3 2\n1 2\n", "3 1\n1 2\n2 3\n", "3 1\n2 2\n",
        "3 1\n1 4\n", "3 2\n1 2\n02 001\n", " \n\t\n", "3 1 1 2\n",
        "3 2\n1 2 2 3\n", "3 2\n1 2\r\n2\r\n3\r\n",
    ])
    def test_digit_texts_fail_as_on_token_path(self, monkeypatch, text):
        with pytest.raises(ValueError) as token_error:
            token_edge_list(text)
        for _ in each_text_block(monkeypatch):
            with pytest.raises(ValueError) as byte_error:
                GrgGraph.from_edge_text(text)
            assert str(byte_error.value) == str(token_error.value)

    @given(text=edge_texts())
    @settings(max_examples=400, deadline=None)
    def test_reads_the_token_graph_or_refuses(self, text):
        """The reader takes a subset of what the token reader takes: it
        returns the token reader's graph or raises ValueError, and takes
        every text of ASCII digits and whitespace that the token reader
        takes."""
        try:
            expected = token_edge_list(text)
        except ValueError:
            expected = None
        with pytest.MonkeyPatch.context() as patch:
            for _ in each_text_block(patch):
                try:
                    graph = GrgGraph.from_edge_text(text)
                except ValueError:
                    assert expected is None or re.search(
                        f"[^0-9{graphs._SPACES}]", text)
                    continue
                assert expected is not None
                assert_token_graph(graph, text)

    @pytest.mark.parametrize("text,ends", [
        ("4 3\r\n1 2\r\n2 3\r\n3 4\r\n", "\r\n"),
        ("4 3\n1 2\n\n2 3\n3 4", "\n"),          # no final newline
        ("4 3\r1 2\r2 3\r3 4\r", None),          # None: any line end
        ("4 3 \x0b 1 2\x0c2 3\x1c3 4\r", None),
    ])
    def test_blocks_end_just_after_a_newline(self, monkeypatch, text, ends):
        blocks = recorded_blocks(monkeypatch)
        monkeypatch.setattr(graphs, "_TEXT_BLOCK", 5)
        assert GrgGraph.from_edge_text(text).m == 3
        assert "".join(blocks) == text
        # cut after the last line end of 5 characters, or if there is
        # none, after the next
        assert len(blocks) > 3
        assert all(b.endswith(ends or tuple(graphs._LINE_ENDS))
                   for b in blocks[:-1])
        assert all(len(b) <= 5 or first_line_end(b) == len(b) - 1
                   for b in blocks[:-1])

    @pytest.mark.parametrize("end", list(graphs._LINE_ENDS[1:]) + ["\r\n"])
    @pytest.mark.parametrize("size", [64, 3])
    def test_every_line_end_bounds_the_blocks(self, monkeypatch, end, size):
        # a text with other line ends than "\n" reads in as many blocks as
        # the "\n" text, or more for the longer "\r\n", and to the same
        # graph; at 3 characters no window holds a whole line, and each
        # block ends at the first line end past its window
        graph = random_graph(40, 80, np.random.default_rng(3))
        text = graph.to_edge_text()
        blocks = recorded_blocks(monkeypatch)
        monkeypatch.setattr(graphs, "_TEXT_BLOCK", size)
        assert_same_graph(GrgGraph.from_edge_text(text), graph)
        newline_blocks = len(blocks)
        blocks.clear()
        assert_same_graph(GrgGraph.from_edge_text(text.replace("\n", end)),
                          graph)
        assert newline_blocks > 1
        if end == "\r\n":
            assert len(blocks) > newline_blocks
        else:
            assert len(blocks) == newline_blocks
        if size == 64:
            assert max(map(len, blocks)) <= size
        else:
            assert all(first_line_end(b) >= len(b) - len(end)
                       for b in blocks)

    @pytest.mark.parametrize("size", range(1, 30))
    def test_a_split_crlf_reads_as_one_line_end(self, monkeypatch, size):
        # at some sizes a block ends between "\r" and "\n"; the next block
        # starts with an empty line, and the graph and every message stay
        monkeypatch.setattr(graphs, "_TEXT_BLOCK", size)
        text = "19 3\r\n1 2\r\n\r\n12 3\r\n3 4\r\n"
        assert_token_graph(GrgGraph.from_edge_text(text), text)
        for bad, message in (
                ("19 3\r\n1 2\r\n12 +3\r\n3 4\r\n",
                 "edge list line '12 +3': v = '+3' is not a nonnegative "
                 "integer"),
                ("19 3\r\n1 2\r\n12 3 4\r\n3 4\r\n",
                 "malformed edge line: 12 3 4"),
                ("\r\n\r\n+9 3\r\n1 2\r\n",
                 "edge list header '+9 3': n = '+9' is not a nonnegative "
                 "integer")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                GrgGraph.from_edge_text(bad)

    @pytest.mark.parametrize("text,message", [
        ("\n" * 20 + "3 1\n1 2\n", None),
        ("\n \t" * 20 + "3\n", "edge list must start with an 'n m' header"),
        ("\n" * 20 + "+3 1\n1 2\n",
         "edge list header '+3 1': n = '+3' is not a nonnegative integer"),
        ("\n" * 20 + "3 1 7\n1 2\n",
         "edge list must start with an 'n m' header"),
        ("\n" * 20 + "3 1\n" + "\n" * 20 + "+1 2\n",
         "edge list line '+1 2': u = '+1' is not a nonnegative integer"),
        ("\n" * 20 + "3 1\n" + "\n" * 20 + "1 2 7\n",
         "malformed edge line: 1 2 7"),
        ("\n" * 20, "edge list must start with an 'n m' header"),
    ])
    def test_header_past_the_first_blocks(self, monkeypatch, text, message):
        # at 5 characters a block, the first row with fields lies past
        # several blocks of blank lines and still reads as the header
        monkeypatch.setattr(graphs, "_TEXT_BLOCK", 5)
        if message is None:
            assert_token_graph(GrgGraph.from_edge_text(text), text)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                GrgGraph.from_edge_text(text)

    def test_a_bad_last_line_is_read_in_its_own_block(self, monkeypatch,
                                                      sampled_graph):
        # the message comes from the last block alone, so the peak stays
        # near the int64 fields of the blocks before it
        head, last = sampled_graph.to_edge_text()[:-1].rsplit("\n", 1)
        text = f"{head}\n{last} 7\n"
        message = f"malformed edge line: {last} 7"
        error, peak = traced_peak(GrgGraph.from_edge_text, text)
        assert isinstance(error, ValueError) and str(error) == message
        assert peak < 4 * len(text)
        checked = []
        check_lines = graphs._check_lines

        def recording(block, header):
            checked.append(block)
            check_lines(block, header)

        monkeypatch.setattr(graphs, "_check_lines", recording)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GrgGraph.from_edge_text(text)
        assert len(checked) == 1 and text.endswith(checked[0])
        assert len(checked[0]) <= graphs._TEXT_BLOCK
        # at 5 characters a block, on about 200 lines and the bad one, the
        # block is the line
        monkeypatch.setattr(graphs, "_TEXT_BLOCK", 5)
        short = text[:text.index("\n", 2000) + 1] + f"{last} 7\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GrgGraph.from_edge_text(short)
        assert checked[1:] == [f"{last} 7\n"]

    def test_peak_memory_per_text_byte(self, sampled_graph):
        # on this 740 kB text the writer peaks near 4.6 bytes of traced
        # memory per byte of text and the reader near 4.8; on a text this
        # short, one block's temporaries are a large part of that
        text, write_peak = traced_peak(sampled_graph.to_edge_text)
        graph, read_peak = traced_peak(GrgGraph.from_edge_text, text)
        assert_same_graph(graph, sampled_graph)
        assert write_peak < 7 * len(text)
        assert read_peak < 8 * len(text)


class TestSampling:
    def test_two_vertex_frequency(self):
        # single pair with unit weights: presence probability 1/3
        wv = WeightVector.from_values([1.0, 1.0])
        trials = 10**5
        hits = sum(sample_grg(wv, seed).m for seed in range(trials))
        p = 1 / 3
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * se

    def test_er_mean_edge_count(self):
        n, lam = 100, 1.0
        wv = WeightVector.from_values(np.full(n, er_weight(n, lam)))
        reps = 3000
        counts = [sample_grg(wv, 1000 + s).m for s in range(reps)]
        pairs = n * (n - 1) / 2
        expected = pairs / n           # C(n,2) * lam/n with lam = 1
        var = pairs * (lam / n) * (1 - lam / n)
        se = np.sqrt(var / reps)
        assert abs(np.mean(counts) - expected) < 3 * se

    def test_heavy_vertex_dominates(self):
        wv = WeightVector.from_values([50.0] + [1.0] * 30)
        degs = np.zeros(31)
        for seed in range(200):
            graph = sample_grg(wv, seed)
            degs += [graph.degree(i) for i in range(31)]
        assert degs[0] > degs[1:].max()

    def test_pair_frequencies_match_edge_probability(self):
        wv = WeightVector.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
        reps = 10**4
        hits = np.zeros((5, 5))
        for seed in range(reps):
            graph = sample_grg(wv, seed)
            for u, v in graph.edge_array():
                hits[u, v] += 1
        for u in range(5):
            for v in range(u + 1, 5):
                p = edge_probability(wv.values[u], wv.values[v], wv.total)
                se = np.sqrt(p * (1 - p) / reps)
                assert abs(hits[u, v] / reps - p) <= 4 * se

    def test_deterministic_per_seed(self):
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 60, seed=1)
        a = sample_grg(wv, seed=9)
        b = sample_grg(wv, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            sample_grg(WeightVector.from_values([1.0]), seed=0)

    @pytest.mark.parametrize("values,largest", [
        ([1e200] * 6, "1e+200"),
        ([1.0, 2e154, 1.0], "2e+154"),
        ([1e308, 1.0], "1e+308"),         # with a finite total
    ])
    def test_overflowing_weights_are_refused(self, values, largest):
        # w_i * w_j overflows to inf and inf / inf is NaN, which no uniform
        # falls below: the graph would come out empty
        weights = WeightVector.from_values(values)
        with pytest.raises(ValueError, match=(
                f"^weights up to {re.escape(largest)} overflow float64 in "
                f"the edge law: the largest weight squared is not "
                f"finite$")):
            sample_grg(weights, seed=0)

    def test_largest_finite_products_join_every_pair(self):
        # 1e150**2 is finite: every edge probability rounds to 1
        graph = sample_grg(WeightVector.from_values([1e150] * 6), seed=0)
        assert graph.m == 15


def reference_sample(weights, seed):
    """CSR arrays from a per-row loop, the reference for the sampler: one
    ``rng.random`` call per row and every pair tested exactly."""
    w = weights.values
    n = w.size
    total = weights.total
    rng = np.random.default_rng(seed)
    heads, tails = [], []
    for i in range(n - 1):
        u = rng.random(n - 1 - i)
        prod = w[i] * w[i + 1:]
        cols = np.nonzero(u < prod / (total + prod))[0] + i + 1
        heads.append(np.full(cols.size, i))
        tails.append(cols)
    rows = np.concatenate(heads + tails)
    cols = np.concatenate(tails + heads)
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr, cols[order]


def each_prefilter(monkeypatch):
    """Patch the sampler's switch so that every chunk compares its uniforms
    with per-segment bounds (``_SCALAR_TOP = 0``), then with its one scalar
    bound (``inf``)."""
    for top in (0.0, np.inf):
        monkeypatch.setattr(graphs, "_SCALAR_TOP", top)
        yield top


def parity_weights(n, seed):
    rng = np.random.default_rng(seed)
    cases = {f"pareto{shape}": sample_weights(
        WeightSpec.pareto_shifted(shape, 10, 1), n, seed).values
        for shape in (9.5, 2.5, 1.5)}
    cases["two_point"] = sample_weights(WeightSpec.two_point(1, 60, 0.9), n,
                                        seed).values
    cases["constant"] = np.full(n, 3.0)
    cases["extreme"] = 10.0 ** rng.uniform(-6, 6, n)
    return cases


class TestSamplerStream:
    """The sampler draws one uniform per pair in lexicographic order, so its
    graphs are pinned by the seed; the digests were recorded from the per-row
    loop of ``reference_sample``."""

    @pytest.mark.parametrize("shape,n,wseed,seed,digest", [
        (9.5, 2000, 0, 0,
         "52331bbbb616fec26aefe79e7189e4249a04a15735865a3e3f5540f0fccdc1e8"),
        (9.5, 2000, 0, 1,
         "d7be0e80e34f79329ad239e8f98ffc1df533a3632f1f3ef899b31719c5f0bebc"),
        (1.5, 500, 0, 2,
         "cbf9d59f65a3efe17fa8696519632ed03ccf70d88e9b9e434801c79e7e3bb30d"),
    ])
    def test_pinned_edge_text(self, shape, n, wseed, seed, digest):
        graph = sample_grg(sample_weights(
            WeightSpec.pareto_shifted(shape, 10, 1), n, wseed), seed)
        text = graph.to_edge_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @staticmethod
    def assert_parity(weights, seed):
        graph = sample_grg(weights, seed)
        indptr, indices = reference_sample(weights, seed)
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.indices, indices)

    @pytest.mark.parametrize("n", [2, 3, 5, 40, 300])
    def test_matches_row_loop_with_small_chunks(self, monkeypatch, n):
        # chunks of up to 7 pairs and 5-column blocks that end mid-row; the
        # pre-filter runs on every chunk, down to a single pair, on each
        # of its two paths
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 7)
        monkeypatch.setattr(graphs, "_BLOCK", 5)
        for _ in each_prefilter(monkeypatch):
            for values in parity_weights(n, seed=n).values():
                weights = WeightVector.from_values(values)
                for seed in range(3):
                    self.assert_parity(weights, seed)

    def test_matches_row_loop_at_default_chunks(self, monkeypatch):
        n = 700                 # 244,650 pairs: four chunks, ten hub columns
        for _ in each_prefilter(monkeypatch):
            for values in parity_weights(n, seed=11).values():
                self.assert_parity(WeightVector.from_values(values), 4)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_matches_row_loop_in_parts_with_small_chunks(self, monkeypatch,
                                                         n, cpus):
        # each part cuts its rows into chunks of its own of up to 7 pairs,
        # and a graph takes no more parts than it has chunks
        used = force_parts(monkeypatch, cpus)
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 7)
        monkeypatch.setattr(graphs, "_BLOCK", 5)
        for _ in each_prefilter(monkeypatch):
            for values in parity_weights(n, seed=n).values():
                weights = WeightVector.from_values(values)
                for seed in range(3):
                    self.assert_parity(weights, seed)
        assert set(used) == {min(cpus, -(-n * (n - 1) // 2 // 7))}

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_matches_row_loop_in_parts_at_default_chunks(self, monkeypatch,
                                                         cpus):
        used = force_parts(monkeypatch, cpus)
        n = 700                 # four chunks: five CPUs take four parts
        for _ in each_prefilter(monkeypatch):
            for values in parity_weights(n, seed=11).values():
                self.assert_parity(WeightVector.from_values(values), 4)
        assert set(used) == {min(cpus, 4)}

    @pytest.mark.parametrize("shape,built", [(9.5, 0), (1.5, 1)])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_segments_built_only_for_a_loose_largest_square(
            self, monkeypatch, shape, built, cpus):
        # a Pareto 9.5 graph at n = 2000 has a bound below _SCALAR_TOP even
        # at its largest weight squared; a Pareto 1.5 graph does not, and
        # its parts share one segment table
        force_parts(monkeypatch, cpus)
        segments = graphs._column_segments
        calls = []
        monkeypatch.setattr(graphs, "_column_segments",
                            lambda w: calls.append(w.size) or segments(w))
        weights = sample_weights(WeightSpec.pareto_shifted(shape, 10, 1),
                                 2000, 0)
        graph = sample_grg(weights, 5)
        assert calls == [2000] * built
        indptr, indices = reference_sample(weights, 5)
        assert np.array_equal(graph.indices, indices)

    def test_matches_row_loop_under_fast_thread_switching(self, monkeypatch):
        # eight parts on fewer CPUs, switching threads every microsecond
        used = force_parts(monkeypatch, 8)
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(3):
                self.assert_parity(WeightVector.from_values(
                    parity_weights(200, seed=seed)["pareto1.5"]), seed)
        finally:
            sys.setswitchinterval(interval)
        assert used == [8] * 3

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        used = force_parts(monkeypatch, 5)
        n = 362                 # 65,341 pairs, under one chunk of 65,536
        weights = WeightVector.from_values(np.full(n, 3.0))
        self.assert_parity(weights, 0)
        assert used == [1]

    def test_unit_thread_samples_in_one_part(self, monkeypatch):
        """A unit of the replication map runs on a thread placed on one
        CPU, so it samples in one part: the same bytes as five parts."""
        used = force_parts(monkeypatch, 5)
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 1000)
        weights = sample_weights(WeightSpec.pareto_shifted(2.5, 10, 1), 120,
                                 0)
        here = [sample_grg(weights, seed) for seed in range(2)]
        there = map_replications(lambda seed: sample_grg(weights, seed),
                                 range(2), workers=2)
        assert used == [5, 5, 2, 1, 1]
        for mine, theirs in zip(here, there):
            assert np.array_equal(mine.indptr, theirs.indptr)
            assert np.array_equal(mine.indices, theirs.indices)

    def test_census_does_not_depend_on_workers(self, monkeypatch):
        used = force_parts(monkeypatch, 3)
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 1000)
        cfg = ExperimentConfig(spec=WeightSpec.pareto_shifted(2.5, 10, 1),
                               n=120, k=3, replications=4, seed=8)
        counts = [run_census(cfg).counts
                  for cfg in (cfg, dataclasses.replace(cfg, workers=2))]
        # one block, each graph in three parts; then two blocks, each
        # graph in one part on its block's CPU
        assert used == [1] + [3] * 4 + [2] + [1] * 4
        assert counts[0] == counts[1] and sum(counts[0]) > 0

    def test_helper_error_is_raised_in_the_caller(self):
        def job(part):
            if part == 2:
                raise KeyError(part)
            return part

        assert replication._on_threads(job, 2) == [0, 1]
        with pytest.raises(KeyError):
            replication._on_threads(job, 4)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the OS keeps no affinity masks")
    @pytest.mark.parametrize("failing", [None, 0, 1])
    def test_each_part_runs_on_a_cpu_of_its_own(self, monkeypatch, failing):
        """With the real masks: part k runs under the k-th CPU of the
        caller's set alone, and the caller's mask comes back after the
        parts, also when one raises."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            pytest.skip("one CPU runs one part")
        before = os.sched_getaffinity(0)
        setaffinity = os.sched_setaffinity
        calls = []

        def recording(pid, mask):
            calls.append((threading.get_ident(), set(mask)))
            setaffinity(pid, mask)

        monkeypatch.setattr(os, "sched_setaffinity", recording)

        def job(part):
            if part == failing:
                raise KeyError(part)
            return os.sched_getaffinity(0)

        parts = min(len(cpus), 3)
        if failing is None:
            assert replication._on_threads(job, parts) == [
                {cpu} for cpu in cpus[:parts]]
        else:
            with pytest.raises(KeyError):
                replication._on_threads(job, 2)
        assert os.sched_getaffinity(0) == before
        # the caller placed itself once and restored its mask once
        caller = [mask for ident, mask in calls
                  if ident == threading.get_ident()]
        assert caller == [{cpus[0]}, before]

    def test_unplaceable_parts_give_the_same_bytes(self, monkeypatch):
        """Where no part can be placed (here three CPUs that the OS
        refuses), every part runs where it is, with the same results."""
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 7)
        weights = WeightVector.from_values(
            parity_weights(40, seed=1)["pareto1.5"])
        one = sample_grg(weights, 2)
        used = []

        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(3),
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        on_threads = replication._on_threads
        monkeypatch.setattr(replication, "_on_threads",
                            lambda job, parts: used.append(parts)
                            or on_threads(job, parts))
        assert_same_graph(sample_grg(weights, 2), one)
        assert used == [3]

    @pytest.mark.parametrize("seed", [np.random.default_rng(3),
                                      np.random.PCG64(3)],
                             ids=["Generator", "BitGenerator"])
    def test_generator_seed_refused(self, seed):
        weights = WeightVector.from_values(np.full(10, 3.0))
        with pytest.raises(TypeError, match="^seed must be an int or a "
                           "SeedSequence: each part rebuilds its generator "
                           "from it$"):
            sample_grg(weights, seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-1)], ids=["int", "int64"])
    def test_negative_seed_is_named(self, seed):
        weights = WeightVector.from_values(np.full(10, 3.0))
        with pytest.raises(ValueError, match="^seed=-1 is negative$"):
            sample_grg(weights, seed)


class TestCycleProbability:
    def test_unit_square_triangle(self):
        wv = WeightVector.from_values([1.0] * 4)
        assert cycle_probability(wv, (0, 1, 2)) == pytest.approx((1 / 5) ** 3)

    def test_er_case(self):
        n, lam, k = 12, 2.0, 4
        wv = WeightVector.from_values(np.full(n, er_weight(n, lam)))
        assert cycle_probability(wv, (0, 3, 7, 9)) == pytest.approx(
            (lam / n) ** k, rel=1e-12)

    def test_rejects_repeats_and_short(self):
        wv = WeightVector.from_values([1.0] * 4)
        with pytest.raises(ValueError):
            cycle_probability(wv, (0, 1, 1))
        with pytest.raises(ValueError):
            cycle_probability(wv, (0, 1))
