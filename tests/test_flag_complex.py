"""A flag complex owns its cells: the triangle cycles are enumerated once, at
construction, and every entry that takes edges from a caller reads them
through ``FlagComplex.read_edges``."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from fillcalc.bestvina_brady import (
    BBModel,
    CombinatorialNullHomotopy,
    FlagComplex,
    NullHomotopyMove,
    apply_null_homotopy_move,
    bb_relator_scheme,
    find_null_homotopy,
    null_homotopy_to_sequence,
    octahedron_complex,
    replay_null_homotopy,
    spanning_tree,
    triangle_complex,
)

K3 = triangle_complex()
K3_TREE = spanning_tree(K3)
OCTA = octahedron_complex()
C4 = FlagComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
FIXED = [pytest.param(K3, id="K3"), pytest.param(OCTA, id="octahedron"),
         pytest.param(C4, id="C4")]


def reference_cycles_of_triangle(trio):
    u, v, w = trio
    out = []
    for a, b, c in ((u, v, w), (u, w, v)):
        cyc = ((a, b), (b, c), (c, a))
        for k in range(3):
            out.append(cyc[k:] + cyc[:k])
    return out


def reference_triangle_cycles(delta):
    """The enumeration the search and the presentation each ran before the
    complex held it."""
    out = []
    for trio in delta.triangles():
        out.extend(reference_cycles_of_triangle(trio))
    return out


def reference_is_triangle_cycle(delta, cyc):
    """The hand-written triangle test: a closed walk on edges through three
    distinct vertices."""
    for e in cyc:
        if frozenset(e) not in delta.edge_set:
            return False
    closed = all(cyc[i][1] == cyc[(i + 1) % len(cyc)][0] for i in range(len(cyc)))
    return closed and len({e[0] for e in cyc}) == 3


def check_cells(delta):
    assert list(delta.triangle_cycles) == reference_triangle_cycles(delta)
    assert delta.triangle_cycle_set == frozenset(delta.triangle_cycles)
    directed = delta.directed_edges()
    # every closed walk of three edges through three distinct vertices
    walks = {
        (e, f, g)
        for e in directed
        for f in directed if f[0] == e[1]
        for g in directed if g[0] == f[1] and g[1] == e[0]
        and len({e[0], f[0], g[0]}) == 3
    }
    assert set(delta.triangle_cycles) == walks
    assert len(delta.triangle_cycles) == 6 * len(delta.triangles())
    for triple in itertools.product(directed, repeat=3):
        assert (triple in delta.triangle_cycle_set) == reference_is_triangle_cycle(
            delta, triple
        )


@pytest.mark.parametrize("delta", FIXED)
def test_triangle_cycles_are_the_reference_enumeration(delta):
    check_cells(delta)


@st.composite
def flag_complexes(draw):
    names = "abcdefg"[: draw(st.integers(1, 7))]
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return FlagComplex(names, chosen)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flag_complexes())
def test_triangle_cycles_of_drawn_complexes(delta):
    check_cells(delta)


def shapes(edges):
    """The same edges as tuples, as lists and as two-letter strings."""
    return [tuple(tuple(e) for e in edges), [list(e) for e in edges],
            ["".join(e) for e in edges]]


TRIANGLE = (("a", "b"), ("b", "c"), ("c", "a"))
TWO_CELL = (("a", "c"), ("c", "b"), ("b", "a"))


def test_read_edges_reads_every_shape_as_tuples():
    for edges in shapes(TRIANGLE):
        assert K3.read_edges(edges) == TRIANGLE
    assert K3.read_edges(iter(["ab"])) == (("a", "b"),)
    assert K3.read_edges([]) == ()


@pytest.mark.parametrize("item", [
    pytest.param(("a", "b", "c"), id="three-vertices"),
    pytest.param(("a", "a"), id="loop"),
    pytest.param("aa", id="loop-string"),
    pytest.param(("a", "z"), id="unknown-vertex"),
    pytest.param("abc", id="three-letter-string"),
    pytest.param(5, id="int"),
    pytest.param(None, id="none"),
    pytest.param((["a"], ["b"]), id="list-vertices"),
])
def test_read_edges_names_the_first_item_that_is_no_edge(item):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(item))} is not an edge$"):
        K3.read_edges([("a", "b"), item, 7])


def test_read_edges_rejects_a_non_edge_of_the_complex():
    with pytest.raises(ValueError, match="is not an edge"):
        OCTA.read_edges([("u1", "v1"), ("u1", "u2")])


def test_every_entry_reads_each_edge_shape_alike():
    cycle = BBModel(K3, K3_TREE).edge_cycle(("b", "c"))
    found = [find_null_homotopy(K3, shape) for shape in shapes(TRIANGLE) + shapes(cycle)]
    assert found[:3] == [found[0]] * 3 and found[3:] == [found[3]] * 3
    assert found[0].moves == (NullHomotopyMove("2-collapse", 0),)

    moves = (NullHomotopyMove("1-collapse", 0),)
    replays, sequences = [], []
    for start in shapes((("a", "b"), ("b", "a"))):
        nh = CombinatorialNullHomotopy(start, moves)
        replays.append(replay_null_homotopy(K3, nh))
        sequences.append(null_homotopy_to_sequence(K3, K3_TREE, nh, 2))
    assert replays == [()] * 3
    assert sequences == [sequences[0]] * 3

    grown = [
        apply_null_homotopy_move(K3, start, NullHomotopyMove(kind, 1, edges))
        for start in shapes((("a", "b"), ("b", "a")))
        for kind, cells in (("1-expand", shapes([("b", "c")])),
                            ("2-expand", shapes(TWO_CELL[2:] + TWO_CELL[:2])))
        for edges in cells
    ]
    assert grown[:3] == [(("a", "b"), ("b", "c"), ("c", "b"), ("b", "a"))] * 3
    assert grown[3:6] == [(("a", "b"), ("b", "a"), ("a", "c"), ("c", "b"),
                           ("b", "a"))] * 3
    assert grown == grown[:6] * 3

    model = BBModel(K3, K3_TREE)
    for kind, args in (("efg", shapes(TRIANGLE)), ("inverse-efg", shapes(TRIANGLE)),
                       ("e-ebar", [("a", "c"), ["a", "c"], "ac"]),
                       ("stable", [("b", "a"), ["b", "a"], "ba"])):
        emitted = [bb_relator_scheme(K3, K3_TREE, kind, a, 1, model) for a in args]
        assert emitted == [emitted[0]] * len(emitted), kind


BAD_EDGES = [("a", "b", "c"), ("a", "a"), ("a", "z"), 5]


@pytest.mark.parametrize("bad", BAD_EDGES, ids=["three", "loop", "non-edge", "int"])
def test_every_entry_rejects_what_is_no_edge(bad):
    with pytest.raises(ValueError, match="is not an edge"):
        find_null_homotopy(K3, [("a", "b"), bad])
    nh = CombinatorialNullHomotopy((("a", "b"), bad), ())
    with pytest.raises(ValueError, match="is not an edge"):
        replay_null_homotopy(K3, nh)
    with pytest.raises(ValueError, match="is not an edge"):
        null_homotopy_to_sequence(K3, K3_TREE, nh, 1)
    with pytest.raises(ValueError, match="is not an edge"):
        apply_null_homotopy_move(K3, (("a", "b"), bad), NullHomotopyMove("1-collapse", 0))
    for kind, edges in (("1-expand", (bad,)), ("2-expand", (("a", "b"), ("b", "c"), bad))):
        with pytest.raises(ValueError, match="is not an edge"):
            apply_null_homotopy_move(K3, (), NullHomotopyMove(kind, 0, edges))
    with pytest.raises(ValueError, match="^e-ebar takes a directed edge, not "):
        bb_relator_scheme(K3, K3_TREE, "e-ebar", bad, 1)
    with pytest.raises(ValueError, match="^efg takes a triangle cycle of three edges"):
        bb_relator_scheme(K3, K3_TREE, "efg", (("a", "b"), ("b", "c"), bad), 1)


@pytest.mark.parametrize("kind", ["e-ebar", "efg", "inverse-efg", "stable"])
def test_scheme_arguments_that_are_not_iterable_are_usage_errors(kind):
    with pytest.raises(ValueError, match=f"^{kind} takes a .*, not 5$"):
        bb_relator_scheme(K3, K3_TREE, kind, 5, 1)


def test_two_cell_moves_test_membership_with_the_same_messages():
    with pytest.raises(ValueError, match="^edges do not form a triangle cycle$"):
        apply_null_homotopy_move(K3, (), NullHomotopyMove(
            "2-expand", 0, (("a", "b"), ("b", "a"), ("a", "b"))))
    with pytest.raises(ValueError, match="^edges do not form a triangle cycle$"):
        apply_null_homotopy_move(K3, (), NullHomotopyMove("2-expand", 0, TRIANGLE[:2]))
    with pytest.raises(ValueError, match="^edges do not form a triangle cycle$"):
        apply_null_homotopy_move(K3, (("a", "b"), ("b", "a"), ("a", "b"), ("b", "a")),
                                 NullHomotopyMove("2-collapse", 0))
    assert apply_null_homotopy_move(
        K3, ["ab", "bc", "ca"], NullHomotopyMove("2-collapse", 0)) == ()
