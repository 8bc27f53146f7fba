import dataclasses
import random
from collections import deque

import pytest

from fillcalc import bestvina_brady, oracle
from fillcalc.bestvina_brady import (
    BBModel,
    CombinatorialNullHomotopy,
    FlagComplex,
    NullHomotopyMove,
    apply_null_homotopy_move,
    bb_indexed_families,
    bb_phi,
    bb_relator_scheme,
    check_flag,
    dicks_leary_presentation,
    edge_conjugation_word,
    edge_embedding,
    find_null_homotopy,
    octahedron_complex,
    raag_presentation,
    rarea_sample,
    scheme_bound,
    spanning_tree,
    tree_word,
    triangle_complex,
)
from fillcalc.bestvina_brady import _triangle_cycles
from fillcalc.oracle import (
    SearchBudget,
    area_exact,
    dp_equal,
    raag_equal,
    two_step_filling,
)
from fillcalc.oracle import DirectProductSpec
from fillcalc.pulldown import compose_bounds, parse_bound
from fillcalc.rewriting import GroupPresentation, InternalCheckError, replay_sequence
from fillcalc.seqbuild import WordEditor
from fillcalc.words import EMPTY, Letter, Word, concat, free_reduce, word, wpow


K3 = triangle_complex()
K3_TREE = spanning_tree(K3)
OCTA = octahedron_complex()
OCTA_TREE = spanning_tree(OCTA)


def test_check_flag_examples():
    k3 = check_flag("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert len(k3.triangles()) == 1
    c4 = check_flag("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert len(c4.triangles()) == 0
    assert len(OCTA.triangles()) == 8


def test_check_flag_rejects_bad_graphs():
    with pytest.raises(ValueError):
        check_flag("ab", [("a", "a")])
    with pytest.raises(ValueError):
        check_flag("ab", [("a", "z")])
    with pytest.raises(ValueError):
        check_flag(
            "abc",
            [("a", "b"), ("b", "c"), ("a", "c")],
            declared_simplices=[("a", "b", "z")],
        )


def test_flag_complex_rejects_underscore_vertex():
    # the edge letter of (a_1, b) would be a_1_b, read back as (a, 1_b)
    with pytest.raises(ValueError, match="'a_1'"):
        FlagComplex(["a_1", "b"], [("a_1", "b")])


@pytest.mark.parametrize("vertices, message", [
    ([], "at least one vertex"),
    (["a b", "c"], "'a b' is not a generator name"),
    (["1", "c"], "'1' is not a generator name"),
], ids=["no-vertex", "space", "digit-first"])
def test_flag_complex_rejects_vertices_that_name_no_generators(vertices, message):
    with pytest.raises(ValueError, match=message):
        FlagComplex(vertices, [])


def parent_walk_path(tree, u, v):
    """The tree path by walking both vertices up to the base and dropping
    their common part, as ``SpanningTree.path`` did before it stored root
    paths."""
    up, vp = [u], [v]
    while tree.parent[up[-1]] is not None:
        up.append(tree.parent[up[-1]])
    while tree.parent[vp[-1]] is not None:
        vp.append(tree.parent[vp[-1]])
    while len(up) > 1 and len(vp) > 1 and up[-2] == vp[-2]:
        up.pop()
        vp.pop()
    out = [(up[i], up[i + 1]) for i in range(len(up) - 1)]
    out.extend((vp[i + 1], vp[i]) for i in reversed(range(len(vp) - 1)))
    return out


@pytest.mark.parametrize("delta", [K3, OCTA, check_flag("vwxyz", [
    ("v", "w"), ("w", "x"), ("x", "y"), ("y", "z")])], ids=["K3", "octahedron", "path"])
def test_tree_path_matches_the_parent_walk(delta):
    tree = spanning_tree(delta)
    for u in delta.vertices:
        assert len(tree.root_paths[u]) == len(parent_walk_path(tree, delta.base, u))
        for v in delta.vertices:
            assert tree.path(u, v) == parent_walk_path(tree, u, v)
    with pytest.raises(ValueError, match="unknown vertex"):
        tree.path(delta.base, "q")


def test_raag_presentation_shapes():
    assert len(raag_presentation(K3).relators) == 3
    edgeless = check_flag("abc", [])
    assert len(raag_presentation(edgeless).relators) == 0
    c4 = check_flag("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
    assert len(raag_presentation(c4).relators) == 4


def test_c4_raag_is_product_of_free_groups():
    # the square's group is a product of two rank-two free groups
    c4 = check_flag("wxyz", [("w", "y"), ("y", "x"), ("x", "z"), ("z", "w")])
    spec = DirectProductSpec((("w", "x"), ("y", "z")))
    rng = random.Random(3)
    gens = ("w", "x", "y", "z")
    for _ in range(200):
        n1 = rng.randrange(8)
        w1 = Word(tuple(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(n1)))
        w2 = Word(tuple(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(n1)))
        assert raag_equal(c4, w1, w2) == dp_equal(spec, w1, w2)


def test_dicks_leary_counts():
    pres = dicks_leary_presentation(K3)
    assert len(pres.generators) == 6
    assert len(pres.relators) == 6 + 12
    single = check_flag("ab", [("a", "b")])
    pres1 = dicks_leary_presentation(single)
    assert len(pres1.generators) == 2
    assert len(pres1.relators) == 2


def test_dicks_leary_relators_die_in_raag():
    for delta in (K3, OCTA):
        pres = dicks_leary_presentation(delta)
        for rel in pres.relators:
            assert raag_equal(delta, edge_embedding(delta, rel), EMPTY)


def test_tree_word_examples():
    assert tree_word(K3, K3_TREE, 2, "a", "a") == EMPTY
    assert tree_word(K3, K3_TREE, 0, "a", "c") == EMPTY
    w = tree_word(K3, K3_TREE, 1, "b", "c")
    # breadth-first tree from a: path b -> a -> c
    assert str(w) == "b_a a_c"


def test_tree_word_inverse_identity_in_raag():
    for delta, tree in ((K3, K3_TREE), (OCTA, OCTA_TREE)):
        for n in range(-3, 4):
            for u in delta.vertices:
                for v in delta.vertices:
                    lhs = tree_word(delta, tree, n, u, v).inverse()
                    rhs = tree_word(delta, tree, n, v, u)
                    assert raag_equal(
                        delta, edge_embedding(delta, lhs), edge_embedding(delta, rhs)
                    )


def test_bb_phi_basics():
    e = ("a", "b")
    let = Word((K3.edge_letter(e),))
    assert bb_phi(K3, K3_TREE, 0, let) == let
    expected = concat(
        tree_word(K3, K3_TREE, 1, "a", "a"),
        Word((K3.edge_letter(e), K3.edge_letter(e))),
        tree_word(K3, K3_TREE, 1, "b", "a"),
    )
    assert bb_phi(K3, K3_TREE, 1, let) == expected
    # commutes with inversion
    assert bb_phi(K3, K3_TREE, 2, let.inverse()) == bb_phi(K3, K3_TREE, 2, let).inverse()


def test_indexed_families_members():
    members = bb_indexed_families(K3, K3_TREE, 0)
    pres = dicks_leary_presentation(K3)
    base0 = [m for m in members if m.family == "base"]
    words = {m.word for m in base0}
    for rel in pres.relators:
        assert rel in words  # identity shift keeps every relator
    stable = [m for m in members if m.family == "stable"]
    e = ("a", "b")
    target = concat(
        bb_phi(K3, K3_TREE, 1, Word((K3.edge_letter(e),))),
        edge_conjugation_word(K3, K3_TREE, e).inverse(),
    )
    assert any(m.word == target for m in stable)


@pytest.mark.parametrize("delta,tree", [(K3, K3_TREE), (OCTA, OCTA_TREE)])
def test_family_members_die_in_raag(delta, tree):
    for m in bb_indexed_families(delta, tree, 2):
        assert raag_equal(delta, edge_embedding(delta, m.word), EMPTY)


def test_find_null_homotopy_examples():
    nh = find_null_homotopy(K3, (("a", "b"), ("b", "a")))
    assert len(nh) == 1
    nh = find_null_homotopy(K3, (("a", "b"), ("b", "c"), ("c", "a")))
    assert len(nh) == 1
    assert BBModel(K3, K3_TREE).K == 3


def test_find_null_homotopy_of_the_empty_cycle():
    # the empty cycle is its own null-homotopy; the search used to raise
    nh = find_null_homotopy(K3, ())
    assert nh.start == () and nh.moves == ()
    assert bestvina_brady.replay_null_homotopy(K3, nh) == ()


@pytest.mark.parametrize("max_states", [1, 2, 5])
def test_find_null_homotopy_max_states_is_a_cap(max_states, monkeypatch):
    """The doubled triangle needs two collapses; a budget checked only when
    a cycle is dequeued let the search add dozens of cycles past it."""
    added = set()

    class CountingQueue(deque):
        def append(self, cyc):
            added.add(cyc)
            super().append(cyc)

    monkeypatch.setattr(bestvina_brady, "deque", CountingQueue)
    triangle = (("a", "b"), ("b", "c"), ("c", "a"))
    with pytest.raises(bestvina_brady.NotNullError, match="budget"):
        find_null_homotopy(K3, triangle * 2, max_states=max_states)
    # the cycles added besides the start, the last of them past the budget
    # and not queued
    assert len(added) < max_states


def reference_find_null_homotopy(delta, cycle, max_states=200_000):
    """The search as it was before it built only the cycles it needs: every
    candidate move as a NullHomotopyMove, applied and checked by
    apply_null_homotopy_move."""
    start = tuple(cycle)
    if not start:
        return CombinatorialNullHomotopy(start, ())
    cap = len(start) + 4
    expansions = (
        ("1-expand", 2, [(e,) for e in delta.directed_edges()]),
        ("2-expand", 3, _triangle_cycles(delta)),
    )
    seen = {start: None}
    queue = deque([start])
    while queue:
        cyc = queue.popleft()
        moves = []
        for k in range(len(cyc) - 1):
            if cyc[k + 1] == (cyc[k][1], cyc[k][0]):
                moves.append(NullHomotopyMove("1-collapse", k))
        for k in range(len(cyc) - 2):
            tri = (cyc[k], cyc[k + 1], cyc[k + 2])
            if len({e[0] for e in tri}) == 3 and bestvina_brady._is_cycle(delta, tri):
                moves.append(NullHomotopyMove("2-collapse", k))
        for kind, size, cells in expansions:
            if len(cyc) + size > cap:
                continue
            for k in range(len(cyc) + 1):
                attach = bestvina_brady._attach(cyc, k)
                moves.extend(
                    NullHomotopyMove(kind, k, cell)
                    for cell in cells
                    if attach is None or cell[0][0] == attach
                )
        for move in moves:
            nxt = apply_null_homotopy_move(delta, cyc, move)
            if nxt in seen:
                continue
            seen[nxt] = (cyc, move)
            if not nxt:
                chain = []
                cur = nxt
                while seen[cur] is not None:
                    prev, mv = seen[cur]
                    chain.append(mv)
                    cur = prev
                return CombinatorialNullHomotopy(start, tuple(reversed(chain)))
            if len(seen) > max_states:
                raise bestvina_brady.NotNullError("null-homotopy search budget exhausted")
            queue.append(nxt)
    raise bestvina_brady.NotNullError("cycle admits no null-homotopy within the length cap")


def closed_walks(delta, longest):
    """Every closed edge walk of 1 to longest edges, from every vertex."""
    walks = []

    def extend(walk, at, first, length):
        if len(walk) == length:
            if at == first:
                walks.append(tuple(walk))
            return
        for v in sorted(delta.adjacency[at]):
            extend(walk + [(at, v)], v, first, length)

    for length in range(1, longest + 1):
        for v in delta.vertices:
            extend([], v, v, length)
    return walks


@pytest.mark.parametrize("delta,tree,walks", [(K3, K3_TREE, 30), (OCTA, OCTA_TREE, 360)],
                         ids=["K3", "octahedron"])
def test_find_null_homotopy_matches_the_reference_search(delta, tree, walks):
    model = BBModel(delta, tree)
    cycles = closed_walks(delta, 4)
    assert len(cycles) == walks
    for cycle in cycles + [model.edge_cycle(e) for e in delta.directed_edges()]:
        assert find_null_homotopy(delta, cycle) == reference_find_null_homotopy(delta, cycle)


def test_find_null_homotopy_matches_the_reference_at_tight_budgets():
    triangle = (("a", "b"), ("b", "c"), ("c", "a"))
    for cycle in (triangle * 2, triangle + (("a", "c"), ("c", "b"), ("b", "a"))):
        for max_states in range(1, 40):
            outcomes = []
            for search in (find_null_homotopy, reference_find_null_homotopy):
                try:
                    outcomes.append(search(K3, cycle, max_states=max_states))
                except bestvina_brady.NotNullError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (cycle, max_states)


def test_a_found_null_homotopy_that_does_not_replay_is_an_internal_defect(monkeypatch):
    # the search replays the homotopy it returns; one whose moves do not
    # reach the empty cycle is a defect of the search, exit 4
    monkeypatch.setattr(bestvina_brady, "replay_null_homotopy",
                        lambda delta, nh: nh.start)
    with pytest.raises(InternalCheckError, match="not \\(\\)"):
        find_null_homotopy(K3, (("a", "b"), ("b", "a")))

    def refuse(delta, nh):
        raise ValueError("move 0: edges are not mutually reverse")

    monkeypatch.setattr(bestvina_brady, "replay_null_homotopy", refuse)
    with pytest.raises(InternalCheckError, match="not mutually reverse"):
        find_null_homotopy(K3, (("a", "b"), ("b", "a")))


def unmemoised_phi_image(delta, tree, n, let):
    """The shift of one letter by its definition, P(iota, n) x^(n+1) Q(tau, n)
    for a positive letter and its inverse for a negative one."""
    u, v = delta.letter_edge(let.gen)
    image = concat(tree_word(delta, tree, n, delta.base, u),
                   wpow(Word((Letter(let.gen, 1),)), n + 1),
                   tree_word(delta, tree, n, v, delta.base))
    return image if let.sign > 0 else image.inverse()


@pytest.mark.parametrize("delta,tree", [(K3, K3_TREE), (OCTA, OCTA_TREE)],
                         ids=["K3", "octahedron"])
def test_bb_phi_matches_its_definition_with_a_fresh_and_a_warm_table(delta, tree):
    letters = [delta.edge_letter(e, sign) for e in delta.directed_edges() for sign in (1, -1)]
    warm = {}
    for n in range(-3, 4):
        for let in letters:
            want = unmemoised_phi_image(delta, tree, n, let)
            assert bb_phi(delta, tree, n, Word((let,))) == want
            assert bb_phi(delta, tree, n, Word((let,)), {}) == want
            assert bb_phi(delta, tree, n, Word((let,)), warm) == want
            assert bb_phi(delta, tree, n, Word((let,)), warm) == want
        # a word repeating letters of both signs, against the warm table
        w = Word(tuple(letters) * 2)
        want = concat(*(unmemoised_phi_image(delta, tree, n, let) for let in w))
        assert bb_phi(delta, tree, n, w) == bb_phi(delta, tree, n, w, warm) == want
    assert len(warm) == 7 * len(letters)


def test_bb_phi_rejects_a_letter_that_is_not_an_edge_with_any_table():
    for images in (None, {}):
        with pytest.raises(ValueError, match="does not name a directed edge"):
            bb_phi(K3, K3_TREE, 1, word("a_b a_q"), images)
        assert not images or set(images) == {(Letter("a_b", 1), 1)}


def test_the_emitters_share_the_model_s_letter_images_and_the_tree_keeps_none():
    # a tree is shared by models, so a table on it would warm every model
    model = BBModel(K3, K3_TREE)
    bb_relator_scheme(K3, K3_TREE, "stable", ("a", "b"), 2, model)
    assert {n for _, n in model._images} == {2, 3}
    assert vars(K3_TREE).keys() == {"delta", "parent", "root_paths"}


def test_null_homotopy_to_power_sequence():
    model = BBModel(K3, K3_TREE)
    cycle = (("a", "b"), ("b", "c"), ("c", "a"))
    for n in (-2, -1, 1, 2, 3):
        editor = WordEditor(model.pres, model.power_word(cycle, n))
        model.fill_cycle_power(editor, 0, model.null_homotopy(cycle), n)
        editor.free_to(EMPTY)
        acct = replay_sequence(model.pres, editor.sequence())
        assert acct.endpoints[1] == EMPTY
        assert acct.area <= 3 * len(model.null_homotopy(cycle)) * n * n


@pytest.mark.parametrize("n", range(-3, 4))
def test_k3_schemes_within_bounds(n):
    model = BBModel(K3, K3_TREE)
    from fillcalc.bestvina_brady import _cycles_of_triangle

    for e in K3.directed_edges():
        for kind in ("e-ebar", "stable"):
            seq = bb_relator_scheme(K3, K3_TREE, kind, e, n, model)
            acct = replay_sequence(model.pres, seq)
            assert acct.endpoints[1] == EMPTY
            assert acct.area <= scheme_bound(model, kind, n), (kind, n)
    for cyc in _cycles_of_triangle(K3, K3.triangles()[0]):
        for kind in ("efg", "inverse-efg"):
            seq = bb_relator_scheme(K3, K3_TREE, kind, cyc, n, model)
            acct = replay_sequence(model.pres, seq)
            assert acct.endpoints[1] == EMPTY
            assert acct.area <= scheme_bound(model, kind, n), (kind, n)


@pytest.mark.parametrize("n", [-2, 0, 2])
def test_octahedron_schemes_within_bounds(n):
    model = BBModel(OCTA, OCTA_TREE)
    from fillcalc.bestvina_brady import _cycles_of_triangle

    for e in OCTA.directed_edges()[:4]:
        for kind in ("e-ebar", "stable"):
            seq = bb_relator_scheme(OCTA, OCTA_TREE, kind, e, n, model)
            acct = replay_sequence(model.pres, seq)
            assert acct.endpoints[1] == EMPTY
            assert acct.area <= scheme_bound(model, kind, n)
    for cyc in _cycles_of_triangle(OCTA, OCTA.triangles()[0])[:2]:
        for kind in ("efg", "inverse-efg"):
            seq = bb_relator_scheme(OCTA, OCTA_TREE, kind, cyc, n, model)
            acct = replay_sequence(model.pres, seq)
            assert acct.endpoints[1] == EMPTY
            assert acct.area <= scheme_bound(model, kind, n)


def test_rarea_sample_k3():
    rows = rarea_sample(K3, K3_TREE, 1)
    assert rows
    model = BBModel(K3, K3_TREE)
    for row in rows:
        assert row["upper"] <= row["bound"]
    # per-index maxima fit under the quadratic envelope
    for idx in (0, 1):
        env = max(
            scheme_bound(model, kind, idx)
            for kind in ("e-ebar", "efg", "inverse-efg", "stable")
        )
        got = max(r["upper"] for r in rows if r["index"] == idx)
        assert got <= env


def test_rarea_sample_exact_entries():
    rows = rarea_sample(
        K3,
        K3_TREE,
        0,
        budget=SearchBudget(max_word_length=14, max_states=300_000),
        exact=True,
    )
    for row in rows:
        if row["exact"] is not None:
            assert row["exact"] <= row["upper"]


def test_inverse_cycle_rejects_unexpected_residue(monkeypatch):
    # unsorted pair blocks leave a residue longer than the four letters the
    # closing relators expect
    model = BBModel(K3, K3_TREE)
    monkeypatch.setattr(model, "sort_block_pairs", lambda *args: 0)
    cyc = (("a", "b"), ("b", "c"), ("c", "a"))
    with pytest.raises(InternalCheckError):
        bb_relator_scheme(K3, K3_TREE, "inverse-efg", cyc, 1, model)


class _NoMembers(dict):
    """A relator index that answers every membership test with no; lookups
    by key still work."""

    def __contains__(self, key):
        return False


def test_inverse_cycle_rejects_a_residue_that_does_not_collapse(monkeypatch):
    # the closing relators are found by membership in the relator index;
    # without them the four-letter residue is left, an emitter defect (exit
    # 4), not a usage error
    model = BBModel(K3, K3_TREE)
    monkeypatch.setattr(model.pres, "_relator_index",
                        _NoMembers(model.pres.relator_index))
    cyc = (("a", "b"), ("b", "c"), ("c", "a"))
    with pytest.raises(InternalCheckError, match="did not collapse") as info:
        bb_relator_scheme(K3, K3_TREE, "inverse-efg", cyc, 1, model)
    assert not isinstance(info.value, ValueError)


# the search two_step_filling must agree with: intermediate words of at most
# 8 letters, area at most 4
FILL_BUDGET = SearchBudget(max_word_length=8, max_states=300_000, max_area=4)


def _fills_as_the_search_does(pres, pairs):
    """Check two_step_filling against area_exact on [a, b] for each letter
    pair; return how many pairs the search gave each area."""
    areas = {}
    for a, b in pairs:
        w = Word((a, b, a.inverse(), b.inverse()))
        res = area_exact(pres, w, FILL_BUDGET)
        areas[res.area] = areas.get(res.area, 0) + 1
        want = res.witness if res.kind == "area" and res.area == 2 else None
        assert two_step_filling(pres, w) == want, (a, b)
    return areas


def test_two_step_fill_is_the_search_witness_on_k3():
    pres = dicks_leary_presentation(K3)
    letters = [Letter(gen, sign) for gen in pres.generators for sign in (1, -1)]
    pairs = [(a, b) for a in letters for b in letters if a.gen != b.gen]
    # the 48 of area 4 are edges sharing an endpoint, not consecutive in a
    # cycle: two_step_filling returns None for them
    assert _fills_as_the_search_does(pres, pairs) == {2: 72, 4: 48}


def test_two_step_fill_is_the_search_witness_on_the_octahedron():
    pairs = set()
    for cyc in _triangle_cycles(OCTA):
        for k in range(3):
            for sign in (1, -1):
                a = OCTA.edge_letter(cyc[k], sign)
                b = OCTA.edge_letter(cyc[(k + 1) % 3], sign)
                pairs.update({(a, b), (b, a)})
    pres = dicks_leary_presentation(OCTA)
    assert _fills_as_the_search_does(pres, sorted(pairs)) == {2: 192}


def test_two_step_fill_declines_words_of_smaller_area():
    # the empty word has area 0 and each relator area 1
    pres = dicks_leary_presentation(K3)
    for w in (EMPTY,) + pres.relators:
        assert two_step_filling(pres, w) is None
    # x^2 has area 1, though x^4 and x^-2, both insertions, are one edge away
    pres = GroupPresentation(["x"], [word("x x"), word("x x x x")])
    assert area_exact(pres, word("x x")).area == 1
    assert two_step_filling(pres, word("x x")) is None


def test_swap_rejects_letters_without_a_two_relator_fill():
    # a_b and a_c leave the same vertex, so they follow each other in no
    # cycle; their commutator has area 4, and no emitter swaps them
    model = BBModel(K3, K3_TREE)
    editor = WordEditor(model.pres, word("a_b a_c"))
    with pytest.raises(ValueError, match="no small commutator fill"):
        model.swap(editor, 0)


@pytest.mark.parametrize("delta,tree,bound", [(K3, K3_TREE, 1), (OCTA, OCTA_TREE, 0)],
                         ids=["K3", "octahedron"])
def test_emission_runs_no_area_search(monkeypatch, delta, tree, bound):
    def search(*args):
        raise AssertionError("emission ran an area search")

    monkeypatch.setattr(oracle, "_area", search)
    # rarea_sample emits every member's scheme on a fresh model and replays it
    rows = rarea_sample(delta, tree, bound)
    assert rows and all(row["upper"] <= row["bound"] for row in rows)
    with pytest.raises(AssertionError, match="area search"):
        rarea_sample(delta, tree, 0, exact=True)


@pytest.mark.parametrize("end", [0, 1])
def test_rarea_sample_rejects_wrong_endpoints(monkeypatch, end):
    def replay(pres, seq, theta=None):
        acct = replay_sequence(pres, seq, theta)
        endpoints = list(acct.endpoints)
        endpoints[end] = concat(endpoints[end], word("a_b"))
        return dataclasses.replace(acct, endpoints=tuple(endpoints))

    monkeypatch.setattr(bestvina_brady, "replay_sequence", replay)
    with pytest.raises(InternalCheckError):
        rarea_sample(K3, K3_TREE, 0)


def test_quartic_pipeline():
    # quadratic-linear pair composed with the quadratic relational-area
    # envelope gives the printed quartic
    alpha = parse_bound("l^2")
    pi = parse_bound("l")
    rarea = parse_bound("l^2")
    assert compose_bounds("penetration", alpha, pi, rarea).canonical() == "l^4"


def test_null_homotopy_to_sequence_public():
    from fillcalc.bestvina_brady import (
        CombinatorialNullHomotopy,
        NullHomotopyMove,
        null_homotopy_to_sequence,
        replay_null_homotopy,
    )

    # a triangle collapsing in one move
    cycle = (("a", "b"), ("b", "c"), ("c", "a"))
    nh = CombinatorialNullHomotopy(cycle, (NullHomotopyMove("2-collapse", 0),))
    assert replay_null_homotopy(K3, nh) == ()
    for n in (-2, 0, 1, 3):
        seq = null_homotopy_to_sequence(K3, K3_TREE, nh, n)
        acct = replay_sequence(dicks_leary_presentation(K3), seq)
        assert acct.endpoints[1] == EMPTY
        assert acct.area <= 3 * len(nh) * n * n + (1 if n == 0 else 0)
    # an edge pair needing one one-cell collapse, at n = 0 zero moves
    pair = (("a", "b"), ("b", "a"))
    nh2 = CombinatorialNullHomotopy(pair, (NullHomotopyMove("1-collapse", 0),))
    seq = null_homotopy_to_sequence(K3, K3_TREE, nh2, 2)
    acct = replay_sequence(dicks_leary_presentation(K3), seq)
    assert acct.endpoints[1] == EMPTY and acct.area <= 3 * 1 * 4


def test_null_homotopy_validation():
    from fillcalc.bestvina_brady import (
        CombinatorialNullHomotopy,
        NullHomotopyMove,
        null_homotopy_to_sequence,
    )

    bad = CombinatorialNullHomotopy(
        (("a", "b"), ("b", "a")), (NullHomotopyMove("2-collapse", 0),)
    )
    with pytest.raises(ValueError):
        null_homotopy_to_sequence(K3, K3_TREE, bad, 1)


def test_null_homotopy_to_sequence_leaves_model_cache_alone():
    from fillcalc.bestvina_brady import (
        CombinatorialNullHomotopy,
        NullHomotopyMove,
        null_homotopy_to_sequence,
    )

    model = BBModel(K3, K3_TREE)
    cycle = model.edge_cycle(("a", "b"))
    padding = (
        NullHomotopyMove("1-expand", 0, (("a", "b"),)),
        NullHomotopyMove("1-collapse", 0),
    )
    padded = CombinatorialNullHomotopy(
        cycle, padding + find_null_homotopy(K3, cycle).moves
    )
    seq = null_homotopy_to_sequence(K3, K3_TREE, padded, 2, model)
    assert replay_sequence(model.pres, seq).endpoints[1] == EMPTY
    # the padded homotopy is translated, but K still comes from the
    # model's own shortest homotopies
    assert model.K == 3
    assert scheme_bound(model, "stable", 2) == 50


@pytest.mark.parametrize("kind,bad,good", [
    ("1-expand", (("b", "c"),), (("a", "c"),)),
    ("2-expand", (("b", "c"), ("c", "a"), ("a", "b")),
     (("a", "b"), ("b", "c"), ("c", "a"))),
])
def test_expansion_at_seam_must_start_at_first_vertex(kind, bad, good):
    from fillcalc.bestvina_brady import (
        CombinatorialNullHomotopy,
        NullHomotopyMove,
        _is_cycle,
        apply_null_homotopy_move,
        replay_null_homotopy,
    )

    cycle = (("a", "b"), ("b", "a"))
    with pytest.raises(ValueError, match="junction vertex"):
        apply_null_homotopy_move(K3, cycle, NullHomotopyMove(kind, 0, bad))
    grown = apply_null_homotopy_move(K3, cycle, NullHomotopyMove(kind, 0, good))
    assert grown[: len(good)] == good and _is_cycle(K3, grown)
    nh = CombinatorialNullHomotopy(cycle, (
        NullHomotopyMove("1-expand", 2, (("a", "c"),)),
        NullHomotopyMove(kind, 0, bad),
    ))
    with pytest.raises(ValueError, match="^move 1: "):
        replay_null_homotopy(K3, nh)


def test_dicks_leary_warns_on_suspect_homology():
    import warnings

    c4 = check_flag("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dicks_leary_presentation(c4)
    assert any("simply" in str(w.message) for w in caught)


def test_one_expand_needs_an_edge_of_the_complex():
    from fillcalc.bestvina_brady import (
        CombinatorialNullHomotopy,
        NullHomotopyMove,
        apply_null_homotopy_move,
        replay_null_homotopy,
    )

    cycle = (("a", "b"), ("b", "a"))
    for edge in (("a", "z"), ("a", "a")):
        with pytest.raises(ValueError, match="is not an edge"):
            apply_null_homotopy_move(K3, cycle, NullHomotopyMove("1-expand", 2, (edge,)))
    nh = CombinatorialNullHomotopy(cycle, (
        NullHomotopyMove("1-expand", 2, (("a", "z"),)),
        NullHomotopyMove("1-collapse", 2),
    ))
    with pytest.raises(ValueError, match="^move 0: "):
        replay_null_homotopy(K3, nh)


def test_scheme_bounds_compute_k_and_l_once(monkeypatch):
    diameters, cycles = [], []
    diameter, edge_cycle = FlagComplex.diameter, BBModel.edge_cycle

    def counting_diameter(self):
        diameters.append(self)
        return diameter(self)

    def counting_cycle(self, e):
        cycles.append(e)
        return edge_cycle(self, e)

    monkeypatch.setattr(FlagComplex, "diameter", counting_diameter)
    monkeypatch.setattr(BBModel, "edge_cycle", counting_cycle)
    model = BBModel(K3, K3_TREE)
    assert scheme_bound(model, "stable", 2) == scheme_bound(model, "stable", 2) == 50
    assert len(diameters) == 1
    assert len(cycles) == len(K3.directed_edges())


def test_emitters_reject_a_model_of_another_complex_or_tree():
    from fillcalc.bestvina_brady import null_homotopy_to_sequence

    k3_at_b = FlagComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")], "b")
    tree_at_b = spanning_tree(k3_at_b)
    model = BBModel(K3, K3_TREE)
    for delta, tree in ((k3_at_b, tree_at_b), (K3, spanning_tree(K3))):
        with pytest.raises(ValueError, match="another complex or tree"):
            bb_relator_scheme(delta, tree, "e-ebar", ("a", "c"), 1, model)
        cycle = BBModel(delta, tree).edge_cycle(("a", "c"))
        nh = find_null_homotopy(delta, cycle)
        with pytest.raises(ValueError, match="another complex or tree"):
            null_homotopy_to_sequence(delta, tree, nh, 1, model)
    # without a model the emitter fills the member it was asked for
    seq = bb_relator_scheme(k3_at_b, tree_at_b, "e-ebar", ("a", "c"), 1)
    assert seq.start == word("b_a a_c a_c c_b b_c c_a c_a a_b")


@pytest.mark.parametrize("kind,args", [
    pytest.param("efg", (("a", "b"), ("c", "a"), ("b", "c")), id="efg-not-a-cycle"),
    pytest.param("inverse-efg", (("a", "b"), ("b", "a"), ("a", "c")),
                 id="inverse-efg-not-a-triangle"),
    pytest.param("efg", (("a", "b"), ("b", "c")), id="efg-two-edges"),
    pytest.param("e-ebar", ("a", "zz"), id="e-ebar-not-an-edge"),
    pytest.param("stable", (("a", "b"), ("b", "c"), ("c", "a")), id="stable-a-cycle"),
])
@pytest.mark.parametrize("n", [0, 2])
def test_scheme_arguments_of_the_wrong_shape_are_rejected_before_emission(kind, args, n):
    # such arguments used to reach the editor, where a move that does not
    # apply is reported as an internal defect
    with pytest.raises(ValueError, match="takes a"):
        bb_relator_scheme(K3, K3_TREE, kind, args, n)


def test_rarea_sample_shares_the_given_model():
    model = BBModel(K3, K3_TREE)
    assert rarea_sample(K3, K3_TREE, 1, model=model) == rarea_sample(K3, K3_TREE, 1)
    assert model._homotopies and model._swap_fills
    with pytest.raises(ValueError, match="another complex or tree"):
        rarea_sample(K3, spanning_tree(K3), 1, model=model)


def test_bb_complexes_builds_each_presentation_and_homotopy_once(monkeypatch):
    from fillcalc import acceptance

    calls = {"presentations": 0, "homotopies": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bestvina_brady, "dicks_leary_presentation",
                        counted("presentations", dicks_leary_presentation))
    monkeypatch.setattr(bestvina_brady, "find_null_homotopy",
                        counted("homotopies", find_null_homotopy))
    acceptance.check_bb_complexes()
    # K3 and the octahedron: one presentation for the model and one for the
    # criterion's own family list; 23 distinct edge cycles between them
    assert calls == {"presentations": 4, "homotopies": 23}


def test_member_scheme_matches_each_family():
    model = BBModel(OCTA, OCTA_TREE)
    kinds = set()
    for member in bb_indexed_families(OCTA, OCTA_TREE, 1):
        kind, args, n = bestvina_brady.member_scheme(model, member)
        kinds.add(kind)
        assert n == member.parameter[1]
        seq = bb_relator_scheme(OCTA, OCTA_TREE, kind, args, n, model)
        assert replay_sequence(model.pres, seq).endpoints == (member.word, EMPTY)
    assert kinds == {"e-ebar", "efg", "inverse-efg", "stable"}
