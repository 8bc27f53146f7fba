import collections
import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from fillcalc import bestvina_brady as bb, constructors, intlinalg, oracle
from fillcalc.oracle import (
    DirectProductSpec,
    MembershipUndecidableError,
    SearchBudget,
    area_exact,
    cayley_distance,
    dehn_sample,
    distortion_sample,
    dp_equal,
    find_filling,
    free_normal_form,
    low_noise_search,
    noise,
    raag_equal,
    raag_normal_form,
)
from fillcalc.rewriting import (
    ApplyRelator,
    FreeContract,
    FreeExpand,
    GroupPresentation,
    InternalCheckError,
    replay_sequence,
)
from fillcalc.words import (
    ChargeMap,
    Letter,
    Word,
    charge,
    commutator,
    concat,
    cyclic_conjugate,
    free_reduce,
    word,
    wpow,
)

Z2 = GroupPresentation(("x", "y"), (word("x y x' y'"),))
FREE = GroupPresentation(("x", "y"))
SCHEME_WORD = word("x x y x' y x y x' x' y' y' y'")


def random_word(rng, gens, max_len):
    n = rng.randrange(max_len + 1)
    return Word(
        tuple(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(n))
    )


def test_area_single_relator():
    res = area_exact(Z2, word("x y x' y'"))
    assert res.kind == "area" and res.area == 1
    acct = replay_sequence(Z2, res.witness)
    assert acct.area == 1 and acct.endpoints[1] == Word()


def test_area_empty_and_nontrivial():
    assert area_exact(Z2, Word()).area == 0
    assert area_exact(Z2, word("x x'")).area == 0
    res = area_exact(Z2, word("x y"))
    assert res.kind == "not-null-homotopic"


def test_area_x2y2_commutator():
    res = area_exact(Z2, commutator(wpow(word("x"), 2), wpow(word("y"), 2)),
                     SearchBudget(max_word_length=12))
    assert res.kind == "area" and res.area == 4
    acct = replay_sequence(Z2, res.witness)
    assert acct.area == 4 and acct.endpoints[1] == Word()


@pytest.mark.parametrize("l", [1, 2, 3])
def test_area_law_squares(l):
    w = commutator(wpow(word("x"), l), wpow(word("y"), l))
    res = area_exact(Z2, w, SearchBudget(max_word_length=len(w) + 4))
    assert res.kind == "area" and res.area == l * l


def test_area_zero_iff_freely_trivial():
    rng = random.Random(5)
    for _ in range(50):
        w = random_word(rng, ("x", "y"), 6)
        res = area_exact(Z2, w, SearchBudget(max_word_length=16))
        if len(free_reduce(w)) == 0:
            assert res.kind == "area" and res.area == 0
        elif res.kind == "area":
            assert res.area > 0


def test_area_invariance_inverse_and_cyclic():
    fixtures = [
        word("x y x' y'"),
        commutator(wpow(word("x"), 2), wpow(word("y"), 2)),
        SCHEME_WORD,
    ]
    for w in fixtures:
        base = area_exact(Z2, w, SearchBudget(max_word_length=20)).area
        assert area_exact(Z2, w.inverse(), SearchBudget(max_word_length=20)).area == base
        for k in (1, len(w) // 2):
            conj = cyclic_conjugate(w, k)
            assert (
                area_exact(Z2, conj, SearchBudget(max_word_length=20)).area == base
            )


def test_area_witness_validates():
    res = area_exact(Z2, SCHEME_WORD, SearchBudget(max_word_length=20))
    assert res.kind == "area" and res.area <= 5
    acct = replay_sequence(Z2, res.witness)
    assert acct.area == res.area and acct.endpoints[1] == Word()


def test_area_budget_exhaustion_reports_bound():
    w = commutator(wpow(word("x"), 3), wpow(word("y"), 3))
    res = area_exact(Z2, w, SearchBudget(max_states=10))
    assert res.kind == "budget-exhausted"
    assert res.lower_bound >= 1


@pytest.mark.parametrize("search", [area_exact, find_filling])
def test_max_states_is_a_cap(search):
    w = commutator(wpow(word("x"), 3), wpow(word("y"), 3))
    res = search(Z2, w, SearchBudget(max_states=100))
    assert res.kind == "budget-exhausted" and res.states <= 101


def test_budget_cut_inside_a_level_keeps_a_true_bound():
    """A state budget either proves the area 4 of [x^2, y^2] or stops with at
    most one state too many and a lower bound no larger than 4; a meet in the
    level the budget cuts is already minimal, so it is returned.  The search
    returns soon after its first meet, so the budgets that cut between the
    meet and the return lie just below the full count: those are scanned one
    by one."""
    w = commutator(wpow(word("x"), 2), wpow(word("y"), 2))
    full = area_exact(Z2, w).states
    cut_meets = 0
    for max_states in [*range(1, full - 40, 23), *range(max(1, full - 40), full + 1)]:
        res = area_exact(Z2, w, SearchBudget(max_states=max_states))
        assert res.states <= max_states + 1
        if res.kind == "area":
            assert res.area == 4 and replay_sequence(Z2, res.witness).area == 4
            cut_meets += res.states < full
        else:
            assert res.kind == "budget-exhausted" and 1 <= res.lower_bound <= 4
    assert cut_meets > 0


def test_wall_clock_is_a_cap():
    w = commutator(wpow(word("x"), 5), wpow(word("y"), 5))
    began = time.monotonic()
    res = area_exact(Z2, w, SearchBudget(wall_clock_ms=50))
    assert res.kind == "budget-exhausted"
    assert time.monotonic() - began < 0.2


def reference_moves(coder, s, cap):
    """Every insertion at every position of s, cancelled at the junctions and
    built in full, then dropped when it exceeds the cap."""
    inv = coder.inv
    for entry in coder.insertions:
        ins = entry[0]
        for p in range(len(s) + 1):
            i, j = p, 0
            while i > 0 and j < len(ins) and s[i - 1] == inv[ins[j]]:
                i -= 1
                j += 1
            k, j2 = p, len(ins)
            while k < len(s) and j2 > j and s[k] == inv[ins[j2 - 1]]:
                k += 1
                j2 -= 1
            if j2 > j:
                t = s[:i] + ins[j:j2] + s[k:]
            else:
                a, b = i, k
                while a > 0 and b < len(s) and s[a - 1] == inv[s[b]]:
                    a -= 1
                    b += 1
                t = s[:a] + s[b:]
            if len(t) <= cap:
                yield t, entry, p


SEARCHED = {
    "Z2": Z2,
    "K3": bb.dicks_leary_presentation(bb.triangle_complex()),
    "k32 amalgam": constructors.k32_amalgam().presentation,
    # relators that are not freely reduced, so an insertion's conjugate is
    # longer than the insertion searched with
    "non-reduced": GroupPresentation(
        ("x", "y"), (word("x y x' y'"), word("x x' y y"), word("x y y' x' y"))
    ),
    # periodic relators, so a rotation of an insertion can be the insertion,
    # among them one of a single letter
    "periodic": GroupPresentation(
        ("x", "y", "z"), (word("x x x"), word("x y x y"), word("z"))
    ),
    # a reversible relator that is not freely reduced, whose orbit of
    # insertions is not numbered in rotation order: the insertion
    # y' z' z' x' skips an edge when three letters after it cancel
    "reversible non-reduced": GroupPresentation(
        ("x", "y", "z"), (word("y x z z y y'"),)
    ),
}


def skipped_repeats(got, want):
    """How many edges of ``want`` are missing from ``got``, after checking
    that ``got`` is an order-preserving subsequence of ``want`` that holds
    the first edge of ``want`` to every successor."""
    rest = iter(want)
    assert all(edge in rest for edge in got)
    first = {}
    for edge in want:
        first.setdefault(edge[0], edge)
    rest = iter(got)
    assert all(edge in rest for edge in first.values())
    return len(want) - len(got)


@pytest.mark.parametrize("name", sorted(SEARCHED))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(codes=st.lists(st.integers(0, 63), max_size=14), slack=st.integers(-4, 6))
def test_moves_match_the_build_then_filter_loop(name, codes, slack):
    coder = oracle._coder(SEARCHED[name])
    s = coder.reduce("".join(chr(c % len(coder.letters)) for c in codes))
    cap = max(0, len(s) + slack)
    got = list(coder.moves(s, cap))
    skipped = skipped_repeats(got, list(reference_moves(coder, s, cap)))
    if not coder.reversible:
        assert skipped == 0
    for t, (_, _, full, _, _, _), p in got:
        assert t == coder.reduce(s[:p] + full + s[p:])


def test_moves_skip_an_edge_that_a_rotation_numbered_earlier_repeats():
    # before x z z, the insertion y' z' z' x' leaves y' (three letters after
    # it cancel, and its ``hi`` is 3); its rotation z' z' x' y', numbered
    # earlier, reaches y' after x z z
    coder = oracle._coder(SEARCHED["reversible non-reduced"])
    s = coder.encode(word("x z z"))
    ins = coder.encode(word("y' z' z' x'"))
    e = next(e for e, entry in enumerate(coder.insertions) if entry[0] == ins)
    assert coder.repeats[e][1] == 3
    got = list(coder.moves(s, 9))
    want = list(reference_moves(coder, s, 9))
    assert skipped_repeats(got, want) > 0
    at_0 = [edge for edge in want if edge[1][0] == ins and edge[2] == 0]
    assert [coder.decode(t) for t, _, _ in at_0] == [word("y'")]
    assert at_0[0] not in got


def search_states(pres, w, cap, levels):
    """Every state of the first levels of both sides of the search for w at
    the cap: the side rooted at w's reduced code and the empty-word side."""
    coder = oracle._coder(pres)
    out = []
    for root in (coder.reduce(coder.encode(w)), ""):
        ball = oracle._Ball(coder, cap, root)
        for d in range(levels - 1):
            while ball.levels[d] and len(ball.ends[d]) < len(ball.levels[d]):
                ball.grow(d)
        out.extend(s for level in ball.levels[:levels] for s in level)
    return coder, out


@pytest.mark.parametrize("pres, w, cap, levels", [
    (SEARCHED["k32 amalgam"], constructors.k32_witness(1, 1), 12, 2),
    (Z2, commutator(wpow(word("x"), 3), wpow(word("y"), 3)), 16, 3),
], ids=["k32 amalgam", "Z2 square"])
def test_moves_match_the_build_then_filter_loop_on_search_states(pres, w, cap, levels):
    """States a real search reaches hold long runs that cancel against an
    insertion, which random words rarely do; caps from six below a state's
    length up make two or more letters cancel, so the window rule of
    ``_Coder.junctions`` picks the positions."""
    coder, states = search_states(pres, w, cap, levels)
    assert len(states) > 100
    windows = skipped = edges = 0
    for s in states:
        for c in range(max(0, len(s) - 6), len(s) + 2):
            got = list(coder.moves(s, c))
            want = list(reference_moves(coder, s, c))
            skipped += skipped_repeats(got, want)
            edges += len(want)
            windows += sum(
                min((len(s) + len(ins) - c + 1) // 2, len(ins)) >= 2
                for _, (ins, *_), _ in got
            )
    assert windows > 1000
    # rotations of one relator inserted at neighbouring positions reach
    # the same word
    assert skipped >= edges / 4


def test_searches_match_the_searches_over_every_edge(monkeypatch):
    """Skipping repeated edges changes no search: with ``_Coder.moves``
    replaced by ``reference_moves``, area_exact gives the same kind, area,
    lower bound, states and witness moves for the K3 commutator fills of
    ``BBModel`` (cap 8, area at most 4), every Z2 word of length up to 8
    whose exponent sums vanish, and the Z2 Dehn witness at length 10, all
    at the default cap but the fills."""
    k3 = SEARCHED["K3"]
    letters = [Letter(g, sign) for g in k3.generators for sign in (1, -1)]
    fill = SearchBudget(max_word_length=8, max_states=300_000, max_area=4)
    cases = [
        (k3, Word((a, b, a.inverse(), b.inverse())), fill)
        for a in letters
        for b in letters
        if a.gen != b.gen
    ]
    coder = oracle._coder(Z2)
    cases += [
        (Z2, coder.decode(s), SearchBudget())
        for s in explore(coder, 8)
        if not any(coder.abelian_vector(s))
    ]
    cases.append((Z2, word("x x x y y x' x' x' y' y'"), SearchBudget()))
    got = [area_exact(pres, w, budget) for pres, w, budget in cases]
    assert {res.kind for res in got} == {"area"}
    monkeypatch.setattr(oracle._Coder, "moves", reference_moves)
    for res, (pres, w, budget) in zip(got, cases):
        assert same_search(res, area_exact(pres, w, budget)), w


# a K3 word whose least-area filling at cap 16 ends in collapses
COLLAPSING = word("a_c a_b' b_c' c_a' a_c' c_a a_b' b_c' c_a' c_a' a_c b_c' c_b' a_c'")


def test_find_filling_replays_an_area_3_filling_of_the_collapsing_word():
    k3 = SEARCHED["K3"]
    res = find_filling(k3, COLLAPSING, SearchBudget(max_word_length=16))
    assert res.kind == "area" and replay_sequence(k3, res.witness).area == 3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the empty-word side of the "
                   "search has no reverse of a collapse, so it reports area 5")
def test_area_exact_sees_a_filling_that_ends_in_collapses():
    """find_filling replays an area-3 filling of the word within the cap,
    so the exact search must report area, or a lower bound, at most 3."""
    res = area_exact(SEARCHED["K3"], COLLAPSING, SearchBudget(max_word_length=16))
    assert (res.area if res.kind == "area" else res.lower_bound) <= 3


def test_find_filling_of_a_word_over_the_cap_exhausts_the_budget():
    w = commutator(wpow(word("x"), 3), wpow(word("y"), 3))
    budget = SearchBudget(max_word_length=4)
    want = oracle.AreaResult("budget-exhausted", lower_bound=1, states=0)
    assert area_exact(Z2, w, budget) == want
    assert find_filling(Z2, w, budget) == want


@pytest.mark.parametrize("w, budget, kind, lower_bound, states", [
    (word("x y x' x y' x'"), SearchBudget(), "area", 0, 1),
    (commutator(wpow(word("x"), 3), wpow(word("y"), 3)), SearchBudget(max_word_length=4),
     "budget-exhausted", 1, 0),
    (word("x y x y'"), SearchBudget(), "not-null-homotopic", 0, 0),
], ids=["reduces-to-empty", "over-the-cap", "off-the-lattice"])
def test_searches_agree_where_they_do_not_search(w, budget, kind, lower_bound, states):
    """area_exact and find_filling share the verdicts given before a search."""
    for search in (area_exact, find_filling):
        res = search(Z2, w, budget)
        assert (res.kind, res.lower_bound, res.states) == (kind, lower_bound, states)
    assert area_exact(Z2, w, budget) == find_filling(Z2, w, budget)


def test_find_filling_keeps_to_max_area():
    """[x^2, y^2] has area 4, so no filling has area at most 1."""
    w = commutator(wpow(word("x"), 2), wpow(word("y"), 2))
    res = find_filling(Z2, w, SearchBudget(max_area=1))
    assert (res.kind, res.lower_bound) == ("budget-exhausted", 1)
    assert find_filling(Z2, w, SearchBudget(max_area=4)).area == 4


def test_find_filling_reports_a_word_with_no_filling():
    # [x, y] is on the (zero) lattice of the free group, so it is searched
    res = find_filling(FREE, word("x y x' y'"))
    assert res == oracle.AreaResult("not-null-homotopic", states=1)


def test_searches_cut_by_the_clock_exhaust_the_budget(monkeypatch):
    monkeypatch.setattr(oracle._Clock, "expired", lambda self: True)
    res = find_filling(Z2, word("x y x' y'"))
    assert (res.kind, res.lower_bound, res.witness) == ("budget-exhausted", 1, None)
    sample = dehn_sample(Z2, 4)
    assert (sample.kind, sample.value, sample.words_checked) == (
        "budget-exhausted", None, 0)


def test_find_filling_greedy():
    res = find_filling(Z2, commutator(wpow(word("x"), 2), wpow(word("y"), 2)))
    assert res.kind == "area"
    acct = replay_sequence(Z2, res.witness)
    assert acct.endpoints[1] == Word()
    assert acct.area >= 4


def faulty_edges(monkeypatch, *extra):
    """Append the given moves to the moves of every search edge."""
    edge_moves = oracle._Coder.edge_moves
    monkeypatch.setattr(oracle._Coder, "edge_moves",
                        lambda coder, s, d: edge_moves(coder, s, d) + list(extra))


# moves a Z2 witness of one edge ends with: one that leaves x x', two that
# insert the relator's inverse and take it out again, one that does not apply
ENDS_AT_X_XBAR = (FreeExpand(0, Letter("x", 1)),)
TWO_MORE_RELATORS = (ApplyRelator(0, 0, 1, 0, 0), ApplyRelator(0, 0, -1, 0, 4))
DOES_NOT_APPLY = (FreeContract(0),)


@pytest.mark.parametrize(
    "extra", [ENDS_AT_X_XBAR, TWO_MORE_RELATORS], ids=["end", "area"]
)
def test_area_exact_rejects_bad_witness_replay(monkeypatch, extra):
    faulty_edges(monkeypatch, *extra)
    with pytest.raises(InternalCheckError):
        area_exact(Z2, word("x y x' y'"))


def test_find_filling_rejects_bad_witness_replay(monkeypatch):
    faulty_edges(monkeypatch, *ENDS_AT_X_XBAR)
    with pytest.raises(InternalCheckError):
        find_filling(Z2, word("x y x' y'"))


@pytest.mark.parametrize("search", [area_exact, find_filling])
def test_a_witness_move_that_does_not_apply_is_an_internal_defect(monkeypatch, search):
    faulty_edges(monkeypatch, *DOES_NOT_APPLY)
    with pytest.raises(InternalCheckError, match=r"witness for .*: move 5: position"):
        search(Z2, word("x y x' y'"))


def test_dehn_free_group():
    for l in (2, 4, 6):
        res = dehn_sample(FREE, l)
        assert res.kind == "value" and res.value == 0


def test_dehn_z2_length_4():
    res = dehn_sample(Z2, 4, SearchBudget(max_word_length=12))
    assert res.kind == "value" and res.value == 1


def test_dehn_z2_length_8():
    res = dehn_sample(Z2, 8, SearchBudget(max_word_length=14))
    assert res.kind == "value" and res.value == 4
    assert res.witness is not None and len(res.witness) == 8


def test_dehn_rejects_negative_length():
    with pytest.raises(ValueError, match="non-negative"):
        dehn_sample(Z2, -3)


Z3 = GroupPresentation(
    ("x", "y", "z"), tuple(word(r) for r in ("x y x' y'", "x z x' z'", "y z y' z'"))
)
SWEPT = {"Z2": Z2, "K3": SEARCHED["K3"], "Z3": Z3}


def null_word(pres, terms):
    """The reduced product of conjugates u r^sign u^-1 of relators r."""
    gens = pres.generators
    out = Word()
    for conj, rel, sign in terms:
        u = Word(tuple(Letter(gens[c % len(gens)], 1 - 2 * (c & 1)) for c in conj))
        r = pres.relators[rel % len(pres.relators)]
        out = concat(out, u, r if sign else r.inverse(), u.inverse())
    return free_reduce(out)


NULL_TERMS = st.lists(
    st.tuples(st.lists(st.integers(0, 11), max_size=2), st.integers(0, 2), st.booleans()),
    min_size=1,
    max_size=2,
)


def same_search(a, b):
    return (a.kind, a.area, a.lower_bound, a.states, a.witness) == (
        b.kind, b.area, b.lower_bound, b.states, b.witness
    )


@pytest.mark.parametrize("name", sorted(SWEPT))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    searches=st.lists(
        st.tuples(NULL_TERMS, st.sampled_from([20_000, 2_000, 60, 7]), st.booleans()),
        min_size=1,
        max_size=6,
    )
)
def test_shared_empty_side_matches_fresh_searches(name, searches):
    """Searches through one ball per cap, some cut inside a level by a state
    budget, each return what a fresh area_exact returns: kind, area, lower
    bound, states and witness moves."""
    pres = SWEPT[name]
    balls = {}
    for terms, max_states, fixed_cap in searches:
        w = null_word(pres, terms)
        budget = SearchBudget(12 if fixed_cap else None, max_states)
        shared = oracle._area(pres, w, budget, balls)
        assert same_search(shared, area_exact(pres, w, budget))


@pytest.mark.parametrize("name, text", [
    ("Z2", "x x y y x' x' y' y'"),
    ("Z3", "x x y z x' x' z' y'"),
    ("K3", "a_b a_b b_a a_b' c_a' b_a a_b c_a"),
])
def test_cut_searches_leave_the_shared_side_resumable(name, text):
    """State budgets cut a run of about 60 searches through one ball, so
    later searches resume levels that earlier ones left partial."""
    pres, w = SWEPT[name], word(text)
    full = area_exact(pres, w, SearchBudget(max_word_length=len(w) + 2)).states
    balls = {}
    for max_states in list(range(1, full + 1, full // 60 + 1)) + [full]:
        budget = SearchBudget(max_word_length=len(w) + 2, max_states=max_states)
        shared = oracle._area(pres, w, budget, balls)
        assert same_search(shared, area_exact(pres, w, budget))


@pytest.mark.parametrize("name", sorted(SWEPT))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(terms=NULL_TERMS)
def test_area_of_inverse_word(name, terms):
    pres = SWEPT[name]
    w = null_word(pres, terms)
    budget = SearchBudget(max_word_length=len(w) + 4, max_states=50_000)
    a, b = area_exact(pres, w, budget), area_exact(pres, w.inverse(), budget)
    if "budget-exhausted" not in (a.kind, b.kind):
        assert (a.kind, a.area) == (b.kind, b.area)


@pytest.mark.parametrize("name", sorted(SWEPT))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(terms=NULL_TERMS, max_area=st.integers(1, 5), slack=st.sampled_from([0, 2, None]))
def test_find_filling_area_is_at_most_max_area(name, terms, max_area, slack):
    """A filling found under ``max_area`` has at most that area and replays
    with it; "not-null-homotopic" means the search without the limit finds
    no filling either."""
    pres = SWEPT[name]
    w = null_word(pres, terms)
    cap = None if slack is None else max(1, len(w) + slack)
    res = find_filling(pres, w, SearchBudget(cap, 50_000, max_area))
    if res.kind == "area":
        acct = replay_sequence(pres, res.witness)
        assert acct.endpoints[1] == Word() and acct.area == res.area <= max_area
    elif res.kind == "not-null-homotopic":
        assert find_filling(pres, w, SearchBudget(cap, 50_000)).kind == res.kind
    else:
        assert res.lower_bound == 1


@pytest.mark.parametrize("name", ["K3", "Z2"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    terms=NULL_TERMS,
    codes=st.lists(st.integers(0, 63), max_size=8),
    null=st.booleans(),
    slack=st.integers(0, 4),
)
def test_a_larger_cap_never_gives_a_larger_area(name, terms, codes, null, slack):
    """Every search path within cap c lies within cap c + 2, so the larger
    cap finds an area no larger, and a word with no filling within c + 2
    has none within c."""
    pres = SWEPT[name]
    coder = oracle._coder(pres)
    if null:
        w = null_word(pres, terms)
    else:
        w = coder.decode(coder.reduce("".join(chr(c % len(coder.letters)) for c in codes)))
    assume(len(w) <= 8)
    cap = max(1, len(w) + slack)
    small, large = (
        area_exact(pres, w, SearchBudget(max_word_length=c, max_states=100_000))
        for c in (cap, cap + 2)
    )
    assert "budget-exhausted" not in (small.kind, large.kind)
    if small.kind == "area":
        assert large.kind == "area" and large.area <= small.area
    if large.kind == "not-null-homotopic":
        assert small.kind == "not-null-homotopic"


def reference_area(pres, w, budget):
    """The full-level search that ``area_exact`` must agree with: every
    level that holds a meet is expanded to its end, and the least meet
    wins."""
    pres.check_word(w)
    coder = oracle._coder(pres)
    clock = oracle._Clock(budget)
    cap = budget.length_cap(w, pres)
    start = coder.reduce(coder.encode(w))
    if start == "":
        return area_exact(pres, w, budget)
    if len(start) > cap:
        return oracle.AreaResult("budget-exhausted", lower_bound=1, states=0)
    if not intlinalg.in_lattice(coder.basis, coder.abelian_vector(start)):
        return oracle.AreaResult("not-null-homotopic", states=0)
    sides = (oracle._Ball(coder, cap, start), oracle._Ball(coder, cap, ""))
    depth = [0, 0]
    best = None

    def finish(states):
        path = oracle._chain(sides[0].parent, best[1], start)[::-1]
        path += oracle._chain(sides[1].parent, best[1], "")[1:]
        return oracle._witnessed(pres, coder, w, path, states, best[0])

    def stop(states):
        lower = depth[0] + depth[1] + 1
        if best is not None and best[0] <= lower:
            return finish(states)
        return oracle.AreaResult("budget-exhausted", lower_bound=lower, states=states)

    states = 2
    while True:
        if best is not None and best[0] <= depth[0] + depth[1] + 1:
            return finish(states)
        frontier = (sides[0].levels[depth[0]], sides[1].levels[depth[1]])
        if not frontier[0] or not frontier[1]:
            if best is not None:
                return finish(states)
            return oracle.AreaResult(
                "not-null-homotopic", lower_bound=depth[0] + depth[1] + 1, states=states
            )
        if states > budget.max_states or (
            budget.max_area is not None and depth[0] + depth[1] + 1 > budget.max_area
        ):
            return stop(states)
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, other, reached = sides[side], sides[1 - side].dist, depth[1 - side]
        d = depth[side]
        lo = 0
        for i in range(len(frontier[side])):
            if clock.expired():
                return stop(states)
            mine.grow(d)
            hi = mine.ends[d][i]
            for t in mine.levels[d + 1][lo:hi]:
                states += 1
                e = other.get(t)
                if e is not None and e <= reached:
                    if best is None or d + 1 + e < best[0]:
                        best = (d + 1 + e, t)
                if states > budget.max_states:
                    return stop(states)
            lo = hi
        depth[side] = d + 1


def same_result(got, want):
    """Equal in everything but ``states``, which may only fall."""
    assert (got.kind, got.area, got.lower_bound, got.witness) == (
        want.kind, want.area, want.lower_bound, want.witness
    )
    assert got.states <= want.states


@pytest.mark.parametrize("name", sorted(SWEPT))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    terms=st.lists(
        st.tuples(st.lists(st.integers(0, 11), max_size=2), st.integers(0, 2),
                  st.booleans()),
        min_size=1,
        max_size=3,
    ),
    slack=st.sampled_from([0, 2, None]),
    max_area=st.sampled_from([None, 1, 2, 3]),
    max_states=st.sampled_from([20_000, 2_000, 300, 60]),
)
def test_early_return_matches_the_full_level_loop(
    name, terms, slack, max_area, max_states
):
    """Returning after a level's first meet unless a collapse can still beat
    it gives the full-level loop's kind, area, lower bound and witness, with
    caps |w|, |w| + 2 and the default, area limits and state budgets; fresh
    and through shared empty-word sides."""
    pres = SWEPT[name]
    w = null_word(pres, terms)
    cap = None if slack is None else max(1, len(w) + slack)
    budget = SearchBudget(cap, max_states, max_area)
    want = reference_area(pres, w, budget)
    same_result(area_exact(pres, w, budget), want)
    balls = {}
    oracle._area(pres, null_word(pres, terms[:1]), budget, balls)
    same_result(oracle._area(pres, w, budget, balls), want)


def test_a_collapse_can_beat_the_first_meet(monkeypatch):
    """On Z^2 at cap 10 the first meet of x y' x y y x' y' x' has total 4,
    and a later collapse in the same level meets at total 2: a search that
    returned at its first meet without looking for collapses reports 4."""
    w, budget = word("x y' x y y x' y' x'"), SearchBudget(max_word_length=10)
    res = area_exact(Z2, w, budget)
    assert (res.kind, res.area) == ("area", 2)
    same_result(res, reference_area(Z2, w, budget))
    monkeypatch.setattr(oracle._Coder, "collapses", lambda self, s: ())
    assert area_exact(Z2, w, budget).area == 4


@pytest.mark.parametrize("name", sorted(SEARCHED))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(codes=st.lists(st.integers(0, 63), max_size=10), slack=st.integers(0, 4))
def test_every_edge_but_a_collapse_has_a_reverse(name, codes, slack):
    """The lemma behind the early return: for t in moves(s) that is not a
    collapse target of s, s is in moves(t); and every collapse target is a
    successor.  Presentations whose relators are not cyclically reduced are
    not ``reversible``, and their searches never return early."""
    coder = oracle._coder(SEARCHED[name])
    assert coder.reversible == (name != "non-reduced")
    s = coder.reduce("".join(chr(c % len(coder.letters)) for c in codes))
    cap = len(s) + slack
    successors = {t for t, _, _ in coder.moves(s, cap)}
    collapses = set(coder.collapses(s))
    assert collapses <= successors
    if coder.reversible:
        for t in successors - collapses:
            assert s in {u for u, _, _ in coder.moves(t, cap)}


def test_edge_moves_between_unjoined_states_is_internal():
    coder = oracle._coder(Z2)
    with pytest.raises(InternalCheckError, match="not adjacent"):
        coder.edge_moves(coder.encode(word("x")), coder.encode(word("y")))


def explore(coder, length, prefix=()):
    """Every nonempty freely reduced encoded word of length <= length, by
    recursion: a word, then its extensions in code order."""
    if prefix:
        yield "".join(map(chr, prefix))
    if len(prefix) == length:
        return
    for i in range(len(coder.letters)):
        if prefix and chr(i) == coder.inv[chr(prefix[-1])]:
            continue
        yield from explore(coder, length, prefix + (i,))


@pytest.mark.parametrize("name", sorted(SWEPT) + ["free"])
def test_stack_enumeration_matches_recursion(name):
    """The words the sweep decides are the recursively enumerated words
    that are cyclically reduced and on the relator lattice, in the same
    order, and each word visited is counted once."""
    coder = oracle._coder(SWEPT.get(name, FREE))
    for length in range(5):
        counts = collections.Counter()
        got = list(oracle._reduced_words(coder, length, counts))
        assert got == [
            s for s in explore(coder, length)
            if coder.inv[s[0]] != s[-1]
            and intlinalg.in_lattice(coder.basis, coder.abelian_vector(s))
        ]
        assert counts["enumerated"] == (
            counts["not_cyclically_reduced"] + counts["off_lattice"] + len(got)
        )


def test_dehn_stats_account_for_every_word(monkeypatch):
    budget = SearchBudget(max_word_length=12)
    searched = []
    area = oracle._area

    def recording(pres, w, budget, balls):
        searched.append(w)
        return area(pres, w, budget, balls)

    monkeypatch.setattr(oracle, "_area", recording)
    res = dehn_sample(Z2, 6, budget)
    monkeypatch.undo()
    stats = res.stats
    assert stats.enumerated == (
        stats.not_cyclically_reduced + stats.off_lattice + stats.cyclic_duplicates
        + stats.symmetric + stats.searched
    )
    assert stats.searched + stats.symmetric == res.words_checked
    assert stats.searched == len(searched)
    assert stats.search_states == sum(area_exact(Z2, w, budget).states for w in searched)
    # one cap, so one empty-word side
    assert 0 < stats.empty_side_states < stats.search_states
    assert res == dataclasses.replace(res, stats=oracle.DehnStats())


def identity_only(monkeypatch):
    """Make every sweep search each cyclic class, as with no symmetries."""
    monkeypatch.setattr(oracle._Coder, "symmetries", lambda self: [{}])


SYMMETRIC = {**SWEPT, "free": FREE, "non-reduced": SEARCHED["non-reduced"]}


@pytest.mark.parametrize("name, lengths, caps", [
    ("Z2", range(7), (None, 4, 6, 9)),
    ("Z3", range(7), (None, 4, 6, 9)),
    ("free", range(7), (None, 4, 6, 9)),
    ("non-reduced", range(7), (None, 4, 6, 9)),
    ("K3", range(5), (None, 4, 6, 9)),
    ("K3", (5,), (6,)),
], ids=["Z2", "Z3", "free", "non-reduced", "K3", "K3-length-5-cap-6"])
def test_dehn_sweep_matches_the_unsymmetric_sweep(monkeypatch, name, lengths, caps):
    """Searching one class per orbit of the presentation's symmetries gives
    the kind, value, witness and words_checked of the sweep that searches
    every cyclic class."""
    pres = SYMMETRIC[name]
    budgets = [SearchBudget(max_word_length=cap) for cap in caps]
    got = [dehn_sample(pres, n, b) for n in lengths for b in budgets]
    identity_only(monkeypatch)
    want = [dehn_sample(pres, n, b) for n in lengths for b in budgets]
    assert got == want
    assert [r.stats.symmetric for r in want] == [0] * len(want)


@pytest.mark.parametrize("max_states", [50, 170, 175, 400, 600, 605, 1000])
def test_dehn_sweep_under_a_state_budget(monkeypatch, max_states):
    """Each search the sweep runs is one the unsymmetric sweep runs, so a
    value there is the same value here; on Z^3 at length 6 and cap 10 a
    budget of 175 to 600 states cuts a search that the sweep now skips."""
    budget = SearchBudget(max_word_length=10, max_states=max_states)
    got = dehn_sample(Z3, 6, budget)
    identity_only(monkeypatch)
    want = dehn_sample(Z3, 6, budget)
    if want.kind == "value":
        assert got == want
    else:
        assert got.kind == ("value" if 175 <= max_states <= 600 else want.kind)
    if got.kind == "value":
        assert (got.value, got.witness) == (3, word("x y z x' y' z'"))


def test_dehn_sweep_searches_one_class_per_orbit(monkeypatch):
    """The three benchmark sweeps: their values, witnesses and counts, with
    the classes searched, each through its key (the first word of its class
    that the sweep enumerates); the stats read enumerated / not cyclically
    reduced / off lattice / cyclic duplicates / symmetric / searched, and
    then the prefixes pruned."""
    searched = []
    area = oracle._area

    def recording(pres, w, budget, balls):
        searched.append(w)
        return area(pres, w, budget, balls)

    monkeypatch.setattr(oracle, "_area", recording)
    for pres, length, value, witness, checked, stats, pruned in [
        (Z2, 10, 6, "x x x y y x' x' x' y' y'", 93, (10500, 3360, 5372, 1675, 69, 24), 14284),
        (SWEPT["K3"], 4, 4, "a_b a_c a_b' a_c'", 100, (1440, 240, 456, 644, 85, 15), 6096),
        (Z3, 6, 3, "x y z x' y' z'", 25, (1314, 360, 666, 263, 21, 4), 3462),
    ]:
        searched.clear()
        res = dehn_sample(pres, length)
        assert (res.kind, res.value, res.witness, res.words_checked) == (
            "value", value, word(witness), checked
        )
        got = res.stats
        assert (got.enumerated, got.not_cyclically_reduced, got.off_lattice,
                got.cyclic_duplicates, got.symmetric, got.searched) == stats
        assert got.pruned == pruned
        assert got.searched + got.symmetric == checked
        coder = oracle._coder(pres)
        codes = [coder.encode(w) for w in searched]
        assert codes == [oracle._cyclic_key(s, coder.inv) for s in codes]
        assert len(codes) == got.searched


def signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((0, 1), repeat=n):
            table = {}
            for g, (t, sign) in enumerate(zip(perm, signs)):
                table[2 * g] = chr(2 * t + sign)
                table[2 * g + 1] = chr(2 * t + 1 - sign)
            yield table


TABLED = {
    **SYMMETRIC,
    **SEARCHED,
    "octahedron": bb.dicks_leary_presentation(bb.octahedron_complex()),
    "p3": constructors.k32_presentations()["p3"],
    "q1": constructors.k32_presentations()["q1"],
}


@pytest.mark.parametrize("name", sorted(TABLED))
def test_symmetries_map_the_insertions_onto_themselves(name):
    """Every table is a distinct signed generator permutation that maps the
    set of insertions onto itself, the identity first; with at most six
    generators the table holds every such permutation (Z^2 has 8, Z^3 48,
    K3's Dicks-Leary presentation 24)."""
    pres = TABLED[name]
    coder = oracle._coder(pres)
    insertions = {entry[0] for entry in coder.insertions}
    table = coder.symmetries()
    assert coder.symmetries() is table
    assert 1 <= len(table) <= oracle._SYMMETRY_LIMIT
    codes = "".join(chr(c) for c in range(len(coder.letters)))
    images = [codes.translate(phi) for phi in table]
    assert images[0] == codes and len(set(images)) == len(images)
    for image in images:
        assert sorted(image) == sorted(codes)
        assert all(image[ord(coder.inv[c])] == coder.inv[image[ord(c)]] for c in codes)
    for phi in table:
        assert {ins.translate(phi) for ins in insertions} == insertions
    n = len(pres.generators)
    if n <= 6:
        every = {codes.translate(phi) for phi in signed_permutations(n)
                 if {ins.translate(phi) for ins in insertions} == insertions}
        assert set(images) == every
        assert len(every) == {"Z2": 8, "Z3": 48, "K3": 24}.get(name, len(every))


def test_symmetries_stop_at_their_limits(monkeypatch):
    """A presentation without relators on ten generators has 10! 2^10
    symmetries: the table stops at its limit and the sweep runs.  With no
    tries to spare after the identity, the table is the identity alone."""
    free10 = GroupPresentation(tuple(f"g{i}" for i in range(10)))
    table = oracle._coder(free10).symmetries()
    assert len(table) == oracle._SYMMETRY_LIMIT
    res = dehn_sample(free10, 4, SearchBudget(max_word_length=6))
    assert (res.kind, res.value) == ("value", 0)
    assert res.stats.searched < res.words_checked
    monkeypatch.setattr(oracle, "_SYMMETRY_TRIES", 0)
    coder = oracle._Coder(SWEPT["K3"])
    assert coder.symmetries() == [{c: chr(c) for c in range(len(coder.letters))}]


SPEC22 = DirectProductSpec(
    (("x1", "y1"), ("x2", "y2")),
    theta=ChargeMap(1, {"x1": (1,), "y1": (0,), "x2": (1,), "y2": (0,)}),
)


def test_dp_equal_basic():
    w = word("x1 y2 x1' y1")
    assert dp_equal(SPEC22, w, w)
    assert dp_equal(SPEC22, commutator(word("x1"), word("y2")), Word())
    assert not dp_equal(SPEC22, word("x1"), word("x2"))


def test_dp_equal_equivalence_and_congruence():
    rng = random.Random(7)
    gens = ("x1", "y1", "x2", "y2")
    for _ in range(1000):
        w1 = random_word(rng, gens, 6)
        w2 = random_word(rng, gens, 6)
        if dp_equal(SPEC22, w1, w2):
            u = random_word(rng, gens, 4)
            v = random_word(rng, gens, 4)
            assert dp_equal(SPEC22, concat(u, w1, v), concat(u, w2, v))
        assert dp_equal(SPEC22, w1, w1)
        if dp_equal(SPEC22, w1, w2):
            assert dp_equal(SPEC22, w2, w1)


C4_ADJ = {
    "x1": frozenset({"x2", "y2"}),
    "y1": frozenset({"x2", "y2"}),
    "x2": frozenset({"x1", "y1"}),
    "y2": frozenset({"x1", "y1"}),
}


def test_raag_equal_edges_commute():
    assert raag_equal(C4_ADJ, word("x1 x2"), word("x2 x1"))
    assert not raag_equal(C4_ADJ, word("x1 y1"), word("y1 x1"))


def test_raag_matches_dp_on_multipartite_join():
    # the square graph's group is F2 x F2
    rng = random.Random(11)
    gens = ("x1", "y1", "x2", "y2")
    for _ in range(200):
        w1 = random_word(rng, gens, 8)
        w2 = random_word(rng, gens, 8)
        assert raag_equal(C4_ADJ, w1, w2) == dp_equal(SPEC22, w1, w2)


def test_raag_normal_form_canonical():
    rng = random.Random(13)
    gens = ("x1", "y1", "x2", "y2")
    for _ in range(200):
        w1 = random_word(rng, gens, 8)
        w2 = random_word(rng, gens, 8)
        same = raag_equal(C4_ADJ, w1, w2)
        assert (raag_normal_form(C4_ADJ, w1) == raag_normal_form(C4_ADJ, w2)) == same


RAAGS = {"C4": C4_ADJ, "K3": bb.triangle_complex().adjacency}


@pytest.mark.parametrize("name", sorted(RAAGS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    codes=st.lists(st.integers(0, 7), max_size=10),
    edits=st.lists(st.tuples(st.booleans(), st.integers(0, 10), st.integers(0, 7)),
                   max_size=8),
    tail=st.lists(st.integers(0, 7), max_size=3),
)
def test_raag_normal_form_is_equal_exactly_when_raag_equal(name, codes, edits, tail):
    """w2 is w1 after element-preserving edits (swapping adjacent commuting
    letters, inserting a cancelling pair), then a tail that may or may not
    be trivial; the normal forms agree exactly when raag_equal holds."""
    adj = RAAGS[name]
    gens = sorted(adj)

    def letter(c):
        return Letter(gens[c % len(gens)], 1 - 2 * (c // len(gens) % 2))

    w1 = [letter(c) for c in codes]
    w2 = list(w1)
    for swap, at, c in edits:
        i = at % (len(w2) + 1)
        if not swap:
            w2[i:i] = [letter(c), letter(c).inverse()]
        elif i + 1 < len(w2) and w2[i].gen in adj[w2[i + 1].gen]:
            w2[i], w2[i + 1] = w2[i + 1], w2[i]
    w2 += [letter(c) for c in tail]
    w1, w2 = Word(tuple(w1)), Word(tuple(w2))
    same = raag_normal_form(adj, w1) == raag_normal_form(adj, w2)
    assert same == raag_equal(adj, w1, w2)
    if not tail:
        assert same


def test_cayley_distance_basic():
    gens = [word("x"), word("y")]
    assert cayley_distance(gens, word("x"), free_normal_form).distance == 1
    assert cayley_distance(gens, Word(), free_normal_form).distance == 0
    assert cayley_distance(gens, word("x y x"), free_normal_form).distance == 3


def test_cayley_distance_not_reached():
    gens = [word("x x")]
    res = cayley_distance(
        gens, word("x"), free_normal_form, SearchBudget(max_area=4)
    )
    assert res.kind == "not-reached"
    # a trivial generator: the search explores level 1 and finds it empty
    res = cayley_distance([word("x x'")], word("x"), free_normal_form)
    assert res == oracle.DistanceResult("not-reached", radius_explored=1)


def test_cayley_distance_kernel_generators():
    # distance to the square commutator in the kernel's generating set,
    # measured through the ambient direct product's normal form
    gens = [word("x1 x2'"), word("y1 y2'"), commutator(word("x1"), word("y1"))]
    h2 = commutator(wpow(word("x1"), 2), wpow(word("y1"), 2))
    res = cayley_distance(
        gens, h2, SPEC22.normal_form, SearchBudget(max_area=3, max_states=500_000)
    )
    assert res.kind == "not-reached"
    assert res.radius_explored >= 3  # so the distance is at least 4


def test_distortion_same_group():
    gens = [word("x"), word("y")]
    res = distortion_sample(
        gens, gens, 4, free_normal_form, membership=lambda w: True
    )
    assert res.kind == "value" and res.value == 4


def test_distortion_requires_membership():
    with pytest.raises(MembershipUndecidableError):
        distortion_sample([word("x")], [word("x")], 2, free_normal_form)


def test_distortion_rejects_negative_length():
    with pytest.raises(ValueError, match="non-negative"):
        distortion_sample([word("x")], [word("x")], -1, free_normal_form,
                          membership=lambda w: True)


def test_distortion_toy_subgroup():
    # H = <x^2, y> inside F(x, y); membership via a subgroup-ball check
    sub = [word("x x"), word("y")]
    members = set()
    frontier = {free_normal_form(Word())}
    seen = set(frontier)
    reps = {free_normal_form(Word()): Word()}
    for _ in range(10):
        nxt = set()
        for key in frontier:
            w = reps[key]
            for g in sub + [u.inverse() for u in sub]:
                t = free_reduce(concat(w, g))
                k = free_normal_form(t)
                if k not in seen:
                    seen.add(k)
                    reps[k] = t
                    nxt.add(k)
        frontier = nxt
    res = distortion_sample(
        sub,
        [word("x"), word("y")],
        4,
        free_normal_form,
        membership=lambda w: free_normal_form(w) in seen,
    )
    assert res.kind == "value" and res.value <= 5


class SlowClock:
    """Stands in for the ``time`` module: every read of the clock advances it
    by one millisecond, as if each step between reads took that long."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        self.now += 0.001
        return self.now


class CountingNormalForm:
    """``free_normal_form`` that records every distinct key it returns, so a
    test can count the states a search built."""

    def __init__(self):
        self.keys = set()

    def __call__(self, w):
        key = free_normal_form(w)
        self.keys.add(key)
        return key


def far_distance(normal_form, budget):
    # (x y)^8 lies 16 breadth-first levels out in the free group on x, y
    target = wpow(word("x y"), 8)
    return cayley_distance([word("x"), word("y")], target, normal_form, budget)


def endless_distortion(normal_form, budget):
    # the ambient ball of radius 1 has 5 elements; its member y is not in
    # <x y x', x^2 y x^-2>, so the subgroup search never completes
    theta = ChargeMap(1, {"x": (1,), "y": (0,)})
    sub = [word("x y x'"), word("x x y x' x'")]
    return distortion_sample(
        sub, [word("x"), word("y")], 1, normal_form, budget, theta=theta
    )


def wide_ambient_ball(normal_form, budget):
    # the radius-3 ball of the free group on four letters has 457 elements;
    # the ambient search must stop near the state budget, not at the level end
    return distortion_sample(
        [word("a")], [word(g) for g in "abcd"], 3, normal_form, budget,
        membership=lambda w: all(let.gen == "a" for let in w),
    )


BUDGETED_SEARCHES = pytest.mark.parametrize(
    "search, cut, steps",
    [
        (far_distance, "not-reached", 4),
        (endless_distortion, "budget-exhausted", 4),
        (wide_ambient_ball, "budget-exhausted", 8),
    ],
    ids=["cayley_distance", "distortion_sample", "distortion_ambient_ball"],
)


@BUDGETED_SEARCHES
def test_search_max_states_is_a_cap(search, cut, steps):
    """Four steps per state make breadth-first levels of 4, 12, 36, 108
    states, and eight make 8, 56, 392: a check between levels would stop at
    161 or 457, and a check before each expansion at up to 100 + steps."""
    normal_form = CountingNormalForm()
    res = search(normal_form, SearchBudget(max_states=100))
    assert res.kind == cut
    # the identity and target keys, or the ambient ball, account for the 5
    assert len(normal_form.keys) <= 101 + 5


@BUDGETED_SEARCHES
def test_search_wall_clock_is_a_cap(search, cut, steps, monkeypatch):
    """With every clock read a millisecond, a 50 ms clock allows about 50
    expanded states, each adding at most `steps`; a clock read once per level
    would let the state budget stop the search far later."""
    clock = SlowClock()
    monkeypatch.setattr(oracle, "time", clock)
    normal_form = CountingNormalForm()
    res = search(normal_form, SearchBudget(wall_clock_ms=50, max_states=20_000))
    assert res.kind == cut
    assert clock.reads <= 60
    assert len(normal_form.keys) <= steps * clock.reads + 5


def test_distortion_ambient_ball_over_the_cap():
    # the radius-1 ball of the free group on four letters has 9 elements
    res = distortion_sample(
        [word("a")], [word(g) for g in "abcd"], 1, free_normal_form,
        SearchBudget(max_states=3),
        membership=lambda w: len(w) != 1 or w[0].gen == "a",
    )
    assert res.kind == "budget-exhausted"


def reference_cayley_distance(generators, target, normal_form, budget):
    """cayley_distance as three loops did it before they shared one: the
    reference for the differential tests below."""
    clock = oracle._Clock(budget)
    target_key = normal_form(target)
    id_key = normal_form(Word())
    if target_key == id_key:
        return oracle.DistanceResult("distance", 0, Word(), 0)
    steps = []
    for g in generators:
        steps.append(g)
        steps.append(g.inverse())
    seen = {id_key}
    frontier = [(id_key, Word())]
    radius = 0
    while frontier:
        radius += 1
        if budget.max_area is not None and radius > budget.max_area:
            return oracle.DistanceResult("not-reached", radius_explored=radius - 1)
        level = []
        for _, wrep in frontier:
            if clock.expired():
                return oracle.DistanceResult("not-reached", radius_explored=radius - 1)
            for g in steps:
                nxt = free_reduce(concat(wrep, g))
                key = normal_form(nxt)
                if key in seen:
                    continue
                seen.add(key)
                if key == target_key:
                    return oracle.DistanceResult("distance", radius, nxt, radius)
                if len(seen) > budget.max_states:
                    return oracle.DistanceResult("not-reached",
                                                 radius_explored=radius - 1)
                level.append((key, nxt))
        frontier = level
    return oracle.DistanceResult("not-reached", radius_explored=radius)


def reference_distortion_sample(sub_generators, ambient_generators, length,
                                normal_form, budget, member):
    """distortion_sample before its two searches shared one loop; its ambient
    phase checked the state budget only before each expansion."""
    clock = oracle._Clock(budget)
    steps = []
    for g in ambient_generators:
        steps.append(g)
        steps.append(g.inverse())
    ball = {normal_form(Word()): Word()}
    frontier = [Word()]
    for _ in range(length):
        level = []
        for wrep in frontier:
            if len(ball) > budget.max_states or clock.expired():
                return oracle.DistortionSample("budget-exhausted")
            for g in steps:
                nxt = free_reduce(concat(wrep, g))
                key = normal_form(nxt)
                if key not in ball:
                    ball[key] = nxt
                    level.append(nxt)
        frontier = level
    members = {key: w for key, w in ball.items() if member(w)}

    sub_steps = []
    for g in sub_generators:
        sub_steps.append(g)
        sub_steps.append(g.inverse())
    dist = {normal_form(Word()): 0}
    sub_frontier = [Word()]
    remaining = set(members) - set(dist)
    radius = 0
    while remaining and sub_frontier:
        radius += 1
        level = []
        for wrep in sub_frontier:
            if clock.expired():
                return oracle.DistortionSample("budget-exhausted")
            for g in sub_steps:
                nxt = free_reduce(concat(wrep, g))
                key = normal_form(nxt)
                if key not in dist:
                    dist[key] = radius
                    if len(dist) > budget.max_states:
                        return oracle.DistortionSample("budget-exhausted")
                    level.append(nxt)
                    remaining.discard(key)
        sub_frontier = level
    if remaining:
        return oracle.DistortionSample("budget-exhausted")
    table = tuple(sorted((str(w), dist[key]) for key, w in members.items()))
    value = max((d for _, d in table), default=0)
    return oracle.DistortionSample("value", value, table)


def ball_size(generators, normal_form, length):
    ball = {normal_form(Word()): Word()}
    for _ in range(length):
        for w in list(ball.values()):
            for g in generators:
                for step in (g, g.inverse()):
                    nxt = free_reduce(concat(w, step))
                    ball.setdefault(normal_form(nxt), nxt)
    return len(ball)


def exponent_sums(w):
    return tuple(sum(let.sign for let in w if let.gen == g) for g in "xy")


# the free group, Z^2, the finite group (Z/3)^2 (whose searches end on a
# level that adds nothing) and the trivial group, all on x and y
NORMAL_FORMS = {
    "free": free_normal_form,
    "Z2": exponent_sums,
    "Z3xZ3": lambda w: tuple(e % 3 for e in exponent_sums(w)),
    "trivial": lambda w: (),
}
SHORT_WORDS = st.lists(st.sampled_from(["x", "x'", "y", "y'"]), max_size=3).map(
    lambda letters: word(" ".join(letters))
)
GENERATOR_LISTS = st.lists(SHORT_WORDS, min_size=1, max_size=3)
SMALL_BUDGETS = st.builds(
    SearchBudget,
    max_states=st.integers(1, 80),
    max_area=st.sampled_from([None, 1, 2, 3, 5]),
)


@pytest.mark.parametrize("name", sorted(NORMAL_FORMS))
@settings(max_examples=120, deadline=None, derandomize=True)
@given(generators=GENERATOR_LISTS, target=SHORT_WORDS, budget=SMALL_BUDGETS)
def test_cayley_distance_matches_the_reference(name, generators, target, budget):
    normal_form = NORMAL_FORMS[name]
    want = reference_cayley_distance(generators, target, normal_form, budget)
    assert cayley_distance(generators, target, normal_form, budget) == want


CHARGE_X = ChargeMap(1, {"x": (1,), "y": (0,)})
MEMBERSHIPS = {
    "all": lambda w: True,
    "even": lambda w: len(w) % 2 == 0,
    "charge": lambda w: charge(CHARGE_X, w) == (0,),
}


@pytest.mark.parametrize("name", sorted(NORMAL_FORMS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    sub=GENERATOR_LISTS,
    ambient=GENERATOR_LISTS,
    length=st.integers(0, 3),
    max_states=st.integers(1, 120),
    membership=st.sampled_from(sorted(MEMBERSHIPS)),
)
def test_distortion_sample_matches_the_reference(
    name, sub, ambient, length, max_states, membership
):
    normal_form = NORMAL_FORMS[name]
    budget = SearchBudget(max_states=max_states)
    member = MEMBERSHIPS[membership]
    # a charge map and a membership procedure decide membership alike
    if membership == "charge":
        decide = {"theta": CHARGE_X}
    else:
        decide = {"membership": member}
    got = distortion_sample(sub, ambient, length, normal_form, budget, **decide)
    if ball_size(ambient, normal_form, length) > max_states:
        assert got.kind == "budget-exhausted"
        return
    want = reference_distortion_sample(sub, ambient, length, normal_form,
                                       budget, member)
    if want.kind == "budget-exhausted" and got.kind == "value":
        # the reference finishes the level that reaches the last member, so
        # its state cap can cut a search that ends at that member; there the
        # value is the uncapped reference's
        want = reference_distortion_sample(sub, ambient, length, normal_form,
                                           SearchBudget(), member)
    assert got == want


@pytest.mark.parametrize("max_states, kind", [(2, "budget-exhausted"),
                                              (3, "value"),
                                              (4, "value"),
                                              (5, "value")])
def test_distortion_subgroup_search_completes_its_last_level(max_states, kind):
    # the ambient ball is 1, x, x'; the subgroup search reaches x', the last
    # member, as its third element and stops there, before y and y' finish
    # the level, so caps of 3 and 4 states no longer cut it
    res = distortion_sample(
        [word("x"), word("y")], [word("x")], 1, free_normal_form,
        SearchBudget(max_states=max_states), membership=lambda w: True,
    )
    assert res.kind == kind
    if kind == "value":
        assert res.value == 1
        assert res.table == (("1", 0), ("x", 1), ("x'", 1))


def test_distortion_kernel_quadratic_consistency():
    gens = [word("x1 x2'"), word("y1"), word("y2")]
    theta = SPEC22.theta
    table = {}
    for l in (1, 2, 3, 4):
        res = distortion_sample(
            gens, [word(g) for g in SPEC22.all_generators()], l,
            SPEC22.normal_form, theta=theta,
        )
        assert res.kind == "value"
        table[l] = res.value
    # consistent with quadratic distortion at desk scale
    for l, v in table.items():
        assert v <= 2 * l * l
    assert table[4] >= table[2] >= table[1]


def test_low_noise_single_relator():
    res = low_noise_search(Z2, word("x y x' y'"))
    assert res.kind == "found"
    assert res.noise <= 4 + 2 * 4 * 1


def test_low_noise_x2y2():
    w = commutator(wpow(word("x"), 2), wpow(word("y"), 2))
    res = low_noise_search(Z2, w, SearchBudget(max_word_length=12))
    assert res.kind == "found"
    assert res.area == 4
    assert res.noise <= 8 + 2 * 4 * 4


def test_low_noise_scheme_word():
    res = low_noise_search(Z2, SCHEME_WORD, SearchBudget(max_word_length=20))
    assert res.kind == "found"
    assert res.noise <= 12 + 2 * 4 * res.area
