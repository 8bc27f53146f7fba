import random

import pytest
from hypothesis import given, settings, strategies as st

from fillcalc.pulldown import standard_context
from fillcalc.rewriting import (
    Accounting,
    ApplyRelator,
    BoundaryMismatchError,
    DerivationSequence,
    FillingExpression,
    FreeContract,
    FreeExpand,
    GroupPresentation,
    MalformedMoveError,
    NotFreelyEqualError,
    NotNullError,
    RowReport,
    Scheme,
    SchemeRow,
    contraction_moves,
    find_relator_move,
    free_equality_sequence,
    invert_sequence,
    mirror_sequence,
    replay_sequence,
    reverse_sequence,
    sequence_to_expression,
    splice_sequence,
    validate_expression,
    verify_scheme,
)
from fillcalc import rewriting
from fillcalc.oracle import SearchBudget, area_exact
from fillcalc.words import (
    ChargeMap,
    Letter,
    Word,
    commutator,
    concat,
    free_reduce,
    heights,
    word,
)

Z2 = GroupPresentation(("x", "y"), (word("x y x' y'"),))

SCHEME_WORD = word("x x y x' y x y x' x' y' y' y'")
SCHEME_ROWS = (
    SchemeRow(SCHEME_WORD, 2),
    SchemeRow(word("x x y x' y x' y' y'"), 1),
    SchemeRow(word("x x y x' x' y'"), 2),
)


def random_word(rng, gens, max_len):
    n = rng.randrange(max_len + 1)
    return Word(
        tuple(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(n))
    )


def test_presentation_validates_relators():
    with pytest.raises(ValueError):
        GroupPresentation(("x",), (word("x z"),))
    assert Z2.max_relator_length == 4


def test_replay_free_contract():
    seq = DerivationSequence(word("x x'"), (FreeContract(0),))
    acct = replay_sequence(Z2, seq)
    assert acct.area == 0
    assert acct.endpoints[1] == Word()


def test_replay_whole_relator_deletion():
    # delete the whole commutator in one move: split 4 leaves an empty
    # replacement
    seq = DerivationSequence(word("x y x' y'"), (ApplyRelator(0, 0, 1, 0, 4),))
    acct = replay_sequence(Z2, seq)
    assert acct.area == 1
    assert acct.endpoints[1] == Word()


def test_replay_rejects_malformed_moves():
    with pytest.raises(MalformedMoveError) as info:
        replay_sequence(Z2, DerivationSequence(word("x y"), (FreeContract(0),)))
    assert info.value.index == 0
    with pytest.raises(MalformedMoveError):
        replay_sequence(
            Z2, DerivationSequence(word("x y"), (ApplyRelator(5, 0, 1, 0, 4),))
        )


# each follows a valid free expansion, so it is move 1 of its sequence; the
# relator moves sit where relator 0 would match, so only the index is wrong
# (-1 must not wrap round to the last relator)
BAD_MOVES = {
    "position": ApplyRelator(9, 0, 1, 0, 4),
    "relator": ApplyRelator(2, 1, 1, 0, 4),
    "negative-relator": ApplyRelator(2, -1, 1, 0, 4),
}


@pytest.mark.parametrize("bad", sorted(BAD_MOVES))
@pytest.mark.parametrize(
    "convert",
    [replay_sequence, sequence_to_expression, mirror_sequence, reverse_sequence,
     invert_sequence],
    ids=lambda f: f.__name__,
)
def test_converters_report_bad_move(convert, bad):
    seq = DerivationSequence(
        word("x y x' y'"), (FreeExpand(0, Letter("x", 1)), BAD_MOVES[bad])
    )
    with pytest.raises(MalformedMoveError) as info:
        convert(Z2, seq)
    assert info.value.index == 1


def test_replay_heights_tracked():
    theta = ChargeMap(1, {"x": (1,), "y": (0,)})
    seq = DerivationSequence(word("x x x' x'"), (FreeContract(1), FreeContract(0)))
    acct = replay_sequence(Z2, seq, theta)
    assert acct.heights == (2,)


def test_replay_heights_undefined_for_charged_relators():
    pres = GroupPresentation(("x",), (word("x x"),))
    theta = ChargeMap(1, {"x": (1,)})
    seq = DerivationSequence(word("x x"), (ApplyRelator(0, 0, 1, 0, 2),))
    acct = replay_sequence(pres, seq, theta)
    assert acct.heights is None


def test_replay_heights_unknown_only_for_unknown_generators(monkeypatch):
    seq = DerivationSequence(word("x x'"), (FreeContract(0),))
    # y has no charge, so the relator's charge is unknown
    assert replay_sequence(Z2, seq, ChargeMap(1, {"x": (1,)})).heights is None

    def broken(theta, w):
        raise ZeroDivisionError("defect in charge")

    monkeypatch.setattr(rewriting, "charge", broken)
    with pytest.raises(ZeroDivisionError):
        replay_sequence(Z2, seq, ChargeMap(1, {"x": (1,), "y": (0,)}))


def test_area_additive_over_concatenation():
    rng = random.Random(3)
    for _ in range(50):
        w = random_word(rng, ("x", "y"), 6)
        s1 = free_equality_sequence(w, free_reduce(w))
        s2 = free_equality_sequence(free_reduce(w), w)
        both = s1.then(s2)
        acct = replay_sequence(Z2, both)
        assert acct.area == 0
        assert acct.endpoints[1] == w


def test_validate_expression_examples():
    acct = validate_expression(Z2, FillingExpression(()), Word())
    assert (acct.area, acct.radius) == (0, 0)
    expr = FillingExpression(((Word(), 0, 1),))
    acct = validate_expression(Z2, expr, word("x y x' y'"))
    assert (acct.area, acct.radius) == (1, 0)


@pytest.mark.parametrize(
    "term, names",
    [((Word(), -1, 1), "relator index -1"), ((Word(), 1, 1), "relator index 1"),
     ((Word(), 0, 5), "sign 5"), ((Word(), 0, 0), "sign 0")],
)
def test_validate_expression_rejects_bad_term(term, names):
    expr = FillingExpression(((Word(), 0, 1), term))
    with pytest.raises(ValueError, match=f"term 1: {names}"):
        validate_expression(Z2, expr, word("x y x' y' x y x' y'"))


def test_validate_expression_mismatch_reports_discrepancy():
    expr = FillingExpression(((word("x"), 0, 1),))
    with pytest.raises(BoundaryMismatchError) as info:
        validate_expression(Z2, expr, word("y"))
    assert len(info.value.discrepancy) > 0


def reference_validation(pres, expr, w, theta):
    """The verifier before telescoping: the whole boundary, built term by
    term and reduced against w, and every conjugator's heights from scratch.
    Returns the accounting (None on a mismatch) and the discrepancy."""
    parts = []
    for conj, rel, sign in expr.terms:
        base = pres.relators[rel]
        signed = base if sign > 0 else base.inverse()
        parts.append(concat(conj, signed, conj.inverse()))
    boundary = concat(*parts) if parts else Word()
    discrepancy = free_reduce(concat(boundary, w.inverse()))
    if len(discrepancy):
        return None, discrepancy
    best = [0] * theta.rank
    for conj, _, _ in expr.terms:
        for i, h in enumerate(heights(theta, conj)):
            if h > best[i]:
                best[i] = h
    radius = max((len(conj) for conj, _, _ in expr.terms), default=0)
    return Accounting(len(expr.terms), radius, tuple(best), (boundary, w)), discrepancy


PRODUCT = standard_context(3, 2, 1)
SHARED_PREFIX_CASES = {
    "Z2": (Z2, ChargeMap(2, {"x": (1, 0), "y": (0, 1)})),
    "(3,2,1) product": (PRODUCT.presentation, PRODUCT.theta),
}


def words_over(pres, max_size):
    letters = st.builds(
        Letter, st.sampled_from(pres.generators), st.sampled_from((1, -1))
    )
    return st.lists(letters, max_size=max_size).map(lambda ls: Word(tuple(ls)))


@st.composite
def shared_prefix_expressions(draw, pres):
    """Expressions whose conjugators share prefixes the way flattened ones
    do: empty, repeated, extended, cut back, grown from a shared trunk, or
    drawn fresh with no prefix in common."""
    trunks = draw(st.lists(words_over(pres, 10), min_size=1, max_size=3))
    terms = []
    prev = Word()
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(
            st.sampled_from(("empty", "repeat", "extend", "cut", "trunk", "fresh"))
        )
        if kind == "empty":
            conj = Word()
        elif kind == "repeat":
            conj = prev
        elif kind == "extend":
            conj = concat(prev, draw(words_over(pres, 4)))
        elif kind == "cut":
            conj = prev[: draw(st.integers(0, len(prev)))]
        elif kind == "trunk":
            conj = concat(draw(st.sampled_from(trunks)), draw(words_over(pres, 4)))
        else:
            conj = draw(words_over(pres, 8))
        rel = draw(st.integers(0, len(pres.relators) - 1))
        terms.append((conj, rel, draw(st.sampled_from((1, -1)))))
        prev = conj
    return FillingExpression(terms)


@pytest.mark.parametrize("case", sorted(SHARED_PREFIX_CASES))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_expression_matches_the_whole_boundary(case, data):
    """On the expression's own reduced boundary the telescoped verifier
    returns the reference's accounting, whose first endpoint is the whole
    unreduced boundary; on a perturbed word it reports the reference's
    discrepancy."""
    pres, theta = SHARED_PREFIX_CASES[case]
    expr = data.draw(shared_prefix_expressions(pres))
    _, reduced = reference_validation(pres, expr, Word(), theta)
    perturbed = free_reduce(concat(reduced, data.draw(words_over(pres, 3))))
    for w in (reduced, perturbed):
        expected, discrepancy = reference_validation(pres, expr, w, theta)
        if expected is None:
            with pytest.raises(BoundaryMismatchError) as info:
                validate_expression(pres, expr, w, theta)
            assert info.value.discrepancy == discrepancy
        else:
            assert validate_expression(pres, expr, w, theta) == expected
            assert expr.boundary(pres) == expected.endpoints[0]
            assert expr.expr_heights(theta) == expected.heights


def test_public_constructors_still_check_letters():
    for bad in ((Letter("x", 2),), (Letter("x", 0),), ("x",), (("x", 1),)):
        with pytest.raises(ValueError, match="bad letter"):
            Word(bad)


@pytest.mark.parametrize("letter", [Letter("x", 0), ("x", 1), "x"], ids=repr)
def test_free_expand_checks_its_letter(letter):
    seq = DerivationSequence(word("x"), (FreeExpand(1, letter),))
    with pytest.raises(MalformedMoveError, match="bad letter") as info:
        replay_sequence(Z2, seq)
    assert info.value.index == 0


def test_free_equality_sequence_examples():
    seq = free_equality_sequence(word("x x'"), Word())
    assert [type(m) for m in seq.moves] == [FreeContract]
    seq = free_equality_sequence(word("a b b' c"), word("a c"))
    assert sum(isinstance(m, FreeContract) for m in seq.moves) == 1
    assert sum(isinstance(m, FreeExpand) for m in seq.moves) == 0
    pres = GroupPresentation(("a", "b", "c"))
    assert replay_sequence(pres, seq).endpoints[1] == word("a c")
    with pytest.raises(NotFreelyEqualError):
        free_equality_sequence(word("a"), word("b"))


def test_free_equality_round_trip_same_word():
    rng = random.Random(5)
    pres = GroupPresentation(("x", "y", "z"))
    theta = ChargeMap(1, {"x": (1,), "y": (0,), "z": (0,)})
    for _ in range(500):
        w1 = random_word(rng, ("x", "y", "z"), 8)
        w2 = concat(w1, Word())  # same word, round trip through reduction
        seq = free_equality_sequence(w1, w2)
        acct = replay_sequence(pres, seq, theta)
        assert acct.area == 0
        assert acct.endpoints == (w1, w2)
        h1 = max(
            replay_sequence(pres, DerivationSequence(w1, ()), theta).heights[0],
            replay_sequence(pres, DerivationSequence(w2, ()), theta).heights[0],
        )
        assert acct.heights[0] <= h1


def test_free_equality_random_pairs_height_bound():
    # pairs made freely equal by inserting cancelling garbage
    rng = random.Random(9)
    pres = GroupPresentation(("x", "y"))
    theta = ChargeMap(2, {"x": (1, 0), "y": (0, 1)})
    for _ in range(500):
        core = random_word(rng, ("x", "y"), 6)
        g = random_word(rng, ("x", "y"), 3)
        i = rng.randrange(len(core) + 1)
        w1 = Word(core.letters[:i] + g.letters + g.inverse().letters + core.letters[i:])
        w2 = core
        seq = free_equality_sequence(w1, w2)
        acct = replay_sequence(pres, seq, theta)
        assert acct.area == 0 and acct.endpoints[1] == w2
        from fillcalc.words import heights

        bound = tuple(
            max(a, b) for a, b in zip(heights(theta, w1), heights(theta, w2))
        )
        assert all(h <= b for h, b in zip(acct.heights, bound))


def _one_move_sequence():
    move = find_relator_move(Z2, 1, word("x y"), word("y x"))
    return DerivationSequence(word("y x y x' y' y'"), (move,))


def test_sequence_to_expression_single_move():
    seq = _one_move_sequence()
    expr = sequence_to_expression(Z2, seq)
    assert expr.area == 1
    final = replay_sequence(Z2, seq).endpoints[1]
    validate_expression(Z2, expr, concat(seq.start, final.inverse()))


def test_sequence_to_expression_round_trip_property():
    rng = random.Random(21)
    for _ in range(200):
        # random valid sequences: start word, then random legal moves
        w = random_word(rng, ("x", "y"), 6)
        moves = []
        cur = w
        for _ in range(rng.randrange(6)):
            kind = rng.choice(("expand", "contract", "relator"))
            if kind == "expand":
                p = rng.randrange(len(cur) + 1)
                let = Letter(rng.choice(("x", "y")), rng.choice((1, -1)))
                moves.append(FreeExpand(p, let))
            elif kind == "contract":
                spots = [
                    i
                    for i in range(len(cur) - 1)
                    if cur[i] == cur[i + 1].inverse()
                ]
                if not spots:
                    continue
                moves.append(FreeContract(rng.choice(spots)))
            else:
                rot = rng.randrange(4)
                split = rng.randrange(5)
                sign = rng.choice((1, -1))
                move = ApplyRelator(0, 0, sign, rot, split)
                from fillcalc.rewriting import _relator_halves

                replaced, _ = _relator_halves(Z2, move)
                spots = [
                    p
                    for p in range(len(cur) - len(replaced) + 1)
                    if cur[p : p + len(replaced)] == replaced
                ]
                if not spots:
                    continue
                move = ApplyRelator(rng.choice(spots), 0, sign, rot, split)
                moves.append(move)
            seq = DerivationSequence(w, tuple(moves))
            cur = replay_sequence(Z2, seq).endpoints[1]
        seq = DerivationSequence(w, tuple(moves))
        theta = ChargeMap(1, {"x": (1,), "y": (0,)})
        acct = replay_sequence(Z2, seq, theta)
        expr = sequence_to_expression(Z2, seq)
        assert expr.area == acct.area
        validate_expression(
            Z2, expr, concat(w, acct.endpoints[1].inverse())
        )
        eh = expr.expr_heights(theta)
        assert all(a <= b for a, b in zip(eh, acct.heights))


def test_invert_sequence_round_trip():
    seq = DerivationSequence(word("x y x' y'"), (ApplyRelator(0, 0, 1, 0, 4),))
    inv = invert_sequence(Z2, seq)
    acct = replay_sequence(Z2, inv)
    assert inv.start == word("y x y' x'")
    assert acct.area == 1
    assert acct.endpoints[1] == Word()


def test_invert_preserves_heights_on_null_sequences():
    theta = ChargeMap(1, {"x": (1,), "y": (0,)})
    seq = DerivationSequence(
        word("x y x' y'"),
        (
            find_relator_move(Z2, 0, word("x y"), word("y x")),
            FreeContract(1),
            FreeContract(0),
        ),
    )
    mid = replay_sequence(Z2, seq, theta)
    assert mid.endpoints[1] == Word()
    inv = invert_sequence(Z2, seq)
    acct = replay_sequence(Z2, inv, theta)
    assert inv.start == word("y x y' x'")
    assert acct.endpoints[1] == Word()
    assert acct.area == mid.area
    assert acct.heights == mid.heights


def test_reverse_sequence():
    seq = _one_move_sequence()
    rev = reverse_sequence(Z2, seq)
    acct = replay_sequence(Z2, rev)
    assert acct.endpoints == (replay_sequence(Z2, seq).endpoints[1], seq.start)
    assert acct.area == 1


def test_splice_sequence_offsets_moves():
    seq = DerivationSequence(word("x x'"), (FreeContract(0),))
    moves = splice_sequence(seq, 2)
    outer = DerivationSequence(word("y y x x'"), moves)
    pres = GroupPresentation(("x", "y"))
    assert replay_sequence(pres, outer).endpoints[1] == word("y y")


def test_splice_sequence_at_offset_zero_is_the_sequence_s_own_moves():
    # the moves are frozen, so at offset 0 none is built again
    seq = DerivationSequence(word("x y x' y'"), (
        FreeExpand(4, Letter("y", 1)), FreeContract(4), ApplyRelator(0, 0, 1, 0, 4)))
    assert splice_sequence(seq, 0) is seq.moves
    for offset in (1, 3):
        assert splice_sequence(seq, offset) == (
            FreeExpand(4 + offset, Letter("y", 1)), FreeContract(4 + offset),
            ApplyRelator(offset, 0, 1, 0, 4))


def test_verify_scheme_trivial_row():
    scheme = Scheme((SchemeRow(word("x x'"), 0),))
    report = verify_scheme(Z2, scheme, budget=SearchBudget(max_word_length=8))
    assert report.passed and report.total_area == 0


def test_verify_scheme_example_table():
    scheme = Scheme(SCHEME_ROWS)
    report = verify_scheme(Z2, scheme, budget=SearchBudget(max_word_length=24))
    assert report.passed
    assert report.total_area == 5


def test_verify_scheme_fails_on_lowered_claim():
    rows = (SchemeRow(SCHEME_WORD, 1),) + SCHEME_ROWS[1:]
    report = verify_scheme(Z2, Scheme(rows), budget=SearchBudget(max_word_length=24))
    assert not report.passed
    assert report.rows[0].verdict == "area-exceeds-claim"
    assert report.rows[0].measured_area == 2


@pytest.mark.parametrize("row,budget,verdict", [
    pytest.param(SchemeRow(word("x"), 0), SearchBudget(max_word_length=8),
                 "not-null-homotopic", id="not-null-homotopic"),
    pytest.param(SchemeRow(SCHEME_WORD, 5), SearchBudget(max_word_length=24, max_states=5),
                 "budget-exhausted", id="budget-exhausted"),
])
def test_verify_scheme_by_search_reports_a_row_it_cannot_pass(row, budget, verdict):
    report = verify_scheme(Z2, Scheme((row,)), budget=budget)
    assert report.rows == (RowReport(0, verdict, None),)
    assert not report.passed and report.total_area is None


@pytest.mark.parametrize("seq", [
    pytest.param(DerivationSequence(word("x x'"), (FreeContract(0),)), id="other-start"),
    pytest.param(DerivationSequence(word("x y x' y'"), ()), id="other-end"),
])
def test_verify_scheme_reports_a_sequence_that_misses_its_row(seq):
    # [x, y] has area 1: the row is null-homotopic, the sequence is at fault
    scheme = Scheme((SchemeRow(word("x y x' y'"), 1),))
    report = verify_scheme(Z2, scheme, sequences=[seq])
    assert report.rows == (RowReport(0, "sequence-mismatch", None),)
    assert not report.passed and report.total_area is None


def test_verify_scheme_reports_a_sequence_over_its_claim():
    w = word("x y x' y'")
    report = verify_scheme(Z2, Scheme((SchemeRow(w, 0),)),
                           sequences=[area_exact(Z2, w).witness])
    assert report.rows == (RowReport(0, "area-exceeds-claim", 1),)
    assert not report.passed and report.total_area is None


def test_invert_sequence_needs_a_null_sequence():
    seq = DerivationSequence(word("x x' y"), (FreeContract(0),))
    with pytest.raises(NotNullError, match="does not end at the empty word"):
        invert_sequence(Z2, seq)


def test_sequence_area_counts_relator_moves():
    seq = DerivationSequence(word("x y x' y'"), (
        FreeExpand(4, Letter("x", 1)), ApplyRelator(0, 0, 1, 0, 4), FreeContract(0)))
    assert seq.area == 1 == replay_sequence(Z2, seq).area
    assert DerivationSequence(word("x x'"), (FreeContract(0),)).area == 0


def test_contraction_moves_replayable():
    rng = random.Random(33)
    pres = GroupPresentation(("x", "y"))
    for _ in range(100):
        w = random_word(rng, ("x", "y"), 10)
        seq = DerivationSequence(w, tuple(contraction_moves(w)))
        assert replay_sequence(pres, seq).endpoints[1] == free_reduce(w)
