"""The in-place move applier and the records kept beside emitted sequences.

``_apply_move`` edits a list of letters in place.  It is checked here
against a copy of the tuple-based applier it replaced: the same letters
for a move that applies, the same exception type and message for one that
does not, and an untouched list after a failure.  Every converter reports a
bad move at the index the walk reports.  The record that a ``WordEditor``
keeps, that a search witness carries, and that mirroring and reversing
derive, holds the final letters and each contraction's removed letter; it
must equal what a walk of the same moves shows.  Emission must walk nothing
at all, and turning a sequence into an expression walks it exactly once."""

import pytest
from hypothesis import given, settings, strategies as st

from fillcalc import bestvina_brady as bb, oracle, pulldown, rewriting, seqbuild
from fillcalc.pulldown import (
    conjugation_scheme,
    pulldown_expression,
    relator_filling,
    standard_context,
)
from fillcalc.rewriting import (
    ApplyRelator,
    DerivationSequence,
    FillingExpression,
    FreeContract,
    FreeExpand,
    GroupPresentation,
    MalformedMoveError,
    _apply_move,
    _record_of,
    _relator_halves,
    invert_sequence,
    mirror_sequence,
    replay_sequence,
    reverse_sequence,
    sequence_to_expression,
    validate_expression,
)
from fillcalc.seqbuild import WordEditor
from fillcalc.words import EMPTY, Letter, Word, free_reduce, word

CHECKED = settings(max_examples=300, deadline=None, derandomize=True)

PRESENTATIONS = {
    "Z2": GroupPresentation(("x", "y"), (word("x y x' y'"),)),
    "K3": bb.dicks_leary_presentation(bb.triangle_complex()),
    # relators that are not freely reduced
    "non-reduced": GroupPresentation(
        ("x", "y"), (word("x y x' y'"), word("x x' y y"), word("x y y' x' y"))
    ),
}


def reference_apply(pres, w, move):
    """The tuple-based applier that ``_apply_move`` replaced, kept verbatim
    (it returned a fresh word per move)."""
    if isinstance(move, FreeContract):
        if not 0 <= move.pos <= len(w) - 2:
            raise ValueError("position out of range")
        a, b = w[move.pos], w[move.pos + 1]
        if a != b.inverse():
            raise ValueError(f"letters {a}, {b} do not cancel")
        return Word._of(w.letters[: move.pos] + w.letters[move.pos + 2 :])
    if isinstance(move, FreeExpand):
        if not 0 <= move.pos <= len(w):
            raise ValueError("position out of range")
        let = Word((move.letter,))
        pair = let.letters + let.inverse().letters
        return Word._of(w.letters[: move.pos] + pair + w.letters[move.pos :])
    if isinstance(move, ApplyRelator):
        replaced, replacement = _relator_halves(pres, move)
        if not 0 <= move.pos <= len(w) - len(replaced):
            raise ValueError("position out of range")
        got = w[move.pos : move.pos + len(replaced)]
        if got != replaced:
            raise ValueError(f"subword {got} does not match relator part {replaced}")
        return Word._of(
            w.letters[: move.pos]
            + replacement.letters
            + w.letters[move.pos + len(replaced) :]
        )
    raise TypeError(f"unknown move {move!r}")


@st.composite
def words_over(draw, pres, max_size=8):
    letters = st.builds(Letter, st.sampled_from(pres.generators), st.sampled_from((1, -1)))
    return Word(draw(st.lists(letters, max_size=max_size)))


@st.composite
def moves_on(draw, pres, w):
    """A move for w: often one that applies, otherwise one with a bad
    position, letter, sign, relator, rotation, split or subword."""
    n = len(w)
    m = pres.max_relator_length
    rels = len(pres.relators)
    kind = draw(st.sampled_from(("contract", "expand", "relator", "fitted")))
    pos = draw(st.integers(-2, n + 2))
    if kind == "contract":
        return FreeContract(pos)
    if kind == "expand":
        letter = draw(st.one_of(
            st.builds(Letter, st.sampled_from(pres.generators), st.sampled_from((1, -1))),
            st.sampled_from((Letter("x", 0), Letter("x", 2), ("x", 1), "x")),
        ))
        return FreeExpand(pos, letter)
    if kind == "relator":
        return ApplyRelator(pos, draw(st.integers(-1, rels)), draw(st.integers(-1, 2)),
                            draw(st.integers(-1, m + 1)), draw(st.integers(-1, m + 1)))
    # a valid key at a position where its replaced half is usually found
    rel = draw(st.integers(0, rels - 1))
    size = len(pres.relators[rel])
    sign = draw(st.sampled_from((1, -1)))
    rot = draw(st.integers(0, max(1, size) - 1))
    split = draw(st.integers(0, size))
    replaced, _ = _relator_halves(pres, ApplyRelator(0, rel, sign, rot, split))
    at = draw(st.integers(0, n))
    if draw(st.booleans()):
        return ApplyRelator(at, rel, sign, rot, split)  # subword may mismatch
    return ApplyRelator(at, rel, sign, rot, split), replaced


@st.composite
def applications(draw):
    pres = PRESENTATIONS[draw(st.sampled_from(sorted(PRESENTATIONS)))]
    w = draw(words_over(pres))
    move = draw(moves_on(pres, w))
    if isinstance(move, tuple):
        # splice the replaced half in so that the move applies
        move, replaced = move
        w = Word._of(w.letters[: move.pos] + replaced.letters + w.letters[move.pos :])
    return pres, w, move


def outcome(apply):
    try:
        return "ok", apply()
    except (ValueError, IndexError, TypeError) as exc:
        return type(exc), str(exc)


@CHECKED
@given(applications())
def test_in_place_applier_matches_the_tuple_applier(drawn):
    pres, w, move = drawn
    letters = list(w.letters)
    expected = outcome(lambda: reference_apply(pres, w, move))
    got = outcome(lambda: _apply_move(pres, letters, move))
    if expected[0] == "ok":
        assert got[0] == "ok"
        assert tuple(letters) == expected[1].letters
        gone = w[move.pos] if isinstance(move, FreeContract) else None
        assert got[1] == gone
    else:
        assert got == expected
        assert letters == list(w.letters)


OUTCOMES = ("position out of range", "do not cancel", "bad letter",
            "relator index out of range", "sign must be", "rotation out of range",
            "split out of range", "does not match")


def test_the_drawn_moves_cover_every_outcome():
    # the differential test is only as good as its draws
    seen = set()

    @CHECKED
    @given(applications())
    def collect(drawn):
        pres, w, move = drawn
        kind, result = outcome(lambda: reference_apply(pres, w, move))
        seen.add("applies" if kind == "ok" else
                 next(o for o in OUTCOMES if o in result))

    collect()
    assert seen == {"applies", *OUTCOMES}


ALWAYS_BAD = {
    "position": FreeContract(10**6),
    "letter": FreeExpand(0, Letter("x", 0)),
    "relator": ApplyRelator(0, 10**3, 1, 0, 0),
    "negative-relator": ApplyRelator(0, -1, 1, 0, 0),
    "sign": ApplyRelator(0, 0, 0, 0, 0),
}

CONVERTERS = (replay_sequence, sequence_to_expression, mirror_sequence,
              reverse_sequence, invert_sequence)


@st.composite
def valid_sequences(draw):
    """A sequence of moves that apply, built by drawing until one applies."""
    pres = PRESENTATIONS[draw(st.sampled_from(sorted(PRESENTATIONS)))]
    start = draw(words_over(pres, 6))
    w, moves = start, []
    for _ in range(draw(st.integers(1, 6))):
        move = draw(moves_on(pres, w))
        if isinstance(move, tuple):
            continue
        try:
            after = reference_apply(pres, w, move)
        except (ValueError, IndexError, TypeError):
            continue
        moves.append(move)
        w = after
    return pres, DerivationSequence(start, moves)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(valid_sequences(), st.data())
def test_every_converter_reports_a_bad_move_at_its_index(drawn, data):
    pres, seq = drawn
    index = data.draw(st.integers(0, len(seq.moves)))
    bad = ALWAYS_BAD[data.draw(st.sampled_from(sorted(ALWAYS_BAD)))]
    moves = seq.moves[:index] + (bad,) + seq.moves[index:]
    for convert in CONVERTERS:
        with pytest.raises(MalformedMoveError) as info:
            convert(pres, DerivationSequence(seq.start, moves))
        assert info.value.index == index, convert.__name__


# ---------------------------------------------------------------------------
# records against walks


def plain(seq):
    """The same moves without their record, which the converters walk."""
    return DerivationSequence(seq.start, seq.moves)


def resolved(record):
    return tuple(record.final), tuple(record.removed)


def assert_record_matches_a_walk(pres, seq):
    assert seq._record is not None
    assert resolved(seq._record) == resolved(_record_of(pres, plain(seq)))


K3 = bb.triangle_complex()
K3_TREE = bb.spanning_tree(K3)
K3_MODEL = bb.BBModel(K3, K3_TREE)
CONTEXTS = (standard_context(3, 2, 1), standard_context(4, 2, 2))
# words the searches fill: the first of each has a two-step filling, and
# the last reduces to the empty word
SEARCHED = {
    "Z2": ("x x y x' x' y'", "y x y' x'", "x y y' x'"),
    "K3": ("a_b b_c a_b' b_c'", "a_b b_a", "a_b' a_b"),
}


@st.composite
def emitted(draw):
    which = draw(st.sampled_from(("scheme", "filling", "conjugation", "witness")))
    if which == "witness":
        name = draw(st.sampled_from(sorted(SEARCHED)))
        pres, words = PRESENTATIONS[name], SEARCHED[name]
        search = draw(st.sampled_from(("area_exact", "find_filling", "two_step_filling")))
        if search == "two_step_filling":
            return pres, oracle.two_step_filling(pres, word(words[0]))
        w = word(draw(st.sampled_from(words)))
        return pres, getattr(oracle, search)(pres, w).witness
    if which == "scheme":
        member = draw(st.sampled_from(bb.bb_indexed_families(K3, K3_TREE, 1)))
        kind, args, n = bb.member_scheme(K3_MODEL, member)
        return K3_MODEL.pres, bb.bb_relator_scheme(K3, K3_TREE, kind, args, n, K3_MODEL)
    ctx = draw(st.sampled_from(CONTEXTS))
    k = draw(st.integers(1, ctx.rank))
    h = draw(st.integers(-2, 2))
    if which == "filling":
        base = draw(st.sampled_from(ctx.presentation.relators))
        s = base if draw(st.booleans()) else base.inverse()
        return ctx.presentation, relator_filling(ctx, k, s, h)[0]
    letters = st.builds(
        Letter, st.sampled_from(ctx.spec.all_generators()), st.sampled_from((1, -1))
    )
    w = Word(draw(st.lists(letters, max_size=4)))
    return ctx.presentation, conjugation_scheme(ctx, k, w, h)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(emitted())
def test_records_equal_what_a_walk_shows(drawn):
    pres, seq = drawn
    assert_record_matches_a_walk(pres, seq)
    for convert in (mirror_sequence, reverse_sequence):
        once = convert(pres, seq)
        assert once == convert(pres, plain(seq))
        assert_record_matches_a_walk(pres, once)
        for again in (mirror_sequence, reverse_sequence):
            twice = again(pres, once)
            assert twice == again(pres, plain(once))
            assert_record_matches_a_walk(pres, twice)
            assert sequence_to_expression(pres, twice) == sequence_to_expression(
                pres, plain(twice))
        assert sequence_to_expression(pres, once) == sequence_to_expression(
            pres, plain(once))
    assert sequence_to_expression(pres, seq) == sequence_to_expression(pres, plain(seq))
    if not free_reduce(replay_sequence(pres, seq).endpoints[1]):
        assert invert_sequence(pres, seq) == invert_sequence(pres, plain(seq))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(emitted(), st.data())
def test_splicing_a_record_equals_splicing_its_moves(drawn, data):
    pres, seq = drawn
    gens = pres.generators
    letters = st.builds(Letter, st.sampled_from(gens), st.sampled_from((1, -1)))
    left = Word(data.draw(st.lists(letters, max_size=3)))
    right = Word(data.draw(st.lists(letters, max_size=3)))
    start = Word._of(left.letters + seq.start.letters + right.letters)
    by_record, by_moves = WordEditor(pres, start), WordEditor(pres, start)
    applied = []

    def counted(*args):
        applied.append(args[2])
        return _apply_move(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqbuild, "_apply_move", counted)
        patch.setattr(rewriting, "_apply_move", counted)
        by_record.apply_subsequence(len(left), seq)
        assert applied == []  # a recorded sequence is spliced by its final word
        by_moves.apply_subsequence(len(left), plain(seq))
        assert applied == list(seq.moves)  # any other is walked once
    assert by_record.letters == by_moves.letters
    assert by_record.moves == by_moves.moves
    assert resolved(by_record.sequence()._record) == resolved(by_moves.sequence()._record)
    assert_record_matches_a_walk(pres, by_record.sequence())


def test_a_failed_splice_or_move_is_an_internal_defect():
    pres = PRESENTATIONS["Z2"]
    editor = WordEditor(pres, word("x y"))
    with pytest.raises(rewriting.InternalCheckError, match="emitted move 0: letters x, y"):
        editor.contract(0)
    assert editor.letters == list(word("x y").letters) and not editor.moves
    editor.expand(2, Letter("y", 1))
    seq = DerivationSequence(word("x x'"), (FreeContract(0),))
    with pytest.raises(rewriting.InternalCheckError, match="emitted move 1: subword"):
        editor.apply_subsequence(0, seq)


def test_a_failed_splice_of_a_sequence_without_a_record_leaves_the_editor():
    pres = PRESENTATIONS["Z2"]
    editor = WordEditor(pres, word("y x x'"))
    editor.expand(0, Letter("y", -1))
    letters, moves = list(editor.letters), list(editor.moves)
    # the second contraction finds an empty subword
    seq = DerivationSequence(word("x x'"), (FreeContract(0), FreeContract(0)))
    with pytest.raises(rewriting.InternalCheckError,
                       match="emitted move 2: position out of range"):
        editor.apply_subsequence(3, seq)
    assert editor.letters == letters and editor.moves == moves
    assert_record_matches_a_walk(pres, editor.sequence())


def test_free_to_a_word_not_freely_equal_is_an_internal_defect():
    editor = WordEditor(PRESENTATIONS["Z2"], word("x y"))
    with pytest.raises(rewriting.InternalCheckError,
                       match="emitted move 0: x y and y x are not freely equal"):
        editor.free_to(word("y x"))
    assert editor.letters == list(word("x y").letters) and not editor.moves


def test_free_to_the_current_reduced_word_appends_no_move(monkeypatch):
    editor = WordEditor(PRESENTATIONS["Z2"], word("x x' y"))
    editor.contract(0)
    moves, record = list(editor.moves), editor.sequence()._record

    def no_walk(*args):
        raise AssertionError("free_to walked a word that is its target")

    monkeypatch.setattr(seqbuild, "free_equality_sequence", no_walk)
    editor.free_to(word("y"))
    assert editor.moves == moves and editor.sequence()._record == record
    monkeypatch.undo()
    # a target with a cancelling pair still gets its contraction and expansion
    editor.expand(1, Letter("x", 1))
    editor.free_to(word("y x x'"))
    assert editor.moves[2:] == [FreeContract(1), FreeExpand(1, Letter("x", 1))]


# ---------------------------------------------------------------------------
# emission walks nothing; conversion to an expression walks once


def forbid_walks(monkeypatch):
    def walk(pres, seq):
        raise AssertionError("emission walked a sequence")

    monkeypatch.setattr(rewriting, "_walk", walk)


def count_walks(monkeypatch):
    calls = []
    original = rewriting._walk

    def walk(pres, seq):
        calls.append(seq)
        return original(pres, seq)

    monkeypatch.setattr(rewriting, "_walk", walk)
    return calls


def one_member_of_each_kind(model):
    first = {}
    for member in bb.bb_indexed_families(model.delta, model.tree, 0):
        kind, args, _ = bb.member_scheme(model, member)
        first.setdefault(kind, args)
    assert len(first) == 4
    return sorted(first.items())


@pytest.mark.parametrize("complex_", [bb.triangle_complex, bb.octahedron_complex],
                         ids=["K3", "octahedron"])
def test_scheme_emission_walks_nothing(complex_, monkeypatch):
    delta = complex_()
    tree = bb.spanning_tree(delta)
    model = bb.BBModel(delta, tree)
    cases = [(kind, args, n)
             for kind, args in one_member_of_each_kind(model) for n in range(-2, 3)]
    # each commutator fill is replayed once when it is built; a first
    # emission fills the model's cache of them
    warm = [bb.bb_relator_scheme(delta, tree, kind, args, n, model)
            for kind, args, n in cases]
    with monkeypatch.context() as patch:
        forbid_walks(patch)
        seqs = [bb.bb_relator_scheme(delta, tree, kind, args, n, model)
                for kind, args, n in cases]
    assert seqs == warm
    calls = count_walks(monkeypatch)
    for (kind, args, n), seq in zip(cases, seqs):
        acct = replay_sequence(model.pres, seq)
        assert acct.endpoints[1] == EMPTY
        assert acct.area <= bb.scheme_bound(model, kind, n)
    assert len(calls) == len(seqs)


def test_pulldown_expression_walks_nothing(monkeypatch):
    # nothing beyond the one walk of each sequence turned into an expression
    ctx = standard_context(3, 2, 1)
    pres = ctx.presentation
    expr = FillingExpression([(word("e1_1 e2_1'"), 0, 1), (word("e2_3"), 3, -1),
                              (word("e1_2 e1_2"), 5, 1), (EMPTY, 11, -1)])
    w = free_reduce(expr.boundary(pres))
    converted = []

    def convert(pres, seq):
        converted.append(seq)
        return sequence_to_expression(pres, seq)

    with monkeypatch.context() as patch:
        patch.setattr(pulldown, "sequence_to_expression", convert)
        calls = count_walks(patch)
        out = pulldown_expression(ctx, 1, expr, w)
    assert out.area > expr.area
    assert converted and [id(seq) for seq in calls] == [id(seq) for seq in converted]
    calls = count_walks(monkeypatch)
    assert validate_expression(pres, out, w, ctx.theta).area == out.area
    assert calls == []
    assert out == pulldown_expression(standard_context(3, 2, 1), 1, expr, w)
