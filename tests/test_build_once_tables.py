"""The build-once tables: relator-move halves on a presentation, pulled-down
letters and letter conversions on a pulldown context.  Every stored entry
equals a fresh computation, and a call that raises stores nothing for the
input it rejected."""

import pytest
from hypothesis import given, settings, strategies as st

from fillcalc import bestvina_brady as bb
from fillcalc.pulldown import (
    _phi_letter,
    conjugation_scheme,
    letter_conjugation_sequence,
    phi,
    pulldown_expression,
    standard_context,
)
from fillcalc.rewriting import (
    ApplyRelator,
    DerivationSequence,
    FillingExpression,
    GroupPresentation,
    MalformedMoveError,
    mirror_sequence,
    replay_sequence,
    reverse_sequence,
    sequence_to_expression,
)
from fillcalc.words import Letter, Word, concat, cyclic_conjugate, word

CHECKED = settings(max_examples=200, deadline=None, derandomize=True)


def fresh_halves(pres: GroupPresentation, rel: int, sign: int, rot: int, split: int):
    base = pres.relators[rel]
    conj = cyclic_conjugate(base if sign > 0 else base.inverse(), rot)
    return conj[:split], conj[split:].inverse()


def test_stored_halves_equal_fresh_computation_after_a_sweep():
    delta = bb.triangle_complex()
    tree = bb.spanning_tree(delta)
    model = bb.BBModel(delta, tree)
    pres = model.pres
    for member in bb.bb_indexed_families(delta, tree, 1):
        kind, args, n = bb.member_scheme(model, member)
        seq = bb.bb_relator_scheme(delta, tree, kind, args, n, model)
        # the converters read the same table at the (rot, split) keys that
        # their own arithmetic produces
        replay_sequence(pres, mirror_sequence(pres, seq))
        replay_sequence(pres, reverse_sequence(pres, seq))
        sequence_to_expression(pres, seq)
    assert len(pres._halves) > 100
    for key, halves in pres._halves.items():
        assert halves == fresh_halves(pres, *key)


Z2 = word("x y x' y'")


@pytest.mark.parametrize("move", [
    pytest.param(ApplyRelator(0, 1, 1, 0, 4), id="rel-high"),
    pytest.param(ApplyRelator(0, -1, 1, 0, 4), id="rel-negative"),
    pytest.param(ApplyRelator(0, 0, 0, 0, 4), id="sign-zero"),
    pytest.param(ApplyRelator(0, 0, 2, 0, 4), id="sign-two"),
    pytest.param(ApplyRelator(0, 0, 1, 4, 4), id="rot-high"),
    pytest.param(ApplyRelator(0, 0, 1, -1, 4), id="rot-negative"),
    pytest.param(ApplyRelator(0, 0, 1, 0, 5), id="split-high"),
    pytest.param(ApplyRelator(0, 0, 1, 0, -1), id="split-negative"),
])
def test_out_of_range_move_is_malformed_and_not_stored(move):
    pres = GroupPresentation(("x", "y"), (Z2,))
    good = ApplyRelator(0, 0, 1, 0, 4)
    replay_sequence(pres, DerivationSequence(Z2, (good,)))
    before = dict(pres._halves)
    for _ in range(2):
        with pytest.raises(MalformedMoveError) as info:
            replay_sequence(pres, DerivationSequence(Z2, (move,)))
        assert info.value.index == 0
        assert pres._halves == before


def test_sequence_to_expression_conjugators_match_the_relator_split():
    # every (rot, split) of the Z^2 relator, against the prefix decomposition
    # of the rotated relator q p: q when it fits in the replaced half, p^-1
    # otherwise
    pres = GroupPresentation(("x", "y"), (Z2,))
    for sign in (1, -1):
        signed = Z2 if sign > 0 else Z2.inverse()
        for rot in range(4):
            for split in range(5):
                replaced, _ = fresh_halves(pres, 0, sign, rot, split)
                start = concat(word("x"), replaced)
                move = ApplyRelator(1, 0, sign, rot, split)
                expr = sequence_to_expression(pres, DerivationSequence(start, (move,)))
                p, q = signed[:rot], signed[rot:]
                tail = q if len(q) <= split else p.inverse()
                assert expr == FillingExpression(((concat(word("x"), tail), 0, sign),))


CTX321 = standard_context(3, 2, 1)
CTX422 = standard_context(4, 2, 2)


def untabulated_phi(ctx, k, w, h):
    pieces = []
    level = h
    for let in w:
        pieces.append(_phi_letter(ctx, k, let, level))
        level += let.sign * ctx.theta.charges[let.gen][k - 1]
    return concat(*pieces)


@st.composite
def pulldown_inputs(draw):
    ctx = draw(st.sampled_from((CTX321, CTX422)))
    letters = st.builds(
        Letter, st.sampled_from(ctx.spec.all_generators()), st.sampled_from((1, -1))
    )
    w = Word(draw(st.lists(letters, max_size=8)))
    return ctx, draw(st.integers(1, ctx.rank)), w, draw(st.integers(-4, 4))


@CHECKED
@given(pulldown_inputs())
def test_phi_equals_untabulated_pieces(drawn):
    ctx, k, w, h = drawn
    assert phi(ctx, k, w, h) == untabulated_phi(ctx, k, w, h)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pulldown_inputs())
def test_shared_conversions_equal_a_fresh_context(drawn):
    ctx, k, w, h = drawn
    fresh = standard_context(ctx.spec.n_factors, 2, ctx.rank)
    assert conjugation_scheme(ctx, k, w, h) == conjugation_scheme(fresh, k, w, h)
    level = h
    for let in w:
        assert ctx._conversions[k, let, level] == letter_conjugation_sequence(
            fresh, k, let, level
        )
        level += let.sign * ctx.theta.charges[let.gen][k - 1]


def test_pulldown_fills_both_context_tables():
    ctx = standard_context(3, 2, 1)
    w = word("e1_1 e1_2 e1_1' e1_2'")
    pulldown_expression(ctx, 1, FillingExpression(((word("e1_1"), 0, 1),)), w)
    assert ctx._pulled and ctx._conversions
    for (k, let, level), (letters, step) in ctx._pulled.items():
        assert Word(letters) == _phi_letter(ctx, k, let, level)
        assert step == let.sign * ctx.theta.charges[let.gen][k - 1]


@pytest.mark.parametrize("text,pulled_first", [
    ("zz", ()),
    ("zz' e1_1", ()),
    # a letter that pulls down before the unknown one keeps its entry, the
    # one any later call would store
    ("e2_1 zz", ("e2_1",)),
])
def test_unknown_generator_raises_and_stores_nothing_for_it(text, pulled_first):
    ctx = standard_context(3, 2, 1)
    phi(ctx, 1, word("e1_1 e1_2"), 0)
    pulled, conversions = dict(ctx._pulled), dict(ctx._conversions)
    w = word(text)
    with pytest.raises(KeyError):
        phi(ctx, 1, w, 0)
    with pytest.raises(KeyError):
        conjugation_scheme(ctx, 1, w, 0)
    new = set(ctx._pulled) - set(pulled)
    assert new == {(1, Letter(gen, 1), 0) for gen in pulled_first}
    for key in new:
        assert Word(ctx._pulled[key][0]) == _phi_letter(ctx, *key)
    assert ctx._conversions == conversions
