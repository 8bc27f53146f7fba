"""Property tests: mirror, inversion and time reversal of emitted sequences
are involutions, and every transformed sequence replays with the same area.

The sequences are drawn from the emitters: Bestvina-Brady schemes on K3, and
relator fillings and conjugation schemes in both standard contexts."""

from hypothesis import given, settings, strategies as st

from fillcalc import bestvina_brady as bb
from fillcalc.pulldown import conjugation_scheme, relator_filling, standard_context
from fillcalc.rewriting import (
    DerivationSequence,
    invert_sequence,
    mirror_sequence,
    replay_sequence,
    reverse_sequence,
)
from fillcalc.words import EMPTY, Letter, Word

K3 = bb.triangle_complex()
K3_TREE = bb.spanning_tree(K3)
K3_MODEL = bb.BBModel(K3, K3_TREE)
K3_MEMBERS = bb.bb_indexed_families(K3, K3_TREE, 1)
CONTEXTS = (standard_context(3, 2, 1), standard_context(4, 2, 2))

CHECKED = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def bb_schemes(draw):
    member = draw(st.sampled_from(K3_MEMBERS))
    kind, args, n = bb.member_scheme(K3_MODEL, member)
    return K3_MODEL.pres, bb.bb_relator_scheme(K3, K3_TREE, kind, args, n, K3_MODEL)


@st.composite
def relator_fillings(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    k = draw(st.integers(1, ctx.rank))
    base = draw(st.sampled_from(ctx.presentation.relators))
    s = base if draw(st.booleans()) else base.inverse()
    seq, _ = relator_filling(ctx, k, s, draw(st.integers(-3, 3)))
    return ctx.presentation, seq


@st.composite
def conjugation_schemes(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    k = draw(st.integers(1, ctx.rank))
    letters = st.builds(
        Letter, st.sampled_from(ctx.spec.all_generators()), st.sampled_from((1, -1))
    )
    w = Word(draw(st.lists(letters, max_size=5)))
    return ctx.presentation, conjugation_scheme(ctx, k, w, draw(st.integers(-3, 3)))


null_sequences = st.one_of(bb_schemes(), relator_fillings())
sequences = st.one_of(null_sequences, conjugation_schemes())


def assert_same_area(pres, seq: DerivationSequence, other: DerivationSequence):
    assert replay_sequence(pres, other).area == replay_sequence(pres, seq).area


@CHECKED
@given(sequences)
def test_mirror_is_an_involution(drawn):
    pres, seq = drawn
    mirrored = mirror_sequence(pres, seq)
    final = replay_sequence(pres, seq).endpoints[1]
    assert replay_sequence(pres, mirrored).endpoints == (
        seq.start.inverse(),
        final.inverse(),
    )
    assert_same_area(pres, seq, mirrored)
    assert mirror_sequence(pres, mirrored) == seq


@CHECKED
@given(sequences)
def test_reverse_is_an_involution(drawn):
    pres, seq = drawn
    reversed_ = reverse_sequence(pres, seq)
    final = replay_sequence(pres, seq).endpoints[1]
    assert replay_sequence(pres, reversed_).endpoints == (final, seq.start)
    assert_same_area(pres, seq, reversed_)
    assert reverse_sequence(pres, reversed_) == seq


@CHECKED
@given(null_sequences)
def test_invert_is_an_involution_on_null_sequences(drawn):
    pres, seq = drawn
    assert replay_sequence(pres, seq).endpoints[1] == EMPTY
    inverted = invert_sequence(pres, seq)
    assert replay_sequence(pres, inverted).endpoints == (seq.start.inverse(), EMPTY)
    assert_same_area(pres, seq, inverted)
    assert invert_sequence(pres, inverted) == seq
