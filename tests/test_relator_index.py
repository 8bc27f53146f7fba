"""Differential test: relator-move resolution through the presentation's
relator index against the linear first-match scan it replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from fillcalc.bestvina_brady import (
    dicks_leary_presentation,
    octahedron_complex,
    triangle_complex,
)
from fillcalc.rewriting import ApplyRelator, GroupPresentation, find_relator_move
from fillcalc.words import EMPTY, Letter, Word, concat, cyclic_conjugate, word

K3 = dicks_leary_presentation(triangle_complex())
OCTA = dicks_leary_presentation(octahedron_complex())
# a repeated relator, relators with repeated rotations (x y x y at rotations
# 0 and 2; y x y x is a rotation of it), a non-reduced one and the empty one
SMALL = GroupPresentation(
    ("x", "y"),
    tuple(
        word(r)
        for r in ("x y x y", "x y x' y'", "x y x y", "y x y x", "x x'", "y", "1")
    ),
)
PRESENTATIONS = {"K3": K3, "octahedron": OCTA, "small": SMALL}

CHECKED = settings(max_examples=300, deadline=None, derandomize=True)


def reference_move(
    pres: GroupPresentation, pos: int, replaced: Word, replacement: Word
) -> ApplyRelator:
    """The linear scan: relators in order, sign +1 before -1, rotations
    ascending; the first cyclic conjugate equal to the target wins."""
    target = concat(replaced, replacement.inverse())
    n = len(target)
    for rel, base in enumerate(pres.relators):
        if len(base) != n:
            continue
        for sign in (1, -1):
            signed = base if sign > 0 else base.inverse()
            for rot in range(max(1, n)):
                if cyclic_conjugate(signed, rot) == target:
                    return ApplyRelator(pos, rel, sign, rot, len(replaced))
    raise ValueError(f"no relator realizes {replaced} -> {replacement}")


def splits(conj: Word):
    for split in range(len(conj) + 1):
        yield conj[:split], conj[split:].inverse()


def conjugates(pres: GroupPresentation):
    for base in pres.relators:
        for signed in (base, base.inverse()):
            for rot in range(max(1, len(signed))):
                yield cyclic_conjugate(signed, rot)


@pytest.mark.parametrize("name", ["K3", "small"])
def test_every_split_of_every_conjugate_matches_scan(name):
    pres = PRESENTATIONS[name]
    for conj in conjugates(pres):
        for replaced, replacement in splits(conj):
            got = find_relator_move(pres, 3, replaced, replacement)
            assert got == reference_move(pres, 3, replaced, replacement)


def test_first_match_order_on_repeats():
    # x y x y: relator 0, sign +1, rotation 0, not rotation 2 or relators 2, 3
    assert find_relator_move(SMALL, 0, word("x y"), word("y' x'")) == ApplyRelator(
        0, 0, 1, 0, 2
    )
    # y x y x is rotation 1 of relator 0 before it is relator 3 itself
    assert find_relator_move(SMALL, 0, word("y x y x"), EMPTY) == ApplyRelator(
        0, 0, 1, 1, 4
    )
    assert find_relator_move(SMALL, 0, EMPTY, EMPTY) == ApplyRelator(0, 6, 1, 0, 0)


@st.composite
def relator_splits(draw):
    pres = PRESENTATIONS[draw(st.sampled_from(sorted(PRESENTATIONS)))]
    rel = draw(st.integers(0, len(pres.relators) - 1))
    base = pres.relators[rel]
    signed = base if draw(st.booleans()) else base.inverse()
    conj = cyclic_conjugate(signed, draw(st.integers(0, max(0, len(base) - 1))))
    split = draw(st.integers(0, len(conj)))
    return pres, conj[:split], conj[split:].inverse()


@CHECKED
@given(relator_splits(), st.integers(0, 20))
def test_sampled_conjugate_splits_match_scan(case, pos):
    pres, replaced, replacement = case
    got = find_relator_move(pres, pos, replaced, replacement)
    assert got == reference_move(pres, pos, replaced, replacement)


@st.composite
def word_pairs(draw):
    pres = PRESENTATIONS[draw(st.sampled_from(sorted(PRESENTATIONS)))]
    signs = st.sampled_from((1, -1))
    letters = st.builds(Letter, st.sampled_from(pres.generators), signs)
    replaced = Word(draw(st.lists(letters, max_size=3)))
    replacement = Word(draw(st.lists(letters, max_size=3)))
    return pres, replaced, replacement


@CHECKED
@given(word_pairs())
def test_random_pairs_agree_with_scan(case):
    pres, replaced, replacement = case
    try:
        expected = reference_move(pres, 0, replaced, replacement)
    except ValueError:
        with pytest.raises(ValueError):
            find_relator_move(pres, 0, replaced, replacement)
    else:
        assert find_relator_move(pres, 0, replaced, replacement) == expected
