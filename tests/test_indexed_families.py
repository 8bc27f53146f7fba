"""The indexed relator families of a cyclic extension come from one builder,
``IndexedRelator.families``; these are the two loops it replaced, kept as
references."""

import pytest

from fillcalc import bestvina_brady as bb
from fillcalc.constructors import (
    IndexedRelator,
    PositiveNormalFormData,
    cyclic_infinite_presentation,
    k32_pnf_data,
)
from fillcalc.words import Word, concat, word


def reference_cyclic_families(data, index_bound):
    members = []
    lo = -index_bound if data.w_minus is not None else 0
    for k in range(lo, index_bound + 1):
        for ridx, rel in enumerate(data.base.relators):
            shifted = data.shift(rel, k)
            members.append(IndexedRelator(shifted, abs(k), "base", (ridx, k)))
        for gen in data.base.generators:
            target = concat(
                data.shift(word(gen), k + 1), data.shift(data.w_plus[gen], k).inverse()
            )
            members.append(IndexedRelator(target, abs(k), "stable", (gen, k)))
    return IndexedRelator.minimal(members)


def reference_bb_families(delta, tree, index_bound):
    pres = bb.dicks_leary_presentation(delta)
    members = []
    for n in range(-index_bound, index_bound + 1):
        for ridx, rel in enumerate(pres.relators):
            image = bb.bb_phi(delta, tree, n, rel)
            members.append(IndexedRelator(image, abs(n), "base", (ridx, n)))
        for e in delta.directed_edges():
            gen = delta.edge_letter(e).gen
            target = concat(
                bb.bb_phi(delta, tree, n + 1, Word((delta.edge_letter(e),))),
                bb.bb_phi(delta, tree, n, bb.edge_conjugation_word(delta, tree, e)).inverse(),
            )
            members.append(IndexedRelator(target, abs(n), "stable", (gen, n)))
    return IndexedRelator.minimal(members)


@pytest.mark.parametrize("index_bound", [0, 1, 2])
@pytest.mark.parametrize("delta", [bb.triangle_complex(), bb.octahedron_complex()],
                         ids=["K3", "octahedron"])
def test_bb_families_match_the_reference_loop(delta, index_bound):
    tree = bb.spanning_tree(delta)
    got = bb.bb_indexed_families(delta, tree, index_bound)
    assert got == reference_bb_families(delta, tree, index_bound)


@pytest.mark.parametrize("index_bound", [0, 1, 2])
def test_cyclic_families_match_the_reference_loop(index_bound):
    data = k32_pnf_data()
    got = cyclic_infinite_presentation(data, index_bound)
    assert got == reference_cyclic_families(data, index_bound)


def test_cyclic_families_without_negative_words():
    """Without w_minus only index 0 exists, and the order of w_plus changes
    nothing."""
    full = k32_pnf_data()
    data = PositiveNormalFormData(
        full.base, full.stable, dict(reversed(list(full.w_plus.items())))
    )
    got = cyclic_infinite_presentation(data, 0)
    assert got == reference_cyclic_families(data, 0)
    assert got == cyclic_infinite_presentation(full, 0)


def test_families_reject_a_negative_index_bound():
    delta = bb.triangle_complex()
    with pytest.raises(ValueError, match="index bound must be nonnegative"):
        bb.bb_indexed_families(delta, bb.spanning_tree(delta), -1)
    with pytest.raises(ValueError, match="index bound must be nonnegative"):
        cyclic_infinite_presentation(k32_pnf_data(), -1)
