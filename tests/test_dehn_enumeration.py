"""Differential and property tests for the Dehn sweep's enumeration: the
pruned generator against the full enumeration and filters it replaced, and
the sweep's distance to the relator lattice against brute force."""

import collections
import functools

import pytest
from hypothesis import given, settings, strategies as st

from fillcalc import bestvina_brady as bb, intlinalg, oracle
from fillcalc.rewriting import GroupPresentation
from fillcalc.words import word

Z2 = GroupPresentation(("x", "y"), (word("x y x' y'"),))
Z3 = GroupPresentation(
    ("x", "y", "z"), tuple(word(r) for r in ("x y x' y'", "x z x' z'", "y z y' z'"))
)
K3 = bb.dicks_leary_presentation(bb.triangle_complex())
# the presentations of the property test, each with the longest length
# compared
LATTICES = {
    # no relators: the lattice is 0 and the basis empty
    "free": (GroupPresentation(("x", "y")), 6),
    # torsion: the lattice has full rank and index 6
    "Z/2 x Z/3": (
        GroupPresentation(("x", "y"), (word("x x"), word("y y y"), word("x y x' y'"))),
        6,
    ),
    # a lattice of lower rank: only a's exponent sum is bounded
    "BS(1,2)": (GroupPresentation(("a", "t"), (word("t a t' a' a'"),)), 6),
    # relators that are not freely reduced
    "non-reduced": (
        GroupPresentation(
            ("x", "y"), (word("x y x' y'"), word("x x' y y"), word("x y y' x' y"))
        ),
        6,
    ),
    # six generators, a lattice of rank 4
    "K3": (K3, 4),
}


def reference_in_lattice(basis, vec):
    """The lattice test before ``intlinalg.coset``, verbatim."""
    v = list(map(int, vec))
    for row in basis:
        col = next(i for i, a in enumerate(row) if a != 0)
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def full_enumeration(coder, length):
    """The sweep's enumeration before pruning, verbatim: every nonempty
    freely reduced word of length <= length, depth first, with its abelian
    vector packed into one integer kept per prefix."""
    radix = 2 * length + 1
    step = {chr(c): sign * radix**pos for c, (pos, sign) in enumerate(coder.abelian)}
    inv = coder.inv
    codes = sorted(step, reverse=True)
    stack = [(c, step[c]) for c in codes] if length else []
    while stack:
        s, vec = stack.pop()
        yield s, vec
        if len(s) < length:
            back = inv[s[-1]]
            stack.extend([(s + c, vec + step[c]) for c in codes if c != back])


def filtered(coder, length):
    """The words that passed the sweep's two cheap rejections before
    pruning: cyclically reduced, then on the lattice (memoised per packed
    vector), in enumeration order."""
    inv = coder.inv
    lattice = {}
    for s, vec in full_enumeration(coder, length):
        if inv[s[0]] == s[-1]:
            continue
        ok = lattice.get(vec)
        if ok is None:
            ok = reference_in_lattice(coder.basis, coder.abelian_vector(s))
            lattice[vec] = ok
        if ok:
            yield s


CASES = [(name, pres, n) for name, (pres, top) in LATTICES.items() for n in range(top + 1)]
CASES += [("Z2", Z2, n) for n in range(11)]
CASES += [("Z3", Z3, n) for n in range(7)]


@pytest.mark.parametrize("name, pres, length", CASES,
                         ids=[f"{name}-{n}" for name, _, n in CASES])
def test_pruned_enumeration_yields_the_filtered_words(name, pres, length):
    """The same candidates in the same order; every word the full
    enumeration visits is either visited here (and counted once) or lies
    under a pruned prefix."""
    coder = oracle._coder(pres)
    counts = collections.Counter()
    assert list(oracle._reduced_words(coder, length, counts)) == list(filtered(coder, length))
    total = sum(1 for _ in full_enumeration(coder, length))
    assert counts["enumerated"] <= total
    assert (counts["pruned"] == 0) == (counts["enumerated"] == total)


def ball(n, radius):
    """Every integer vector of dimension n and L1 norm <= radius."""
    if n == 0:
        return [()]
    return [
        (a,) + rest
        for a in range(-radius, radius + 1)
        for rest in ball(n - 1, radius - abs(a))
    ]


@functools.lru_cache(maxsize=None)
def lattice_points(name, radius):
    coder = oracle._coder(LATTICES[name][0])
    n = len(coder.letters) // 2
    return [p for p in ball(n, radius) if reference_in_lattice(coder.basis, p)]


@st.composite
def walks(draw):
    """A presentation, a length and at most that many steps ±e_i, as
    (generator position, sign) pairs."""
    name = draw(st.sampled_from(sorted(LATTICES)))
    pres, top = LATTICES[name]
    length = draw(st.integers(0, top))
    n = len(pres.generators)
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
                          max_size=length))
    return name, length, steps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walks())
def test_lattice_distance_is_the_least_l1_distance(case):
    """Walking a vector's steps from coset 0 reaches a coset whose distance
    is the vector's least L1 distance to the lattice.  The vector is at
    most the length from the lattice point 0, so every nearer lattice point
    lies in the ball of twice the radius: the least is taken over those."""
    name, length, steps = case
    coder = oracle._coder(LATTICES[name][0])
    dist, moves = oracle._coset_graph(coder, length)
    vec = [0] * (len(coder.letters) // 2)
    k = 0
    for pos, sign in steps:
        vec[pos] += sign
        k = moves[k][chr(coder.abelian.index((pos, sign)))]
    want = min(
        sum(abs(a - b) for a, b in zip(vec, point))
        for point in lattice_points(name, 2 * length)
    )
    assert dist[k] == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(LATTICES)), st.data())
def test_coset_representatives_are_canonical(name, data):
    """v and v plus any combination of the basis rows have one
    representative, which is 0 exactly for the lattice's points."""
    basis = oracle._coder(LATTICES[name][0]).basis
    n = len(LATTICES[name][0].generators)
    small = st.integers(-4, 4)
    vec = data.draw(st.lists(small, min_size=n, max_size=n))
    factors = data.draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
    shifted = list(vec)
    for k, row in zip(factors, basis):
        shifted = [a + k * b for a, b in zip(shifted, row)]
    assert intlinalg.coset(basis, shifted) == intlinalg.coset(basis, vec)
    assert intlinalg.in_lattice(basis, vec) == reference_in_lattice(basis, vec)


def test_lattice_distance_past_the_radius():
    """The search creates no coset farther than the length, numbers the
    cosets in order of distance, and records the moves of exactly those
    nearer than the length; on Z² those are the points of the L1 balls."""
    for pres, length in LATTICES.values():
        coder = oracle._coder(pres)
        dist, moves = oracle._coset_graph(coder, length)
        assert dist[0] == 0 and dist == sorted(dist) and dist[-1] <= length
        assert len(moves) == sum(d < length for d in dist)
        assert all(len(row) == len(coder.letters) for row in moves)
    dist, moves = oracle._coset_graph(oracle._coder(Z2), 3)
    assert (len(dist), len(moves)) == (len(ball(2, 3)), len(ball(2, 2)))
