import dataclasses
import itertools
import random

import pytest

from fillcalc import intlinalg
from fillcalc.constructors import (
    FiberGeneratorData,
    FiberPresentationInputs,
    ImagesNotMatchedError,
    KnmrSpec,
    MissingChoiceWordsError,
    NotSurjectiveError,
    PeifferData,
    adapt_basis,
    cyclic_infinite_presentation,
    depth_coabelian,
    fiber_generators,
    fiber_presentation,
    k32_amalgam,
    k32_embedding,
    k32_pnf_data,
    k32_presentations,
    k32_witness,
    knmr_charge,
    knmr_generators,
    knmr_spec_ambient,
    witness_word,
)
from fillcalc.oracle import (
    DirectProductSpec,
    SearchBudget,
    area_exact,
    dp_equal,
    find_filling,
)
from fillcalc.rewriting import GroupPresentation
from fillcalc.words import (
    EMPTY,
    ChargeMap,
    Word,
    charge,
    commutator,
    concat,
    free_reduce,
    word,
    wpow,
)


def test_knmr_charge_values():
    theta = knmr_charge(KnmrSpec(3, 2, 1))
    assert theta.charges["e1_2"] == (1,)
    assert theta.charges["e2_2"] == (0,)
    theta2 = knmr_charge(KnmrSpec(3, 2, 2))
    assert theta2.charges["e1_2"] == (1, 0)
    assert theta2.charges["e2_3"] == (0, 1)


def test_knmr_charge_balanced_word():
    theta = knmr_charge(KnmrSpec(3, 2, 1))
    w = word("e1_1 e1_2' e1_3 e1_1' e1_2 e1_3'")
    assert charge(theta, w) == (0,)


def test_knmr_generators_sizes():
    assert len(knmr_generators(KnmrSpec(3, 2, 2))) == 4
    gens221 = knmr_generators(KnmrSpec(2, 2, 1))
    assert len(gens221) == 3  # one matched pair, two chargeless generators
    gens222 = knmr_generators(KnmrSpec(2, 2, 2))
    assert len(gens222) == 3  # two matched pairs and one leading commutator


def test_knmr_generators_have_zero_charge():
    for spec in (KnmrSpec(3, 2, 1), KnmrSpec(3, 2, 2), KnmrSpec(2, 3, 2)):
        theta = knmr_charge(spec)
        for g in knmr_generators(spec):
            assert charge(theta, g) == (0,) * spec.r


def test_adapt_basis_identity():
    assert adapt_basis([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "phi",
    [
        [[1, 1]],
        [[2, 1]],
        [[3, 5]],
        [[1, 0, 2], [0, 1, 7]],
        [[2, 3, 1], [1, 1, 1]],
    ],
)
def test_adapt_basis_produces_unimodular_solution(phi):
    b = adapt_basis(phi)
    m = len(phi[0])
    r = len(phi)
    prod = intlinalg.matmul(phi, b)
    expected = [[1 if i == j else 0 for j in range(m)] for i in range(r)]
    assert prod == expected
    assert abs(intlinalg.det_int(b)) == 1


def test_adapt_basis_rejects_nonsurjective():
    with pytest.raises(NotSurjectiveError):
        adapt_basis([[2, 4]])
    with pytest.raises(NotSurjectiveError):
        adapt_basis([[0, 0]])


def test_adapt_basis_randomized_against_check():
    rng = random.Random(5)
    done = 0
    while done < 50:
        r = rng.randrange(1, 3)
        m = rng.randrange(r, 4)
        phi = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        try:
            b = adapt_basis(phi)
        except NotSurjectiveError:
            # cross-check: the lattice spanned by the columns misses a unit
            cols = [[row[j] for row in phi] for j in range(m)]
            basis = intlinalg.hermite_rows(cols)
            units = [
                [1 if i == t else 0 for i in range(r)] for t in range(r)
            ]
            assert not all(intlinalg.in_lattice(basis, u) for u in units)
            continue
        prod = intlinalg.matmul(phi, b)
        assert prod == [
            [1 if i == j else 0 for j in range(m)] for i in range(r)
        ]
        assert abs(intlinalg.det_int(b)) == 1
        done += 1


def _abelianization_fiber_data():
    # both sides the rank-two free group mapping onto the integers
    p1 = ChargeMap(1, {"u1": (1,), "v1": (1,)})
    p2 = ChargeMap(1, {"u2": (1,), "v2": (1,)})
    return FiberGeneratorData(
        p1=p1,
        p2=p2,
        lifts2={(1,): word("u2'")},
        kernel2=[word("u2 v2'")],
        q_relators=(),
        q_generators=("t1",),
        lifts1={"t1": "u1"},
    )


def test_fiber_generators_abelianization():
    out = fiber_generators(_abelianization_fiber_data())
    assert [str(w) for w in out["matched"]] == ["u1 u2'", "v1 u2'"]
    assert [str(w) for w in out["kernel"]] == ["u2 v2'"]
    assert out["relators"] == []


def test_fiber_generators_lift_the_image_relators():
    data = dataclasses.replace(
        _abelianization_fiber_data(), q_relators=(word("t1 t2 t1' t2'"),),
        q_generators=("t1", "t2"), lifts1={"t1": "u1", "t2": "v1"})
    assert fiber_generators(data)["relators"] == [word("u1 v1 u1' v1'")]
    no_lift = dataclasses.replace(data, lifts1={"t1": "u1"})
    with pytest.raises(MissingChoiceWordsError, match="image generator 't2'"):
        fiber_generators(no_lift)


def test_fiber_generators_missing_lift():
    data = _abelianization_fiber_data()
    bad = FiberGeneratorData(
        p1=ChargeMap(1, {"u1": (2,)}),
        p2=data.p2,
        lifts2=data.lifts2,
        kernel2=data.kernel2,
    )
    with pytest.raises(ImagesNotMatchedError):
        fiber_generators(bad)


def test_fiber_generators_kernel_charges():
    # the kernel of the standard three-factor map, as a fiber product of the
    # first factor against the remaining two
    data = FiberGeneratorData(
        p1=ChargeMap(1, {"e1_1": (1,), "e2_1": (0,)}),
        p2=ChargeMap(1, {"e1_2": (-1,), "e2_2": (0,), "e1_3": (-1,), "e2_3": (0,)}),
        lifts2={(1,): word("e1_2'")},
        kernel2=[word("e2_2"), word("e2_3"), word("e1_2 e1_3'")],
    )
    out = fiber_generators(data)
    theta = knmr_charge(KnmrSpec(3, 2, 1))
    for group in out.values():
        for w in group:
            assert charge(theta, w) == (0,)


def test_fiber_presentation_counts():
    inputs = FiberPresentationInputs(
        a1=("a", "b"),
        x1=("x",),
        r1=(word("x a x' a'"),),
        r2=(word("x x a'"),),
        r3=(word("a b a' b'"),),
        a2=("c",),
        x2=("z",),
        r4=(word("z c z' c'"),),
        w_r4=(word("a"),),
    )
    out = fiber_presentation(inputs)
    assert not out.complete
    assert len(out.families["s1"]) == len(inputs.a1) * len(inputs.a2)
    assert len(out.families["s2"]) == len(inputs.r1)
    assert len(out.families["s3"]) == len(inputs.r3)
    assert len(out.families["s4"]) == len(inputs.r2) * len(inputs.a1)
    assert len(out.families["s5"]) == len(inputs.r4)
    assert "s6" not in out.families


def test_fiber_presentation_empty_inputs_only_commutators():
    inputs = FiberPresentationInputs(
        a1=("a",), x1=(), r1=(), r2=(), r3=(), a2=("c",), x2=(), r4=()
    )
    out = fiber_presentation(inputs)
    rels = out.presentation.relators
    assert len(rels) == 1
    assert str(rels[0]) == "l_a r_c l_a' r_c'"


def test_fiber_presentation_missing_choice_words():
    inputs = FiberPresentationInputs(
        a1=("a",), x1=(), r1=(), r2=(), r3=(), a2=("c",), x2=(),
        r4=(word("c c"),),
    )
    with pytest.raises(MissingChoiceWordsError):
        fiber_presentation(inputs)


def test_peiffer_words_keep_to_a1():
    inputs = FiberPresentationInputs(
        a1=("a",), x1=(), r1=(), r2=(), r3=(), a2=("c",), x2=(), r4=()
    )
    peiffer = PeifferData(sequences=(), z_words=(word("a c"),))
    with pytest.raises(ValueError, match="field 'z_words': generator 'c' is not in a1"):
        fiber_presentation(inputs, peiffer)


def test_fiber_presentation_with_peiffer():
    q = GroupPresentation(("t",), (word("t t"),))
    peiffer = PeifferData(
        sequences=(((word("t"), 0), (word("1"), 0)),),
        z_words=(word("a a"),),
    )
    with pytest.raises(ValueError):
        peiffer.validate(q)  # t(tt)t' (tt) is not freely trivial
    ok = PeifferData(
        sequences=(((word("1"), 0), (word("1"), 0)),),
        z_words=(word("a a"),),
    )
    with pytest.raises(ValueError):
        ok.validate(q)
    inputs = FiberPresentationInputs(
        a1=("a",), x1=(), r1=(), r2=(), r3=(), a2=("c",), x2=(), r4=()
    )
    out = fiber_presentation(inputs, peiffer=ok)
    assert out.complete
    assert len(out.families["s6"]) == 1


def test_k32_presentation_shapes():
    pres = k32_presentations()
    assert len(pres["q1"].relators) == 6
    assert len(pres["q2"].relators) == 7
    assert len(pres["p1"].relators) == 7
    assert len(pres["p2"].relators) == 7
    assert len(pres["p3"].relators) == 10


def test_k32_relators_have_zero_charge_in_ambient():
    theta = knmr_charge(KnmrSpec(3, 2, 2))
    table = k32_embedding()

    def embed(w):
        letters = []
        for let in w:
            image = table[let.gen]
            letters.extend((image if let.sign > 0 else image.inverse()).letters)
        return Word(letters)

    for name in ("q1", "q2"):
        for rel in k32_presentations()[name].relators:
            assert charge(theta, embed(rel)) == (0, 0)
            # and the relators are trivial in the ambient product
            spec = knmr_spec_ambient(KnmrSpec(3, 2, 2))
            assert dp_equal(spec, embed(rel), EMPTY)


def test_k32_pnf_shift_example():
    data = k32_pnf_data()
    a1, b2 = word("a1"), word("b2")
    assert data.shift(a1, 1) == word("b2 a1 b2'")
    assert data.shift(a1, -1) == word("b2' a1 b2")
    assert data.shift(b2, 5) == b2
    # stable-family member at index zero for the first generator
    fams = cyclic_infinite_presentation(data, 0)
    stable0 = [
        ir for ir in fams if ir.family == "stable" and ir.parameter == ("a1", 0)
    ]
    assert len(stable0) == 1
    assert stable0[0].word == concat(word("b2 a1 b2'"), word("b2 a1 b2'").inverse())


def test_cyclic_infinite_presentation_indices():
    data = k32_pnf_data()
    members = cyclic_infinite_presentation(data, 1)
    assert all(ir.index <= 1 for ir in members)
    assert any(ir.index == 1 for ir in members)
    with pytest.raises(MissingChoiceWordsError):
        cyclic_infinite_presentation(
            k32_pnf_data().__class__(
                base=k32_presentations()["q1"],
                stable="t",
                w_plus=k32_pnf_data().w_plus,
            ),
            1,
        )


def test_cyclic_members_are_null_homotopic_in_ambient():
    # members should be trivial in the ambient product under the embedding
    data = k32_pnf_data()
    table = k32_embedding()
    spec = knmr_spec_ambient(KnmrSpec(3, 2, 2))

    def embed(w):
        letters = []
        for let in w:
            image = table[let.gen]
            letters.extend((image if let.sign > 0 else image.inverse()).letters)
        return Word(letters)

    for ir in cyclic_infinite_presentation(data, 1):
        assert dp_equal(spec, embed(ir.word), EMPTY)


def test_witness_word_shapes():
    from fillcalc.constructors import k32_witness_ambient

    w = word("a b a' b'")
    assert witness_word(w, word("c"), word("e"), 0) == concat(w, w.inverse())
    assert free_reduce(witness_word(w, word("c"), word("e"), 0)) == EMPTY
    assert len(k32_witness_ambient(1, 1)) == 16
    assert len(k32_witness_ambient(2, 2)) == 32
    assert len(k32_witness(1, 1)) == 12  # the amalgam-letter spelling


def test_k32_amalgam_piece_relators_hold():
    # the piece relators are true in the corresponding two-factor kernels
    spec = DirectProductSpec(
        (("x1", "y1"), ("x2", "y2")),
        ChargeMap(1, {"x1": (1,), "y1": (0,), "x2": (1,), "y2": (0,)}),
    )
    side1 = {"a": word("x1 x2'"), "b": word("y1"), "c": word("y2")}
    side2 = {"d": word("x1"), "e": word("x2"), "f": word("y1 y2'")}
    both = {**side1, **side2, **k32_amalgam().middle_words}

    def embed(w):
        letters = []
        for let in w:
            image = both[let.gen]
            letters.extend((image if let.sign > 0 else image.inverse()).letters)
        return Word(letters)

    for rel in k32_amalgam().presentation.relators:
        assert dp_equal(spec, embed(rel), EMPTY)


def test_depth_examples():
    # trivial charge: the kernel is everything
    spec = DirectProductSpec(
        (("a",), ("b",)), ChargeMap(0, {"a": (), "b": ()})
    )
    assert depth_coabelian(spec) == 0
    # the standard three-factor kernel has depth one
    assert depth_coabelian(knmr_spec_ambient(KnmrSpec(3, 2, 1))) == 1
    assert depth_coabelian(knmr_spec_ambient(KnmrSpec(3, 2, 2))) == 1
    # killing one factor pushes the depth up
    theta = ChargeMap(1, {"a": (1,), "b": (0,)})
    spec = DirectProductSpec((("a",), ("b",)), theta)
    assert depth_coabelian(spec) == 2


def test_depth_monotone_against_bruteforce():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(2, 5)
        r = rng.randrange(1, 3)
        charges = {}
        factors = []
        for i in range(n):
            gens = [f"g{i}_{j}" for j in range(rng.randrange(1, 3))]
            factors.append(gens)
            for g in gens:
                charges[g] = tuple(rng.randint(-2, 2) for _ in range(r))
        spec = DirectProductSpec(factors, ChargeMap(r, charges))
        got = depth_coabelian(spec)

        def full(subset):
            rows = [charges[g] for i in subset for g in factors[i]]
            return intlinalg.rank(rows) == r

        brute = n
        for k in range(0, n + 1):
            if all(full(s) for s in itertools.combinations(range(n), k)):
                brute = k
                break
        assert got == brute
