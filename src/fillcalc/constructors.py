"""Presentation and generating-set factories for subdirect products of free
groups: the standard kernels, basis adaptation for arbitrary surjections onto
free abelian groups, fiber-product generators and presentations, indexed
relator families from cyclic extensions, the fixed small presentations of the
rank-two three-factor kernels, amalgam witness words, and coabelian depth."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import intlinalg
from .intlinalg import NotSurjectiveError  # re-exported: raised by adapt_basis
from .oracle import DirectProductSpec
from .rewriting import GroupPresentation
from .seqbuild import WordEditor
from .words import (
    EMPTY,
    ChargeMap,
    Letter,
    Word,
    commutator,
    concat,
    conjugate,
    free_reduce,
    word,
    wpow,
)

__all__ = [
    "KnmrSpec",
    "NotSurjectiveError",
    "MissingChoiceWordsError",
    "ImagesNotMatchedError",
    "knmr_charge",
    "knmr_spec_ambient",
    "knmr_generators",
    "adapt_basis",
    "FiberGeneratorData",
    "fiber_generators",
    "PeifferData",
    "FiberPresentationInputs",
    "FiberPresentation",
    "fiber_presentation",
    "PositiveNormalFormData",
    "IndexedRelator",
    "cyclic_infinite_presentation",
    "k32_presentations",
    "k32_pnf_data",
    "k32_embedding",
    "k32_amalgam",
    "witness_word",
    "k32_witness",
    "depth_coabelian",
]


class MissingChoiceWordsError(ValueError):
    pass


class ImagesNotMatchedError(ValueError):
    pass


@dataclass(frozen=True)
class KnmrSpec:
    """The kernel of the standard surjection from a product of n rank-m free
    groups onto Z^r (generator j of every factor maps to the j-th basis
    vector for j <= r, and to zero above)."""

    n: int
    m: int
    r: int

    def __post_init__(self):
        if not (self.n >= 1 and self.m >= 1 and 1 <= self.r <= self.m):
            raise ValueError("need n, m >= 1 and 1 <= r <= m")

    def generator(self, j: int, i: int) -> str:
        return f"e{j}_{i}"


def knmr_charge(spec: KnmrSpec) -> ChargeMap:
    charges = {}
    for i in range(1, spec.n + 1):
        for j in range(1, spec.m + 1):
            vec = tuple(1 if j == t else 0 for t in range(1, spec.r + 1))
            charges[spec.generator(j, i)] = vec
    return ChargeMap(spec.r, charges)


def knmr_spec_ambient(spec: KnmrSpec) -> DirectProductSpec:
    factors = [
        [spec.generator(j, i) for j in range(1, spec.m + 1)]
        for i in range(1, spec.n + 1)
    ]
    return DirectProductSpec(factors, knmr_charge(spec))


def knmr_generators(spec: KnmrSpec) -> List[Word]:
    """Generating set of the kernel: matched leading generators across the
    factors, the chargeless generators, and, with only two factors, the
    leading commutators of the first factor."""
    if spec.n < 2:
        raise ValueError("the kernel is generated this way only for n >= 2")
    gens: List[Word] = []
    for i in range(1, spec.r + 1):
        for k in range(2, spec.n + 1):
            gens.append(
                concat(
                    word(spec.generator(i, 1)),
                    word(spec.generator(i, k)).inverse(),
                )
            )
    for i in range(spec.r + 1, spec.m + 1):
        for k in range(1, spec.n + 1):
            gens.append(word(spec.generator(i, k)))
    if spec.n == 2:
        for i in range(1, spec.r + 1):
            for j in range(i + 1, spec.r + 1):
                gens.append(
                    commutator(word(spec.generator(i, 1)), word(spec.generator(j, 1)))
                )
    return gens


def adapt_basis(phi: Sequence[Sequence[int]]) -> List[List[int]]:
    """An integer basis change B (|det B| = 1) with phi B = [I_r | 0]: the
    images of the new basis are the standard basis vectors, then zero."""
    return intlinalg.column_adapt(phi)


@dataclass(frozen=True)
class FiberGeneratorData:
    """Inputs for the fiber-product generating set: generator charges on both
    sides (ChargeMap-style homomorphisms to Z^q), lifts of the image basis
    into the second side, and kernel words generating ker p2 together with
    the lifts."""

    p1: ChargeMap
    p2: ChargeMap
    lifts2: Mapping[Tuple[int, ...], Word]
    kernel2: Sequence[Word]
    q_relators: Sequence[Word] = ()
    q_generators: Sequence[str] = ()
    lifts1: Mapping[str, str] = field(default_factory=dict)


def fiber_generators(data: FiberGeneratorData) -> Dict[str, List[Word]]:
    """Generators of the fiber product of p1 and p2 inside the product of the
    two sides, as words over the combined alphabet: matched generator pairs,
    kernel letters of the second side, and relators of the image group
    evaluated on first-side lifts."""
    matched: List[Word] = []
    for gen in sorted(data.p1.charges):
        image = data.p1.charges[gen]
        if not any(image):
            matched.append(word(gen))
            continue
        lift = data.lifts2.get(image)
        if lift is None:
            raise ImagesNotMatchedError(
                f"no second-side lift supplied for image {image} of {gen!r}"
            )
        matched.append(concat(word(gen), lift))
    kernel = [w for w in data.kernel2]
    relator_words: List[Word] = []
    for rel in data.q_relators:
        letters: List[Letter] = []
        for let in rel:
            target = data.lifts1.get(let.gen)
            if target is None:
                raise MissingChoiceWordsError(
                    f"no first-side lift for image generator {let.gen!r}"
                )
            letters.append(Letter(target, let.sign))
        relator_words.append(Word(letters))
    return {"matched": matched, "kernel": kernel, "relators": relator_words}


@dataclass(frozen=True)
class PeifferData:
    """Generators of the second homotopy of the image group's presentation,
    given as identity sequences together with their resolved kernel words."""

    sequences: Tuple[Tuple[Tuple[Word, int], ...], ...]
    z_words: Tuple[Word, ...]

    def validate(self, q_pres: GroupPresentation) -> None:
        for seq in self.sequences:
            parts = []
            for u, rel in seq:
                parts.append(conjugate(q_pres.relators[rel], u))
            if len(free_reduce(concat(*parts) if parts else EMPTY)):
                raise ValueError("identity sequence is not freely trivial")


def _substitute(w: Word, table: Mapping[str, str]) -> Word:
    return Word(tuple(Letter(table[let.gen], let.sign) for let in w))


def _check_over(where: str, words: Iterable[Word], alphabet: Iterable[str],
                named: str) -> None:
    """A ValueError naming the field and the generator when one of the
    words uses a generator outside the alphabet."""
    allowed = set(alphabet)
    for w in words:
        for let in w:
            if let.gen not in allowed:
                raise ValueError(f"{where}: generator {let.gen!r} is not in {named}")


@dataclass(frozen=True)
class FiberPresentationInputs:
    """The data feeding the fiber-product presentation: ordered generators of
    the first side split into kernel letters and image lifts, its relator
    families, the second side's presentation, and choice words expressing
    second-side relators in first-side kernel letters."""

    a1: Tuple[str, ...]  # kernel generators of the first side
    x1: Tuple[str, ...]  # image-lift generators of the first side
    r1: Tuple[Word, ...]  # conjugation relators over a1 and x1
    r2: Tuple[Word, ...]  # image relators rewritten into kernel words, over a1, x1
    r3: Tuple[Word, ...]  # kernel-only relators over a1
    a2: Tuple[str, ...]  # complementary generators of the second side
    x2: Tuple[str, ...]  # image lifts of the second side, matched with x1
    r4: Tuple[Word, ...]  # relators of the second side over a2 and x2
    w_r4: Optional[Tuple[Word, ...]] = None  # choice words over a1, one per r4

    def __post_init__(self):
        if self.w_r4 is not None and len(self.w_r4) != len(self.r4):
            raise ValueError(f"fields 'r4' and 'w_r4' need one choice word per relator, "
                             f"not {len(self.r4)} relators and {len(self.w_r4)} words")
        first, second = (*self.a1, *self.x1), (*self.a2, *self.x2)
        _check_over("field 'r1'", self.r1, first, "a1 + x1")
        _check_over("field 'r2'", self.r2, first, "a1 + x1")
        _check_over("field 'r3'", self.r3, self.a1, "a1")
        _check_over("field 'w_r4'", self.w_r4 or (), self.a1, "a1")
        _check_over("field 'r4'", self.r4, second, "a2 + x2")


@dataclass(frozen=True)
class FiberPresentation:
    presentation: GroupPresentation
    families: Dict[str, Tuple[Word, ...]]
    complete: bool


def fiber_presentation(
    inputs: FiberPresentationInputs, peiffer: Optional[PeifferData] = None
) -> FiberPresentation:
    """Mechanical assembly of the fiber-product presentation's relator
    families; the last family needs second-homotopy generators, so without
    them the result is flagged incomplete."""
    if len(inputs.x1) != len(inputs.x2):
        raise ValueError("image lifts of the two sides must be matched")
    xbar = {x: f"p_{x}" for x in inputs.x1}
    a1bar = {a: f"l_{a}" for a in inputs.a1}
    a2bar = {a: f"r_{a}" for a in inputs.a2}
    table1 = {**xbar, **a1bar}
    table2 = {x2: xbar[x1] for x1, x2 in zip(inputs.x1, inputs.x2)}
    table2.update(a2bar)
    generators = tuple(xbar.values()) + tuple(a1bar.values()) + tuple(a2bar.values())
    s1 = tuple(
        commutator(word(a1bar[a]), word(a2bar[b]))
        for a in inputs.a1
        for b in inputs.a2
    )
    s2 = tuple(_substitute(r, table1) for r in inputs.r1)
    s3 = tuple(_substitute(r, a1bar) for r in inputs.r3)
    s4 = tuple(
        commutator(_substitute(r, table1), word(a1bar[a]))
        for r in inputs.r2
        for a in inputs.a1
    )
    if inputs.r4 and inputs.w_r4 is None:
        raise MissingChoiceWordsError(
            "second-side relators need choice words over the kernel letters"
        )
    s5 = tuple(
        concat(_substitute(r, table2), _substitute(w, a1bar).inverse())
        for r, w in zip(inputs.r4, inputs.w_r4 or ())
    )
    families = {"s1": s1, "s2": s2, "s3": s3, "s4": s4, "s5": s5}
    complete = peiffer is not None
    if peiffer is not None:
        _check_over("field 'z_words'", peiffer.z_words, inputs.a1, "a1")
        families["s6"] = tuple(_substitute(z, a1bar) for z in peiffer.z_words)
    relators = tuple(itertools.chain.from_iterable(families.values()))
    return FiberPresentation(
        GroupPresentation(generators, relators), families, complete
    )


@dataclass(frozen=True)
class PositiveNormalFormData:
    """A cyclic-extension presentation in positive normal form: a base
    presentation, a stable letter, and one positive (optionally negative)
    conjugation word per base generator."""

    base: GroupPresentation
    stable: str
    w_plus: Mapping[str, Word]
    w_minus: Optional[Mapping[str, Word]] = None

    def __post_init__(self):
        for gen in self.base.generators:
            if gen not in self.w_plus:
                raise ValueError(f"missing positive conjugation word for {gen!r}")
            if self.w_minus is not None and gen not in self.w_minus:
                raise ValueError(f"missing negative conjugation word for {gen!r}")
        for name, table in (("w_plus", self.w_plus), ("w_minus", self.w_minus or {})):
            for gen, image in table.items():
                _check_over(f"field {name!r} image of {gen!r}", (image,),
                            self.base.generators, "the base generators")

    def shift(self, w: Word, k: int) -> Word:
        """The k-fold substitution lift of the conjugation automorphism."""
        if k == 0:
            return w
        table = self.w_plus if k > 0 else self.w_minus
        if table is None:
            raise MissingChoiceWordsError(
                "negative indices need the negative conjugation words"
            )
        out = w
        for _ in range(abs(k)):
            letters: List[Letter] = []
            for let in out:
                image = table[let.gen]
                letters.extend(
                    (image if let.sign > 0 else image.inverse()).letters
                )
            out = Word(letters)
        return out


@dataclass(frozen=True)
class IndexedRelator:
    word: Word
    index: int
    family: str  # "base" (shifted base relator) or "stable" (shift mismatch)
    parameter: Tuple[str, int] | Tuple[int, int]

    @staticmethod
    def minimal(members: Iterable["IndexedRelator"]) -> List["IndexedRelator"]:
        """One member per word, the first of least index, sorted by index and
        then by word."""
        best: Dict[Word, IndexedRelator] = {}
        for ir in members:
            old = best.get(ir.word)
            if old is None or ir.index < old.index:
                best[ir.word] = ir
        return sorted(best.values(), key=lambda ir: (ir.index, str(ir.word)))

    @staticmethod
    def families(
        relators: Sequence[Word],
        conjugation_words: Mapping[str, Word],
        shift: Callable[[Word, int], Word],
        index_bound: int,
    ) -> List["IndexedRelator"]:
        """The two relator families of a cyclic extension for |k| up to the
        bound, as ``minimal`` keeps them: each relator shifted k times, and
        for each generator g with conjugation word w_g, in the mapping's
        order, the shift mismatch shift(g, k + 1) shift(w_g, k)^-1."""
        if index_bound < 0:
            raise ValueError("index bound must be nonnegative")
        members: List[IndexedRelator] = []
        for k in range(-index_bound, index_bound + 1):
            for ridx, rel in enumerate(relators):
                members.append(IndexedRelator(shift(rel, k), abs(k), "base", (ridx, k)))
            for gen, w in conjugation_words.items():
                g = Word((Letter(gen, 1),))
                target = concat(shift(g, k + 1), shift(w, k).inverse())
                members.append(IndexedRelator(target, abs(k), "stable", (gen, k)))
        return IndexedRelator.minimal(members)


def cyclic_infinite_presentation(
    data: PositiveNormalFormData, index_bound: int
) -> List[IndexedRelator]:
    """All members of the infinite kernel presentation's two relator families
    with index at most the bound, tagged with their family and minimal index.

    The families are the shifted base relators and the one-step shift
    mismatches; negative shifts require the negative conjugation words.
    """
    if index_bound >= 1 and data.w_minus is None:
        raise MissingChoiceWordsError(
            "negative indices need the negative conjugation words"
        )
    w_plus = {gen: data.w_plus[gen] for gen in data.base.generators}
    return IndexedRelator.families(data.base.relators, w_plus, data.shift, index_bound)


# ---------------------------------------------------------------------------
# the rank-two, three-factor kernel


def _k32_words():
    a1, a2, b1, b2 = word("a1"), word("a2"), word("b1"), word("b2")
    return a1, a2, b1, b2


def k32_presentations() -> Dict[str, GroupPresentation]:
    """The five fixed finite presentations: three of the corank-one kernel
    (with the stable letter) and two of the corank-two kernel."""
    a1, a2, b1, b2 = _k32_words()
    t = word("t")
    y1, y2, y3 = word("y1"), word("y2"), word("y3")

    base_relators = (
        commutator(a1, a2),
        commutator(b1, b2),
        concat(commutator(a1, b2), commutator(a2, b1).inverse()),
        concat(commutator(a1.inverse(), b2), commutator(a2.inverse(), b1).inverse()),
        concat(commutator(a1, b2.inverse()), commutator(a2, b1.inverse()).inverse()),
        concat(
            commutator(a1.inverse(), b2.inverse()),
            commutator(a2.inverse(), b1.inverse()).inverse(),
        ),
    )
    q1 = GroupPresentation(("a1", "a2", "b1", "b2"), base_relators)

    r2 = (
        commutator(a1, a2),
        commutator(b1, b2),
        commutator(conjugate(b2, a1), concat(b2.inverse(), b1)),
        commutator(conjugate(b2, a1.inverse()), concat(b2.inverse(), b1)),
        commutator(conjugate(a2, b1), concat(a2.inverse(), a1)),
        commutator(conjugate(a2, b1.inverse()), concat(a2.inverse(), a1)),
        concat(commutator(a1, b2), commutator(a2, b1).inverse()),
    )
    q2 = GroupPresentation(("a1", "a2", "b1", "b2"), r2)

    p1 = GroupPresentation(
        ("a1", "a2", "y1", "y2", "y3"),
        (
            commutator(a1, a2),
            commutator(y1, y2),
            commutator(y1, y3),
            commutator(y2, y3),
            commutator(a1, y3),
            commutator(a2, y2),
            commutator(concat(a1.inverse(), a2), y1),
        ),
    )
    p2 = GroupPresentation(
        ("a1", "a2", "b1", "b2", "t"),
        (
            commutator(a1, a2),
            commutator(b1, b2),
            commutator(t, b1),
            commutator(t, b2),
            commutator(a1, concat(t, b2.inverse())),
            commutator(a2, concat(t, b1.inverse())),
            commutator(concat(a1.inverse(), a2), t),
        ),
    )
    p3 = GroupPresentation(
        ("a1", "a2", "b1", "b2", "t"),
        base_relators
        + (
            commutator(t, b1),
            commutator(t, b2),
            concat(conjugate(a1, t), conjugate(a1, b2).inverse()),
            concat(conjugate(a2, t), conjugate(a2, b1).inverse()),
        ),
    )
    return {"p1": p1, "p2": p2, "p3": p3, "q1": q1, "q2": q2}


def k32_pnf_data() -> PositiveNormalFormData:
    """Positive normal form of the corank-one kernel over the corank-two
    kernel's generators, with both conjugation-word tables."""
    a1, a2, b1, b2 = _k32_words()
    return PositiveNormalFormData(
        base=k32_presentations()["q1"],
        stable="t",
        w_plus={
            "a1": conjugate(a1, b2),
            "a2": conjugate(a2, b1),
            "b1": b1,
            "b2": b2,
        },
        w_minus={
            "a1": conjugate(a1, b2.inverse()),
            "a2": conjugate(a2, b1.inverse()),
            "b1": b1,
            "b2": b2,
        },
    )


def k32_embedding() -> Dict[str, Word]:
    """The corank-two kernel's generators as words in the ambient product of
    three rank-two free groups (with the stable letter for the corank-one
    kernel included)."""
    return {
        "a1": word("e1_1 e1_2'"),
        "a2": word("e1_1 e1_3'"),
        "b1": word("e2_1 e2_2'"),
        "b2": word("e2_1 e2_3'"),
        "t": word("e2_1"),
    }


def witness_word(w: Word, u: Word, v: Word, n: int) -> Word:
    """The amalgam lower-bound witness: the commutator of w with (u v)^n."""
    return commutator(w, wpow(concat(u, v), n))


@dataclass(frozen=True)
class K32Amalgam:
    """A concrete finite sub-presentation of the corank-two kernel seen as an
    amalgam of two copies of the corank-one two-factor kernel: generating
    letters of the two sides plus the amalgamated subgroup's letters, with
    piece relators in single-side letters and one defining word per subgroup
    letter on each side."""

    presentation: GroupPresentation
    side1: Tuple[str, ...]
    side2: Tuple[str, ...]
    middle: Tuple[str, ...]
    middle_words: Dict[str, Word]  # subgroup letters as ambient two-factor words


def k32_amalgam() -> K32Amalgam:
    # side 1 letters: a = x1 x2^-1, b = y1, c = y2
    # side 2 letters: d = x1, e = x2, f = y1 y2^-1
    # middle letters: p = x1 x2^-1, q = y1 y2^-1, s = [x1, y1]
    a, b, c = word("a"), word("b"), word("c")
    d, e, f = word("d"), word("e"), word("f")
    p, q, s = word("p"), word("q"), word("s")
    relators = (
        # piece relators, true in the respective two-factor kernels
        commutator(b, c),
        commutator(commutator(a, b), c),
        commutator(d, e),
        commutator(commutator(d, f), e),
        # subgroup letters rewritten into each side
        concat(p, a.inverse()),
        concat(p, concat(d, e.inverse()).inverse()),
        concat(q, concat(b, c.inverse()).inverse()),
        concat(q, f.inverse()),
        concat(s, commutator(a, b).inverse()),
        concat(s, commutator(d, f).inverse()),
    )
    pres = GroupPresentation(("a", "b", "c", "d", "e", "f", "p", "q", "s"), relators)
    middle_words = {
        "p": word("x1 x2'"),
        "q": word("y1 y2'"),
        "s": commutator(word("x1"), word("y1")),
    }
    return K32Amalgam(
        pres, ("a", "b", "c"), ("d", "e", "f"), ("p", "q", "s"), middle_words
    )


def k32_witness(l: int, n: int) -> Word:
    """The lower-bound witness over the amalgam letters: the commutator of
    w_l = [a^l, b^l] with (c e)^n."""
    w = commutator(wpow(word("a"), l), wpow(word("b"), l))
    return witness_word(w, word("c"), word("e"), n)


def k32_witness_ambient(l: int, n: int) -> Word:
    """The same witness spelled in the ambient two-factor product (length
    16 l when n = l)."""
    w = commutator(wpow(word("x1 x2'"), l), wpow(word("y1"), l))
    return witness_word(w, word("y2"), word("x2"), n)


def k32_witness_filling(n: int):
    """An explicit filling of the l = 1 witness over the amalgam: convert the
    commutator block to the subgroup letter, walk it through the (c e)^n
    power one crossing at a time (each crossing re-expresses it on the right
    side), and cancel.  Area 6n + 2."""
    am = k32_amalgam()
    editor = WordEditor(am.presentation, k32_witness(1, n))
    u_s = word("a b a' b'")
    v_s = word("d f d' f'")
    editor.relator(0, u_s, word("s"))
    pos = 0
    for _ in range(2 * n):
        nxt = editor.letters[pos + 1]
        side = u_s if nxt.gen == "c" else v_s
        editor.relator(pos, word("s"), side)
        editor.relator(pos, concat(side, Word((nxt,))), concat(Word((nxt,)), side))
        editor.relator(pos + 1, side, word("s"))
        pos += 1
    editor.relator(pos + 1, u_s.inverse(), word("s'"))
    editor.free_to(EMPTY)
    return editor.sequence()


def depth_coabelian(spec: DirectProductSpec) -> int:
    """Depth of the kernel of the charge map: the least k such that every k
    of the factors carry charges spanning full rank over the rationals."""
    theta = spec.theta
    if theta is None:
        raise ValueError("depth needs a charge map")
    n = spec.n_factors
    r = theta.rank
    vectors = [
        [list(theta.charges[g]) for g in alphabet] for alphabet in spec.factors
    ]
    for k in range(0, n + 1):
        if all(
            intlinalg.rank([v for i in subset for v in vectors[i]]) == r
            for subset in itertools.combinations(range(n), k)
        ):
            return k
    return n
