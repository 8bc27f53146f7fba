"""Height-reduction machinery over direct products of free groups.

The pulling-down map sends a word to one representing the same conjugated
element but with height at most one in a chosen direction.  Letter and word
conversion sequences, flat fillings of the commutator relators, expression
pulldown and flattening, and the base filling are all emitted as replayable
derivation sequences or filling expressions, and every stated cost bound is
checked against the replayed measurement in the tests rather than assumed.

Also contains the closed-form bound calculators used to assemble
isoperimetric functions, with a tiny expression grammar for the CLI.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .constructors import KnmrSpec, knmr_spec_ambient
from .oracle import DirectProductSpec, NotNullHomotopicError, dp_equal
from .rewriting import (
    DerivationSequence,
    FillingExpression,
    GroupPresentation,
    InternalCheckError,
    invert_sequence,
    reverse_sequence,
    sequence_to_expression,
)
from .seqbuild import WordEditor
from .words import (
    EMPTY,
    Letter,
    Word,
    charge,
    commutator,
    concat,
    freely_equal,
    heights,
    wpow,
)

__all__ = [
    "PulldownContext",
    "standard_context",
    "DirectionRangeError",
    "TooFewFactorsError",
    "NonzeroChargeError",
    "UnsupportedRelatorError",
    "phi",
    "check_phi_properties",
    "flatten_word",
    "letter_conjugation_sequence",
    "conjugation_scheme",
    "relator_filling",
    "relator_filling_bounds",
    "pulldown_expression",
    "flatten_expression",
    "base_filling",
    "BoundExpr",
    "parse_bound",
    "BOUND_INPUTS",
    "compose_bounds",
]


class DirectionRangeError(ValueError):
    pass


class TooFewFactorsError(ValueError):
    pass


class NonzeroChargeError(ValueError):
    pass


class UnsupportedRelatorError(ValueError):
    pass


class PulldownContext:
    """A direct product of free groups with a charge map whose k-th unit
    direction is carried by the k-th generator of every factor; all other
    generators have zero charge.  The distinguished letters of the first
    three factors drive the pulling-down formulas.

    A context is read-only after construction.  Its three tables are filled
    on first use and shared by every later call: keyed by (direction,
    letter, level), each letter's pulled-down letters with its charge step
    (``phi``) and its conversion sequence (``conjugation_scheme``); keyed by
    (direction, relator, sign, height), each relator filling's expression
    (``pulldown_expression``)."""

    def __init__(self, spec: DirectProductSpec):
        if spec.theta is None:
            raise ValueError("context needs a charge map")
        if spec.n_factors < 2:
            raise TooFewFactorsError("need at least two factors")
        theta = spec.theta
        r = theta.rank
        for alphabet in spec.factors:
            if len(alphabet) < r:
                raise ValueError("every factor needs one generator per direction")
            for k in range(r):
                unit = tuple(1 if i == k else 0 for i in range(r))
                if theta.charges[alphabet[k]] != unit:
                    raise ValueError(
                        f"generator {alphabet[k]!r} must carry unit charge {k + 1}"
                    )
            for gen in alphabet[r:]:
                if any(theta.charges[gen]):
                    raise ValueError(f"generator {gen!r} must have zero charge")
        self.spec = spec
        self.theta = theta
        self.rank = r
        self._pres = spec.presentation()
        self._pulled: Dict[Tuple[int, Letter, int], Tuple[Tuple[Letter, ...], int]] = {}
        self._conversions: Dict[Tuple[int, Letter, int], DerivationSequence] = {}
        self._fills: Dict[Tuple[int, int, int, int], FillingExpression] = {}

    @property
    def presentation(self) -> GroupPresentation:
        return self._pres

    def _distinguished(self, factor: int, k: int) -> Letter:
        return Letter(self.spec.factors[factor][k - 1], 1)

    def e(self, k: int) -> Letter:
        return self._distinguished(0, k)

    def f(self, k: int) -> Letter:
        return self._distinguished(1, k)

    def g(self, k: int) -> Letter:
        if self.spec.n_factors < 3:
            raise TooFewFactorsError("third-factor letter needs three factors")
        return self._distinguished(2, k)

    def check_direction(self, k: int) -> None:
        if not 1 <= k <= self.rank:
            raise DirectionRangeError(f"direction {k} outside 1..{self.rank}")


def standard_context(n: int, m: int, r: int) -> PulldownContext:
    """The product of n rank-m free groups with the standard rank-r charge
    map (generator j of every factor maps to the j-th unit for j <= r)."""
    if not (n >= 2 and m >= 1 and 1 <= r <= m):
        raise ValueError("need n >= 2, m >= 1, 1 <= r <= m")
    return PulldownContext(knmr_spec_ambient(KnmrSpec(n, m, r)))


def _ef_block(ctx: PulldownContext, k: int, h: int) -> Word:
    return wpow(Word((ctx.e(k), ctx.f(k).inverse())), h)


def _phi_letter(ctx: PulldownContext, k: int, let: Letter, h: int) -> Word:
    e, f = ctx.e(k), ctx.f(k)
    t = ctx.theta.charges[let.gen][k - 1]
    in_first = ctx.spec.factor_of[let.gen] == 0
    if in_first:
        if let.sign > 0:
            return concat(
                _ef_block(ctx, k, h),
                Word((let,)),
                wpow(Word((f,)), -t),
                _ef_block(ctx, k, -(h + t)),
            )
        return concat(
            _ef_block(ctx, k, h),
            wpow(Word((f,)), t),
            Word((let,)),
            _ef_block(ctx, k, -(h - t)),
        )
    if let.sign > 0:
        return concat(Word((let,)), wpow(Word((e,)), -t))
    return concat(wpow(Word((e,)), t), Word((let,)))


def _pull(ctx: PulldownContext, k: int, w: Word, h: int) -> Tuple[Word, int]:
    """phi's walk over the table of pulled-down letters: the pulled-down word
    and the direction-k height it ends at, h plus w's direction-k charge."""
    ctx.check_direction(k)
    pulled = ctx._pulled
    out: List[Letter] = []
    level = h
    for let in w:
        key = (k, let, level)
        entry = pulled.get(key)
        if entry is None:
            # a generator outside the context raises here, before the store
            entry = pulled[key] = (
                _phi_letter(ctx, k, let, level).letters,
                let.sign * ctx.theta.charges[let.gen][k - 1],
            )
        letters, step = entry
        out += letters
        level += step
    return Word._of(tuple(out)), level


def phi(ctx: PulldownContext, k: int, w: Word, h: int) -> Word:
    """Pull the word down in direction k, starting from height h: letterwise
    substitution whose value is e_k^h w e_k^(-h-c), c the direction-k charge
    of w, and whose direction-k height is at most one."""
    return _pull(ctx, k, w, h)[0]


def check_phi_properties(
    ctx: PulldownContext, k: int, w: Word, w2: Word, h: int
) -> Dict[str, bool]:
    """Evaluate the six defining properties of the pulling-down map on a
    concrete instance; returns one verdict per clause."""
    ctx.check_direction(k)
    theta = ctx.theta
    end = h + charge(theta, w)[k - 1]
    e = Word((ctx.e(k),))
    pw = phi(ctx, k, w, h)
    results = {}
    results["represents_conjugate"] = dp_equal(
        ctx.spec, pw, concat(wpow(e, h), w, wpow(e, -end))
    )
    ws = heights(theta, w)
    results["length_bound"] = len(pw) <= 4 * len(w) * (ws[k - 1] + abs(h) + 1)
    hs = heights(theta, pw)
    results["height_bound"] = hs[k - 1] <= 1 and all(
        hs[i] <= ws[i] for i in range(theta.rank) if i != k - 1
    )
    results["inverse_identity"] = pw.inverse() == phi(ctx, k, w.inverse(), end)
    results["concatenation_identity"] = phi(ctx, k, concat(w, w2), h) == concat(
        pw, phi(ctx, k, w2, end)
    )
    if freely_equal(w, w2):
        results["free_equality_preserved"] = freely_equal(pw, phi(ctx, k, w2, h))
    else:
        results["free_equality_preserved"] = True
    return results


def flatten_word(ctx: PulldownContext, w: Word) -> Word:
    """Iterate the pulling-down map once per direction: the result represents
    the same element, has every height at most one, and its length is at most
    8^r |w|^(r+1)."""
    if any(charge(ctx.theta, w)):
        raise NonzeroChargeError(f"{w} has nonzero charge")
    out = w
    for k in range(1, ctx.rank + 1):
        out = phi(ctx, k, out, 0)
    return out


def letter_conjugation_sequence(
    ctx: PulldownContext, k: int, let: Letter, h: int
) -> DerivationSequence:
    """A sequence converting the pulled-down letter to e^h x e^(-h-t): cost at
    most 2(|h|+1)^2, height at most |h|+1 in direction k and 1 elsewhere."""
    ctx.check_direction(k)
    e, f = ctx.e(k), ctx.f(k)
    ew, fw = Word((e,)), Word((f,))
    xw = Word((let,))
    t = ctx.theta.charges[let.gen][k - 1]
    tx = let.sign * t  # charge of the letter itself
    editor = WordEditor(ctx.presentation, _phi_letter(ctx, k, let, h))
    target = concat(wpow(ew, h), xw, wpow(ew, -h - tx))
    if ctx.spec.factor_of[let.gen] == 0:
        # sort both mixed power blocks, merge the middle f-powers freely,
        # walk the letter out through the leftover f-block, and cancel
        editor.sort(0, 2 * abs(h), lambda x: x.gen != e.gen)
        n = len(editor.letters)
        editor.sort(n - 2 * abs(h + tx), n, lambda x: x.gen != f.gen)
        before = -h if let.sign > 0 else -(h + tx)
        mid = concat(
            wpow(ew, h), wpow(fw, before), xw, wpow(fw, -before), wpow(ew, -h - tx)
        )
        editor.free_to(mid)
        editor.move_letter(abs(h) + abs(before), abs(h))
        editor.free_to(target)
    else:
        if let.sign > 0:
            editor.insert_cancelling(0, wpow(ew, h))
            editor.move_letter(2 * abs(h), abs(h))
        else:
            editor.insert_cancelling(t, wpow(ew, h + tx))
            editor.move_letter(t + 2 * abs(h + tx), t + abs(h + tx))
        editor.free_to(target)
    return editor.sequence()


def conjugation_scheme(
    ctx: PulldownContext, k: int, w: Word, h: int
) -> DerivationSequence:
    """Concatenate the per-letter conversions and merge the conjugating power
    blocks: converts the pulled-down word to e^h w e^(-h-charge), with cost at
    most 2|w|(height_k(w)+|h|+1)^2."""
    ctx.check_direction(k)
    editor = WordEditor(ctx.presentation, phi(ctx, k, w, h))
    conversions = ctx._conversions
    level = h
    offset = 0
    for let in w:
        sub = conversions.get((k, let, level))
        if sub is None:
            sub = conversions[k, let, level] = letter_conjugation_sequence(
                ctx, k, let, level
            )
        editor.apply_subsequence(offset, sub)
        t = let.sign * ctx.theta.charges[let.gen][k - 1]
        offset += abs(level) + 1 + abs(level + t)
        level += t
    e = Word((ctx.e(k),))
    editor.free_to(concat(wpow(e, h), w, wpow(e, -level)))
    return editor.sequence()


def _commutator_parts(ctx: PulldownContext, s: Word) -> Optional[Tuple[Letter, Letter]]:
    if len(s) != 4:
        return None
    a, b, c, d = s.letters
    if a.sign > 0 and b.sign > 0 and c == a.inverse() and d == b.inverse():
        fa = ctx.spec.factor_of.get(a.gen)
        fb = ctx.spec.factor_of.get(b.gen)
        if fa is not None and fb is not None and fa < fb:
            return a, b
    return None


def relator_filling_bounds(case: int, h: int) -> Tuple[int, int, int]:
    """(area bound, height bound off-direction, height bound in-direction)
    for each dispatch case of the commutator-relator filling."""
    m = abs(h)
    return {
        1: (3, 2, 2),
        2: (0, 1, 1),
        3: (4 * m + 1, 2, 1),
        4: (6 * m + 2, 1, 2),
        5: (6 * m * m + 14 * m + 1, 2, 2),
        6: (0, 1, 1),
    }[case]


def relator_filling(
    ctx: PulldownContext, k: int, s: Word, h: int
) -> Tuple[DerivationSequence, int]:
    """A null sequence for the pulled-down commutator relator, dispatching on
    the factors and charges involved; returns (sequence, case id).  Area is at
    most 7(|h|+1)^2 and heights stay at most 2.  Inverse relators are handled
    by inverting the filling of the positive one."""
    ctx.check_direction(k)
    if ctx.spec.n_factors < 3:
        raise TooFewFactorsError("relator fillings need at least three factors")
    parts = _commutator_parts(ctx, s)
    if parts is None:
        inv_parts = _commutator_parts(ctx, s.inverse())
        if inv_parts is None:
            raise UnsupportedRelatorError(f"{s} is not a cross-factor commutator")
        seq, case = relator_filling(ctx, k, s.inverse(), h)
        return invert_sequence(ctx.presentation, seq), case
    x, y = parts
    fx = ctx.spec.factor_of[x.gen]
    fy = ctx.spec.factor_of[y.gen]
    tx = ctx.theta.charges[x.gen][k - 1]
    ty = ctx.theta.charges[y.gen][k - 1]
    start = phi(ctx, k, s, h)
    editor = WordEditor(ctx.presentation, start)
    if fx >= 1:
        case = 1
        _fill_case_both_high(ctx, k, editor)
    elif tx == 1:
        case = 2
        editor.free_to(EMPTY)
    elif fy >= 2 and ty == 0:
        case = 3
        _fill_case_far_flat(ctx, k, editor, x, y, h)
    elif fy >= 2 and ty == 1:
        case = 4
        _fill_case_far_charged(ctx, k, editor, x, y, h)
    elif ty == 0:
        case = 5
        _fill_case_near_flat(ctx, k, editor, x, y, h)
    else:
        case = 6
        editor.free_to(EMPTY)
    if editor.letters:
        raise InternalCheckError(
            f"relator filling case {case} left residue {editor.word}"
        )
    return editor.sequence(), case


def _fill_case_both_high(ctx: PulldownContext, k: int, editor: WordEditor) -> None:
    # both letters outside the first factor: sweep the e-letters together,
    # cancel them, and apply the commutator relator
    e = ctx.e(k)
    editor.cancel_gen_in_window(e.gen, 0, len(editor.letters))
    if len(editor.letters) == 4:
        editor.relator(0, editor.word, EMPTY)
    editor.free_to(EMPTY)


def _fill_case_far_flat(
    ctx: PulldownContext, k: int, editor: WordEditor, x: Letter, y: Letter, h: int
) -> None:
    # first-factor letter with zero charge against a letter beyond the second
    # factor: walk the far letter and its inverse through the power blocks
    b = 2 * abs(h)
    xw, yw = Word((x,)), Word((y,))
    B = lambda mm: _ef_block(ctx, k, mm)
    editor.move_letter(2 * b + 1, b + 1)  # y past the middle block
    editor.free_to(concat(B(h), xw, yw, xw.inverse(), B(-h), yw.inverse()))
    editor.move_letter(b + 3 + b, b + 3)  # y' past the remaining block
    editor.relator(b, commutator(xw, yw), EMPTY)
    editor.free_to(EMPTY)


def _fill_case_far_charged(
    ctx: PulldownContext, k: int, editor: WordEditor, x: Letter, y: Letter, h: int
) -> None:
    # the far letter carries charge: one conjugating block survives the free
    # cancellation and is re-split so the stray letters can walk out of it
    e, f = ctx.e(k), ctx.f(k)
    ew, fw = Word((e,)), Word((f,))
    xw, yw = Word((x,)), Word((y,))
    b = 2 * abs(h)
    B = lambda mm: _ef_block(ctx, k, mm)
    editor.move_letter(b + 1 + b, b + 1)  # y past the middle block
    editor.move_letter(b + 2 + b, b + 2)  # e' after it, f-swaps only
    # the middle blocks collapse to a single pair; re-split the tail block
    editor.free_to(
        concat(
            B(h), xw, yw, ew.inverse(), ew, fw.inverse(), xw.inverse(),
            Word((f, e.inverse())), B(-h), ew, yw.inverse(),
        )
    )
    editor.move_letter(2 * b + 8, b + 8)  # trailing e past the tail block
    editor.move_letter(2 * b + 9, b + 9)  # trailing y' likewise
    editor.free_to(concat(B(h), xw, yw, fw.inverse(), xw.inverse(), fw,
                          yw.inverse(), B(-h)))
    editor.swap(b + 2)  # f' past x'
    editor.free_to(concat(B(h), commutator(xw, yw), B(-h)))
    editor.relator(b, commutator(xw, yw), EMPTY)
    editor.free_to(EMPTY)


def _fill_case_near_flat(
    ctx: PulldownContext, k: int, editor: WordEditor, x: Letter, y: Letter, h: int
) -> None:
    # both letters in the first two factors, zero charges: the conjugating
    # blocks cannot pass either letter directly, so they are rerouted through
    # the third factor's distinguished letter
    e, g = ctx.e(k), ctx.g(k)
    m = abs(h)
    b = 2 * m
    xw, yw = Word((x,)), Word((y,))
    f = ctx.f(k)
    u = wpow(Word((g, e.inverse())), -h)
    editor.insert_cancelling(2 * b + 1, u)
    editor.move_letter(4 * b + 1, 3 * b + 1)  # y past u^-1
    editor.cancel_gen_interleaved(e.gen, b + 1, 3 * b + 1)  # merge B^-h with u
    editor.cancel_gen_interleaved(e.gen, 2 * b + 2, 4 * b + 2)  # u^-1 with B^h
    editor.move_letter(b, 2 * b)  # x right past the first merged block
    editor.move_letter(3 * b + 2, 2 * b + 2)  # x' left past the second
    editor.cancel_gen_interleaved(f.gen, 0, 2 * b)  # B^h with merged block
    editor.cancel_gen_interleaved(f.gen, b + 3, 3 * b + 3)
    editor.move_letter(2 * b + 3, b + 3)  # y' inwards
    editor.relator(b, commutator(xw, yw), EMPTY)
    editor.free_to(EMPTY)


def pulldown_expression(
    ctx: PulldownContext, k: int, expr: FillingExpression, w: Word
) -> FillingExpression:
    """Pull a filling expression down in direction k: each term's relator is
    refilled at the conjugator's height with flat fillings, prefixed by the
    pulled-down conjugator, and a correction expression restores the original
    boundary word."""
    ctx.check_direction(k)
    if ctx.spec.n_factors < 3:
        raise TooFewFactorsError("expression pulldown needs at least three factors")
    pres = ctx.presentation
    sigma = conjugation_scheme(ctx, k, w, 0)
    correction = sequence_to_expression(pres, reverse_sequence(pres, sigma))
    terms: List[Tuple[Word, int, int]] = []
    fills = ctx._fills
    for conj, rel, sign in expr.terms:
        prefix, h = _pull(ctx, k, conj, 0)
        part = fills.get((k, rel, sign, h))
        if part is None:
            base = pres.relators[rel]
            signed = base if sign > 0 else base.inverse()
            fill, _ = relator_filling(ctx, k, signed, h)
            part = fills[k, rel, sign, h] = sequence_to_expression(pres, fill)
        for u, r2, s2 in part.terms:
            terms.append((concat(prefix, u), r2, s2))
    return FillingExpression(correction.terms + tuple(terms))


def flatten_expression(
    ctx: PulldownContext, expr: FillingExpression, w: Word
) -> FillingExpression:
    """Iterate the expression pulldown once per direction."""
    out = expr
    for k in range(1, ctx.rank + 1):
        out = pulldown_expression(ctx, k, out, w)
    return out


def base_filling(ctx: PulldownContext, w: Word) -> FillingExpression:
    """Fill a null-homotopic word over the product presentation by sorting
    its letters factor by factor (one commutator relator per transposition)
    and cancelling each factor's block freely."""
    if not dp_equal(ctx.spec, w, EMPTY):
        raise NotNullHomotopicError(f"{w} is not trivial in the product")
    editor = WordEditor(ctx.presentation, w)
    editor.sort(0, len(w), lambda x: ctx.spec.factor_of[x.gen])
    editor.free_to(EMPTY)
    return sequence_to_expression(ctx.presentation, editor.sequence())


# ---------------------------------------------------------------------------
# symbolic bound calculators


# the largest degree and coefficient length (in bits) a BoundExpr holds
_MAX_BOUND_DEGREE, _MAX_BOUND_BITS = 256, 1024
# the deepest nesting of parentheses and max( that parse_bound reads
_MAX_BOUND_NESTING = 64


class BoundExpr:
    """A closed-form nonnegative-integer function of a single size variable.

    Internally a polynomial (exponent -> coefficient); max is resolved by
    eventual dominance, which is the right notion for isoperimetric bounds.
    The canonical printed form is the leading monomial.  A polynomial past
    the size limits is a ValueError, so a large input fails at once."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, int]):
        self.coeffs = {e: c for e, c in coeffs.items() if c}
        if max(self.coeffs, default=0) > _MAX_BOUND_DEGREE:
            raise ValueError(f"bound has degree above {_MAX_BOUND_DEGREE}")
        if any(c.bit_length() > _MAX_BOUND_BITS for c in self.coeffs.values()):
            raise ValueError(f"bound has a coefficient longer than {_MAX_BOUND_BITS} bits")

    @classmethod
    def const(cls, c: int) -> "BoundExpr":
        return cls({0: c})

    @classmethod
    def var(cls) -> "BoundExpr":
        return cls({1: 1})

    def __add__(self, other: "BoundExpr") -> "BoundExpr":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return BoundExpr(out)

    def __mul__(self, other: "BoundExpr") -> "BoundExpr":
        out: Dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return BoundExpr(out)

    def __pow__(self, n: int) -> "BoundExpr":
        # by repeated squaring, through powers that divide the result
        if n < 0:
            raise ValueError("powers must be nonnegative")
        half = self ** (n // 2) if n > 1 else BoundExpr.const(1)
        return half * half * self if n & 1 else half * half

    def compose(self, inner: "BoundExpr") -> "BoundExpr":
        out = BoundExpr({})
        for e, c in self.coeffs.items():
            out = out + BoundExpr.const(c) * (inner ** e)
        return out

    def maximum(self, other: "BoundExpr") -> "BoundExpr":
        # eventual dominance: compare leading terms, then recurse downward
        a, b = dict(self.coeffs), dict(other.coeffs)
        for e in sorted(set(a) | set(b), reverse=True):
            ca, cb = a.get(e, 0), b.get(e, 0)
            if ca != cb:
                return self if ca > cb else other
        return self

    def __call__(self, l: int) -> int:
        return sum(c * l ** e for e, c in self.coeffs.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundExpr) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    @staticmethod
    def _monomial(e: int, c: int) -> str:
        if e == 0:
            return str(c)
        base = "l" if e == 1 else f"l^{e}"
        return base if c == 1 else f"{c}*{base}"

    def canonical(self) -> str:
        """The leading monomial, the representative of the growth class."""
        if not self.coeffs:
            return "0"
        return self._monomial(*max(self.coeffs.items()))

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items(), reverse=True)
        return " + ".join(self._monomial(e, c) for e, c in terms) or "0"


_TOKEN = re.compile(r"\s*(\d+|l|max|[()+*^@,])")


def parse_bound(text: str) -> BoundExpr:
    """Parse the bound grammar: integers, l, +, *, ^, max(,), composition @.
    ``^`` takes one integer literal, so ``l^2^3`` needs parentheses, and
    parentheses and max( nest at most ``_MAX_BOUND_NESTING`` deep."""
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad bound syntax at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    idx = depth = 0

    def peek() -> str:
        return tokens[idx]

    def shown(tok: str) -> str:
        return "end of input" if tok == "$" else repr(tok)

    def take(expect: Optional[str] = None) -> str:
        nonlocal idx
        tok = tokens[idx]
        if expect is not None and tok != expect:
            raise ValueError(f"expected {shown(expect)}, found {shown(tok)}")
        idx += 1
        return tok

    def nested() -> BoundExpr:
        nonlocal depth
        depth += 1
        if depth > _MAX_BOUND_NESTING:
            raise ValueError(f"bound nests parentheses deeper than {_MAX_BOUND_NESTING}")
        e = expr()
        depth -= 1
        return e

    def atom() -> BoundExpr:
        tok = take()
        if tok == "(":
            e = nested()
            take(")")
            return e
        if tok == "max":
            take("(")
            a = nested()
            take(",")
            b = nested()
            take(")")
            return a.maximum(b)
        if tok == "l":
            return BoundExpr.var()
        if tok.isdigit():
            return BoundExpr.const(int(tok))
        raise ValueError(f"unexpected {shown(tok)}")

    def power() -> BoundExpr:
        base = atom()
        if peek() == "^":
            take()
            exp = take()
            if not exp.isdigit():
                raise ValueError("exponent must be an integer literal")
            if peek() == "^":
                raise ValueError("chained '^' needs parentheses, as in (l^2)^3")
            base = base ** int(exp)
        return base

    def term() -> BoundExpr:
        out = power()
        while peek() in ("*", "@"):
            op = take()
            rhs = power()
            out = out * rhs if op == "*" else out.compose(rhs)
        return out

    def expr() -> BoundExpr:
        out = term()
        while peek() == "+":
            take()
            out = out + term()
        return out

    result = expr()
    take("$")
    return result


# the inputs each bound kind composes, in order
BOUND_INPUTS: Dict[str, Tuple[str, ...]] = {
    "area-radius": ("alpha", "rho"),
    "penetration": ("alpha", "pi", "rarea"),
    "split": ("beta1", "beta2"),
    "split-distortion": ("beta1", "distortion", "beta2"),
}


def compose_bounds(kind: str, *inputs: BoundExpr, r: Optional[int] = None) -> BoundExpr:
    """Assemble the composite isoperimetric bounds from the inputs that
    ``BOUND_INPUTS`` names for the kind, in that order.

    kinds: "penetration" -> alpha * rarea(pi);
    "area-radius" (and r) -> rho^(2r) * alpha;
    "split" -> l*beta1(l^2) + beta2;
    "split-distortion" -> l*beta1(distortion) + beta2.
    """
    names = BOUND_INPUTS.get(kind)
    if names is None:
        raise ValueError(f"unknown bound kind {kind!r}")
    needs_r = kind == "area-radius"
    if len(inputs) != len(names) or (needs_r and r is None):
        raise ValueError(f"{kind} needs ({', '.join(names)})"
                         + (" and r" if needs_r else ""))
    b = dict(zip(names, inputs))
    l = BoundExpr.var()
    if kind == "penetration":
        return b["alpha"] * b["rarea"].compose(b["pi"])
    if kind == "area-radius":
        return (b["rho"] ** (2 * r)) * b["alpha"]
    if kind == "split":
        return l * b["beta1"].compose(l * l) + b["beta2"]
    return l * b["beta1"].compose(b["distortion"]) + b["beta2"]
