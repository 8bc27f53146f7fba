"""Words over signed generator alphabets.

A word is an immutable sequence of letters, where a letter is a generator
symbol together with a sign.  Symbols are opaque interned strings; decorated
names like ``e1_2`` carry no structure here.  This module provides free
reduction, prefix charges under a homomorphism to Z^r, per-direction heights,
and the height-based departure sandwich.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Dict, Iterable, Iterator, Mapping, NamedTuple, Sequence, Tuple

__all__ = [
    "Letter",
    "Word",
    "ChargeMap",
    "UnknownGeneratorError",
    "word",
    "commutator",
    "conjugate",
    "concat",
    "wpow",
    "free_reduce",
    "freely_equal",
    "cyclic_reduce",
    "cyclic_conjugate",
    "charge",
    "prefix_charges",
    "heights",
    "departure",
]

GENERATOR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_^(){}]*\Z")
EMPTY_WORD_TOKEN = "1"


class UnknownGeneratorError(KeyError):
    """A word used a generator outside the relevant alphabet or charge map."""


class Letter(NamedTuple):
    gen: str
    sign: int

    def inverse(self) -> "Letter":
        inv = _INVERSES.get(self)
        if inv is None:
            inv = _INVERSES[self] = Letter(self.gen, -self.sign)
        return inv

    def __str__(self) -> str:
        return self.gen + ("'" if self.sign < 0 else "")


# each letter's inverse, built once: inverting is among the commonest steps
# of emission and replay
_INVERSES: Dict[Letter, Letter] = {}


def _parse_letter(token: str) -> Letter:
    sign = 1
    if token.endswith("'"):
        sign, token = -1, token[:-1]
    if not GENERATOR_NAME.match(token):
        raise ValueError(f"bad generator token {token!r}")
    return Letter(token, sign)


def _check_letter(let) -> None:
    """Raise ValueError unless let is a Letter of sign +1 or -1."""
    if not isinstance(let, Letter) or let.sign not in (1, -1):
        raise ValueError(f"bad letter {let!r}")


class Word:
    """An immutable word; all operations return fresh values.

    The constructor checks every letter.  Words that fillcalc derives from
    words it already holds (slices, products, inverses, reductions) are
    built by ``Word._of``, which trusts its letters.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        for let in letters:
            _check_letter(let)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _of(cls, letters: tuple) -> "Word":
        """The word on a tuple of letters already known to be valid, without
        the per-letter check: only for letters taken from existing words."""
        w = object.__new__(cls)
        _set_letters(w, letters)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word._of(self.letters[i])
        return self.letters[i]

    def __mul__(self, other: "Word") -> "Word":
        return Word._of(self.letters + other.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def inverse(self) -> "Word":
        return Word._of(tuple(let.inverse() for let in reversed(self.letters)))

    def prefix(self, j: int) -> "Word":
        # w[j] in prefix notation; j beyond the end yields the whole word
        return Word._of(self.letters[: max(0, j)])

    def generators(self) -> frozenset:
        return frozenset(let.gen for let in self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return EMPTY_WORD_TOKEN
        return " ".join(str(let) for let in self.letters)

    def __repr__(self) -> str:
        return f"word({str(self)!r})"


_set_letters = Word.letters.__set__
EMPTY = Word()


def word(text: str) -> Word:
    """Parse the token syntax: whitespace-separated names, ' marks an inverse.

    The empty word is written ``1``.
    """
    tokens = text.split()
    if tokens == [EMPTY_WORD_TOKEN]:
        return EMPTY
    return Word(tuple(_parse_letter(tok) for tok in tokens))


def concat(*ws: Word) -> Word:
    return Word._of(tuple(chain.from_iterable(w.letters for w in ws)))


def wpow(w: Word, n: int) -> Word:
    """w^n as a literal word; negative n uses the inverse word."""
    if n < 0:
        return wpow(w.inverse(), -n)
    return Word._of(w.letters * n)


def commutator(u: Word, v: Word) -> Word:
    return concat(u, v, u.inverse(), v.inverse())


def conjugate(u: Word, by: Word) -> Word:
    """The word (by) u (by)^-1."""
    return concat(by, u, by.inverse())


def free_reduce(w: Word) -> Word:
    """The freely reduced form of w (stack cancellation)."""
    stack: list = []
    for let in w:
        if stack and stack[-1].gen == let.gen and stack[-1].sign == -let.sign:
            stack.pop()
        else:
            stack.append(let)
    return Word._of(tuple(stack))


def freely_equal(w1: Word, w2: Word) -> bool:
    return free_reduce(w1) == free_reduce(w2)


def cyclic_conjugate(w: Word, k: int) -> Word:
    if not w.letters:
        return w
    k %= len(w)
    return Word._of(w.letters[k:] + w.letters[:k])


def cyclic_reduce(w: Word) -> Word:
    """Strip cancelling first/last pairs after free reduction."""
    letters = free_reduce(w).letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == letters[j - 1].inverse():
        i, j = i + 1, j - 1
    return Word._of(letters[i:j])


class ChargeMap:
    """Homomorphism data into Z^r, one integer vector per generator.

    Extends additively over words; the charge of an inverse is the negation.
    """

    __slots__ = ("rank", "charges")

    def __init__(self, rank: int, charges: Mapping[str, Sequence[int]]):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        table = {}
        for gen, vec in charges.items():
            vec = tuple(int(v) for v in vec)
            if len(vec) != rank:
                raise ValueError(f"charge vector for {gen!r} has wrong length")
            table[gen] = vec
        self.rank = rank
        self.charges = table

    def of_letter(self, let: Letter) -> Tuple[int, ...]:
        try:
            vec = self.charges[let.gen]
        except KeyError:
            raise UnknownGeneratorError(let.gen) from None
        if let.sign < 0:
            vec = tuple(-v for v in vec)
        return vec

    def __contains__(self, gen: str) -> bool:
        return gen in self.charges

    def __repr__(self) -> str:
        return f"ChargeMap(rank={self.rank}, generators={sorted(self.charges)})"


def charge(theta: ChargeMap, w: Word) -> Tuple[int, ...]:
    total = [0] * theta.rank
    for let in w:
        vec = theta.of_letter(let)
        for i in range(theta.rank):
            total[i] += vec[i]
    return tuple(total)


def prefix_charges(theta: ChargeMap, w: Word) -> Iterator[Tuple[int, ...]]:
    """Charges of all prefixes w[0], w[1], ..., w[|w|] in order."""
    total = [0] * theta.rank
    yield tuple(total)
    for let in w:
        vec = theta.of_letter(let)
        for i in range(theta.rank):
            total[i] += vec[i]
        yield tuple(total)


def heights(theta: ChargeMap, w: Word) -> Tuple[int, ...]:
    """Per-direction heights: max |i-th prefix charge| over all prefixes."""
    best = [0] * theta.rank
    for vec in prefix_charges(theta, w):
        for i, v in enumerate(vec):
            if abs(v) > best[i]:
                best[i] = abs(v)
    return tuple(best)


def departure(theta: ChargeMap, w: Word) -> Tuple[int, int]:
    """Sandwich bounds for the departure of w from ker theta.

    Returns (max_i height_i, sum_i height_i); the exact word-metric departure
    lies between them.  Exact values need a Cayley-graph search (see the
    oracle module).
    """
    hs = heights(theta, w)
    return (max(hs, default=0), sum(hs))
