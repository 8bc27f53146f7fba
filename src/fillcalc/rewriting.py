"""Presentations and null-homotopy witnesses.

Three witness forms are implemented: derivation sequences (chains of free
moves and relator applications), filling expressions (products of conjugated
relators), and schemes (rows of words with claimed transition areas).  The
converters between them preserve area and never increase heights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union
)

from .words import (
    EMPTY,
    _check_letter,
    ChargeMap,
    Letter,
    UnknownGeneratorError,
    Word,
    charge,
    concat,
    cyclic_conjugate,
    free_reduce,
    freely_equal,
    heights,
)

__all__ = [
    "GroupPresentation",
    "FreeContract",
    "FreeExpand",
    "ApplyRelator",
    "RewriteMove",
    "DerivationSequence",
    "FillingExpression",
    "Scheme",
    "SchemeRow",
    "Accounting",
    "MalformedMoveError",
    "NotFreelyEqualError",
    "NotNullError",
    "BoundaryMismatchError",
    "InternalCheckError",
    "replay_sequence",
    "sequence_to_expression",
    "free_equality_sequence",
    "invert_sequence",
    "mirror_sequence",
    "reverse_sequence",
    "splice_sequence",
    "contraction_moves",
    "find_relator_move",
    "verify_scheme",
]


class MalformedMoveError(ValueError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"move {index}: {reason}")
        self.index = index
        self.reason = reason


class NotFreelyEqualError(ValueError):
    pass


class NotNullError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    """A check on a computed result failed: a defect in fillcalc, not bad
    input.  Deliberately not a ValueError, which the CLI reports as usage."""


class BoundaryMismatchError(ValueError):
    def __init__(self, discrepancy: Word):
        super().__init__(f"boundary mismatch, reduced discrepancy {discrepancy}")
        self.discrepancy = discrepancy


# a cyclic conjugate, as a letter tuple, to its (relator, sign, rotation)
RelatorIndex = Dict[Tuple[Letter, ...], Tuple[int, int, int]]


class GroupPresentation:
    """A finite presentation: alphabet plus an ordered relator list.

    Relators may be non-reduced words.  ``max_relator_length`` is the constant
    usually written L.

    A presentation is read-only after construction.  Its relator index (see
    ``relator_index``), its table of relator-move halves and the search
    tables of the ``oracle`` module are built on first use and shared by
    every later call.
    """

    __slots__ = (
        "generators", "relators", "_relator_index", "_halves", "_search_tables"
    )

    def __init__(self, generators: Iterable[str], relators: Iterable[Word] = ()):
        self.generators = tuple(dict.fromkeys(generators))
        gens = frozenset(self.generators)
        self.relators = tuple(relators)
        for rel in self.relators:
            extra = rel.generators() - gens
            if extra:
                raise ValueError(f"relator {rel} uses unknown generators {sorted(extra)}")
        self._relator_index: Optional[RelatorIndex] = None
        # owned by _relator_halves, which fills it one checked key at a time
        self._halves: Dict[Tuple[int, int, int, int], Tuple[Word, Word]] = {}
        # owned by the oracle module, which builds them on its first search
        self._search_tables = None

    @property
    def relator_index(self) -> RelatorIndex:
        """Every cyclic conjugate of every relator and relator inverse, as a
        letter tuple, mapped to its first ``(rel, sign, rot)``: relators in
        order, sign +1 before -1, rotations ascending.  This first-match
        order keeps emitted sequences deterministic."""
        index = self._relator_index
        if index is None:
            index = {}
            for rel, base in enumerate(self.relators):
                for sign in (1, -1):
                    letters = (base if sign > 0 else base.inverse()).letters
                    for rot in range(max(1, len(letters))):
                        index.setdefault(letters[rot:] + letters[:rot], (rel, sign, rot))
            self._relator_index = index
        return index

    @property
    def max_relator_length(self) -> int:
        return max((len(r) for r in self.relators), default=0)

    def check_word(self, w: Word) -> None:
        extra = w.generators() - frozenset(self.generators)
        if extra:
            raise ValueError(f"word uses unknown generators {sorted(extra)}")

    def __repr__(self) -> str:
        return (
            f"GroupPresentation({len(self.generators)} generators, "
            f"{len(self.relators)} relators)"
        )


# A move is a named tuple whose first field is its position: it equals the
# plain tuple of its fields, and splicing and the sequence file format each
# treat every kind by one rule over its fields.


class FreeContract(NamedTuple):
    pos: int


class FreeExpand(NamedTuple):
    pos: int
    letter: Letter


class ApplyRelator(NamedTuple):
    """Replace r by s at pos, where r s^-1 is the rotation-rot cyclic
    conjugate of relator^sign and r consists of its first split letters."""

    pos: int
    rel: int
    sign: int
    rot: int
    split: int


RewriteMove = Union[FreeContract, FreeExpand, ApplyRelator]


def _relator_halves(pres: GroupPresentation, move: ApplyRelator) -> Tuple[Word, Word]:
    """The (replaced, replacement) pair encoded by an ApplyRelator move, from
    the presentation's table of halves.  A key is computed and stored only
    once it passes the range checks, so a move out of range raises
    ValueError on every call and leaves the table as it was."""
    key = move[1:]
    halves = pres._halves.get(key)
    if halves is not None:
        return halves
    if not 0 <= move.rel < len(pres.relators):
        raise ValueError("relator index out of range")
    base = pres.relators[move.rel]
    if move.sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    signed = base if move.sign > 0 else base.inverse()
    if not 0 <= move.rot < max(1, len(signed)):
        raise ValueError("rotation out of range")
    conj = cyclic_conjugate(signed, move.rot)
    if not 0 <= move.split <= len(conj):
        raise ValueError("split out of range")
    halves = pres._halves[key] = (conj[: move.split], conj[move.split :].inverse())
    return halves


def _apply_move(
    pres: GroupPresentation, letters: List[Letter], move: RewriteMove
) -> Optional[Letter]:
    """Apply a move to a list of letters in place, and return the first
    letter of the pair a contraction removes (None for other moves).  A
    move that does not apply raises ValueError and leaves the list as it
    was: every check comes before the list changes."""
    if isinstance(move, FreeContract):
        pos = move.pos
        if not 0 <= pos <= len(letters) - 2:
            raise ValueError("position out of range")
        a, b = letters[pos], letters[pos + 1]
        if a != b.inverse():
            raise ValueError(f"letters {a}, {b} do not cancel")
        del letters[pos : pos + 2]
        return a
    if isinstance(move, FreeExpand):
        pos = move.pos
        if not 0 <= pos <= len(letters):
            raise ValueError("position out of range")
        # the one letter a move brings in: checked, as it may come from outside
        let = move.letter
        _check_letter(let)
        letters[pos:pos] = (let, let.inverse())
        return None
    if isinstance(move, ApplyRelator):
        replaced, replacement = _relator_halves(pres, move)
        pos = move.pos
        end = pos + len(replaced)
        if not 0 <= pos <= len(letters) - len(replaced):
            raise ValueError("position out of range")
        got = tuple(letters[pos:end])
        if got != replaced.letters:
            raise ValueError(
                f"subword {Word._of(got)} does not match relator part {replaced}"
            )
        letters[pos:end] = replacement.letters
        return None
    raise TypeError(f"unknown move {move!r}")


@dataclass(frozen=True)
class DerivationSequence:
    """A start word plus a replayable list of rewrite moves."""

    start: Word
    moves: Tuple[RewriteMove, ...]
    # what the emitting editor knew of the moves (see _Record); never compared
    _record: Optional["_Record"] = field(default=None, compare=False, repr=False)

    def __init__(self, start: Word, moves: Iterable[RewriteMove] = ()):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "moves", tuple(moves))
        object.__setattr__(self, "_record", None)

    @property
    def area(self) -> int:
        return sum(1 for m in self.moves if isinstance(m, ApplyRelator))

    def then(self, other: "DerivationSequence") -> "DerivationSequence":
        return DerivationSequence(self.start, self.moves + other.moves)


class _Record(NamedTuple):
    """What applying a sequence's moves showed, kept so that splicing,
    mirroring and reversing need not apply them again: the final word's
    letters, and for each move the first letter of the pair it removes
    (None for a move that is not a contraction)."""

    final: Tuple[Letter, ...]
    removed: Tuple[Optional[Letter], ...]


def _recorded(start: Word, moves: Iterable[RewriteMove], record: _Record
              ) -> DerivationSequence:
    """A sequence carrying the record of its moves, which the caller
    vouches for: it applied them, or derived them from a recorded
    sequence."""
    seq = DerivationSequence(start, moves)
    object.__setattr__(seq, "_record", record)
    return seq


@dataclass(frozen=True)
class FillingExpression:
    """Product of conjugated relators: terms (conjugator, relator index, sign)."""

    terms: Tuple[Tuple[Word, int, int], ...]

    def __init__(self, terms: Iterable[Tuple[Word, int, int]] = ()):
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def area(self) -> int:
        return len(self.terms)

    @property
    def radius(self) -> int:
        return max((len(x) for x, _, _ in self.terms), default=0)

    def boundary(self, pres: GroupPresentation) -> Word:
        """The product of the terms x r x^-1, letter for letter."""
        return self._telescope(pres)[0]

    @cached_property
    def _shared(self) -> Tuple[int, ...]:
        """For each term, how many leading letters its conjugator shares
        with the previous term's (0 for the first term)."""
        shared: List[int] = []
        prev: Tuple[Letter, ...] = ()
        for conj, _, _ in self.terms:
            x = conj.letters
            c, n = 0, min(len(prev), len(x))
            while c < n and prev[c] == x[c]:
                c += 1
            shared.append(c)
            prev = x
        return tuple(shared)

    def _telescope(self, pres: GroupPresentation) -> Tuple[Word, Word]:
        """One walk over the terms: the boundary, and the telescoped word
        freely equal to it.  The telescoped word replaces each x_i^-1 x_(i+1)
        by a^-1 b, where x_i = p a and x_(i+1) = p b share the prefix p (see
        ``_shared``), so it is as long as the conjugators' new suffixes, not
        the conjugators.  Each term's x^-1 is likewise b^-1 followed by the
        tail p^-1 of the previous term's inverse."""
        relators = pres.relators
        signed: Dict[Tuple[int, int], Tuple[Letter, ...]] = {}
        full: List[Letter] = []
        tele: List[Letter] = []
        prev_inv: Tuple[Letter, ...] = ()  # the previous conjugator's inverse
        for i, ((conj, rel, sign), c) in enumerate(zip(self.terms, self._shared)):
            if not 0 <= rel < len(relators):
                raise ValueError(f"term {i}: relator index {rel} out of range")
            if sign not in (1, -1):
                raise ValueError(f"term {i}: sign {sign} must be +1 or -1")
            r = signed.get((rel, sign))
            if r is None:
                base = relators[rel]
                r = signed[rel, sign] = (base if sign > 0 else base.inverse()).letters
            x = conj.letters
            new = x[c:]
            gone = len(prev_inv) - c
            tele += prev_inv[:gone]
            tele += new
            tele += r
            inv = tuple(let.inverse() for let in reversed(new)) + prev_inv[gone:]
            full += x
            full += r
            full += inv
            prev_inv = inv
        tele += prev_inv
        return Word._of(tuple(full)), Word._of(tuple(tele))

    def __mul__(self, other: "FillingExpression") -> "FillingExpression":
        return FillingExpression(self.terms + other.terms)

    def expr_heights(self, theta: ChargeMap) -> Tuple[int, ...]:
        """Per-direction maxima of the conjugators' heights.  The prefix
        charges of the current conjugator sit on a stack that each term cuts
        back to the prefix it shares with the previous conjugator (see
        ``_shared``): those prefixes are already in the maximum, so only new
        letters are charged."""
        zero = (0,) * theta.rank
        charges = [zero]  # charges[j]: charge of the conjugator's first j letters
        vectors: Dict[Letter, Tuple[int, ...]] = {}
        best = zero
        for (conj, _, _), c in zip(self.terms, self._shared):
            del charges[c + 1 :]
            total = charges[c]
            for let in conj.letters[c:]:
                vec = vectors.get(let)
                if vec is None:
                    vec = vectors[let] = theta.of_letter(let)
                total = tuple(map(add, total, vec))
                best = tuple(map(max, best, map(abs, total)))
                charges.append(total)
        return best


@dataclass(frozen=True)
class SchemeRow:
    word: Word
    area: int


@dataclass(frozen=True)
class Scheme:
    """Claimed-area skeleton of a null-homotopy; the final empty row is
    implicit, so a scheme with rows (w_1..w_m) claims each transition
    w_i -> w_{i+1} (w_{m+1} empty) fillable within the row's area."""

    rows: Tuple[SchemeRow, ...]

    def __init__(self, rows: Iterable[SchemeRow]):
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def total_area(self) -> int:
        return sum(r.area for r in self.rows)


@dataclass(frozen=True)
class Accounting:
    area: int
    radius: Optional[int]
    heights: Optional[Tuple[int, ...]]
    endpoints: Tuple[Word, Word]


def _walk(
    pres: GroupPresentation, seq: DerivationSequence
) -> Iterator[Tuple[RewriteMove, List[Letter], Optional[Letter]]]:
    """Apply a sequence's moves in order to one list of letters, yielding
    after each move the move, the list (edited in place by the next move)
    and the letter a contraction removed; a move that does not apply raises
    MalformedMoveError before anything is yielded for it."""
    letters = list(seq.start.letters)
    for idx, move in enumerate(seq.moves):
        try:
            gone = _apply_move(pres, letters, move)
        except (ValueError, IndexError) as exc:
            raise MalformedMoveError(idx, str(exc)) from exc
        yield move, letters, gone


def _record_of(pres: GroupPresentation, seq: DerivationSequence) -> _Record:
    """The sequence's record: the one it carries, or one from a walk."""
    if seq._record is not None:
        return seq._record
    removed: List[Optional[Letter]] = []
    letters: Sequence[Letter] = seq.start.letters
    for _, letters, gone in _walk(pres, seq):
        removed.append(gone)
    return _Record(tuple(letters), tuple(removed))


def _relators_have_zero_charge(pres: GroupPresentation, theta: ChargeMap) -> bool:
    zero = (0,) * theta.rank
    try:
        return all(charge(theta, r) == zero for r in pres.relators)
    except UnknownGeneratorError:
        return False


def replay_sequence(
    pres: GroupPresentation,
    seq: DerivationSequence,
    theta: Optional[ChargeMap] = None,
) -> Accounting:
    """Replay a sequence, returning its area, final word and heights.

    Heights are the per-direction maxima over every intermediate word.  They
    are reported only when every relator of the presentation has zero charge;
    otherwise the height field is None rather than a guess.
    """
    track = theta is not None and _relators_have_zero_charge(pres, theta)
    best = heights(theta, seq.start) if track else None
    letters: Sequence[Letter] = seq.start.letters
    for _, letters, _ in _walk(pres, seq):
        if track:
            best = tuple(map(max, best, heights(theta, letters)))
    return Accounting(
        area=seq.area,
        radius=None,
        heights=best,
        endpoints=(seq.start, Word._of(tuple(letters))),
    )


def validate_expression(
    pres: GroupPresentation,
    expr: FillingExpression,
    w: Word,
    theta: Optional[ChargeMap] = None,
) -> Accounting:
    """Check that the expression's boundary is freely equal to w.

    The check reduces the telescoped boundary (see
    ``FillingExpression._telescope``); free reduction is confluent, so the
    verdict and the reported discrepancy are those of the full boundary,
    which is still returned as the first endpoint."""
    boundary, telescoped = expr._telescope(pres)
    discrepancy = free_reduce(concat(telescoped, w.inverse()))
    if len(discrepancy):
        raise BoundaryMismatchError(discrepancy)
    return Accounting(
        area=expr.area,
        radius=expr.radius,
        heights=expr.expr_heights(theta) if theta is not None else None,
        endpoints=(boundary, w),
    )


def _cancellations(w: Word) -> Tuple[List[Tuple[int, Letter]], Tuple[Letter, ...]]:
    """One stack walk over w: each cancelled pair as (position, first letter)
    in replay order, and the letters of w's freely reduced form."""
    removed: List[Tuple[int, Letter]] = []
    stack: List[Letter] = []
    for let in w:
        if stack and stack[-1] == let.inverse():
            removed.append((len(stack) - 1, stack.pop()))
        else:
            stack.append(let)
    return removed, tuple(stack)


def contraction_moves(w: Word) -> List[FreeContract]:
    """Free contractions reducing w to its freely reduced form, in replay order."""
    return [FreeContract(pos) for pos, _ in _cancellations(w)[0]]


def free_equality_sequence(w1: Word, w2: Word) -> DerivationSequence:
    """Area-0 sequence from w1 to w2 through the common reduced form: w1's
    cancellations as contractions, then w2's undone in reverse, each
    contraction at p of (x, x^-1) becoming an expansion at p of that pair."""
    removed1, reduced1 = _cancellations(w1)
    removed2, reduced2 = _cancellations(w2)
    if reduced1 != reduced2:
        raise NotFreelyEqualError(f"{w1} and {w2} are not freely equal")
    moves: List[RewriteMove] = [FreeContract(pos) for pos, _ in removed1]
    moves.extend(FreeExpand(pos, let) for pos, let in reversed(removed2))
    return DerivationSequence(w1, moves)


def find_relator_move(
    pres: GroupPresentation, pos: int, replaced: Word, replacement: Word
) -> ApplyRelator:
    """Resolve (rel, sign, rot, split) so the move rewrites replaced->replacement.

    Requires replaced * replacement^-1 to be a cyclic conjugate of a relator
    or relator inverse; raises ValueError otherwise.  When several match, the
    first in ``relator_index`` order wins.
    """
    target = replaced.letters + replacement.inverse().letters
    found = pres.relator_index.get(target)
    if found is None:
        raise ValueError(
            f"no relator realizes {replaced} -> {replacement} "
            f"(needs cyclic conjugate {Word(target)})"
        )
    rel, sign, rot = found
    return ApplyRelator(pos, rel, sign, rot, len(replaced))


def sequence_to_expression(
    pres: GroupPresentation, seq: DerivationSequence
) -> FillingExpression:
    """Convert a sequence converting tau to tau' into an expression for
    tau (tau')^-1 of equal area and no greater heights.

    Each relator application at a word u r v contributes one term whose
    conjugator is a prefix of the current or the next word; when both prefix
    decompositions exist the first (current-word) one is chosen.  The
    prefixes are read from one walk of the sequence: a move leaves the
    letters before its position as they were.
    """
    terms: List[Tuple[Word, int, int]] = []
    for move, letters, _ in _walk(pres, seq):
        if isinstance(move, ApplyRelator):
            # the signed relator is p q with |p| = rot, and its rotation q p
            # is replaced followed by replacement^-1: q starts replaced when
            # it fits in it, and otherwise p^-1 starts replacement
            replaced, replacement = _relator_halves(pres, move)
            len_q = len(replaced) + len(replacement) - move.rot
            if len_q <= move.split:
                tail = replaced.letters[:len_q]
            else:
                tail = replacement.letters[: move.rot]
            prefix = tuple(letters[: move.pos])
            terms.append((Word._of(prefix + tail), move.rel, move.sign))
    return FillingExpression(terms)


def _mirror(
    pres: GroupPresentation, seq: DerivationSequence
) -> Tuple[DerivationSequence, Word]:
    """The mirror of a sequence (see ``mirror_sequence``) and the sequence's
    final word.  The mirror of a move on a word of n letters acts on its
    inverse: a contraction of the same letter pair, the expansion of the
    same letter, and the relator move on the inverted subword.  A contraction,
    an expansion and a relator move (of m letters) change n by -2, 2 and
    m - 2 split."""
    rec = _record_of(pres, seq)
    moves: List[RewriteMove] = []
    n = len(seq.start)
    for move in seq.moves:
        if isinstance(move, FreeContract):
            moves.append(FreeContract(n - move.pos - 2))
            n -= 2
        elif isinstance(move, FreeExpand):
            moves.append(FreeExpand(n - move.pos, move.letter))
            n += 2
        else:
            # the replaced half has split letters, the replacement m - split
            m = len(pres.relators[move.rel])
            moves.append(
                ApplyRelator(
                    pos=n - move.pos - move.split,
                    rel=move.rel,
                    sign=-move.sign,
                    rot=(2 * m - move.split - move.rot) % max(1, m),
                    split=move.split,
                )
            )
            n += m - 2 * move.split
    final = Word._of(rec.final)
    record = _Record(final.inverse().letters, rec.removed)
    return _recorded(seq.start.inverse(), moves, record), final


def mirror_sequence(
    pres: GroupPresentation, seq: DerivationSequence
) -> DerivationSequence:
    """Word-wise inversion: converts the inverse of the start word to the
    inverse of the final word, move by move, with the same area.  Height
    equality is only meaningful when every chain word has zero charge."""
    return _mirror(pres, seq)[0]


def invert_sequence(
    pres: GroupPresentation, seq: DerivationSequence
) -> DerivationSequence:
    """Mirror of a null sequence: fills the inverse word with the same area
    and the same heights (valid since every chain word has zero charge)."""
    mirrored, final = _mirror(pres, seq)
    if len(free_reduce(final)):
        raise NotNullError("sequence does not end at the empty word")
    return mirrored


def reverse_sequence(
    pres: GroupPresentation, seq: DerivationSequence
) -> DerivationSequence:
    """Time reversal: a sequence converting tau' back to tau, same area.
    The reverse of a move acts on the word the move made: a contraction
    becomes the expansion of the letter it removed, an expansion the
    contraction that removes its letter, and a relator move swaps its
    halves."""
    rec = _record_of(pres, seq)
    moves: List[RewriteMove] = []
    removed: List[Optional[Letter]] = []
    for move, gone in zip(reversed(seq.moves), reversed(rec.removed)):
        removed.append(move.letter if isinstance(move, FreeExpand) else None)
        if isinstance(move, FreeContract):
            moves.append(FreeExpand(move.pos, gone))
        elif isinstance(move, FreeExpand):
            moves.append(FreeContract(move.pos))
        else:
            m = len(pres.relators[move.rel])
            moves.append(
                ApplyRelator(
                    pos=move.pos,
                    rel=move.rel,
                    sign=-move.sign,
                    rot=(m - move.rot) % max(1, m),
                    split=m - move.split,
                )
            )
    record = _Record(seq.start.letters, tuple(removed))
    return _recorded(Word._of(rec.final), moves, record)


def splice_sequence(seq: DerivationSequence, offset: int) -> Tuple[RewriteMove, ...]:
    """Re-base a sequence's moves to act at a positional offset inside a
    larger word (the surrounding context is untouched by every move): each
    move keeps its kind and its other fields.  Moves are immutable, so at
    offset 0 they are the sequence's own."""
    if not offset:
        return seq.moves
    return tuple([type(m)(m.pos + offset, *m[1:]) for m in seq.moves])


@dataclass(frozen=True)
class RowReport:
    index: int
    # "pass" | "area-exceeds-claim", or "sequence-mismatch" for a supplied
    # sequence that does not run from the row's word to the next row's, or
    # from the search: "not-null-homotopic" | "budget-exhausted"
    verdict: str
    measured_area: Optional[int] = None


@dataclass(frozen=True)
class SchemeReport:
    rows: Tuple[RowReport, ...]
    total_area: Optional[int]

    @property
    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.rows)


def verify_scheme(
    pres: GroupPresentation,
    scheme: Scheme,
    sequences: Optional[Sequence[DerivationSequence]] = None,
    budget=None,
) -> SchemeReport:
    """Check each row's transition claim, by replaying supplied sequences or
    by exact area search under a budget (exactly one strategy must be given).
    """
    if (sequences is None) == (budget is None):
        raise ValueError("choose exactly one strategy: sequences or budget")
    if sequences is not None and len(sequences) != len(scheme.rows):
        raise ValueError(
            f"{len(sequences)} sequences for a scheme of {len(scheme.rows)} rows"
        )
    reports: List[RowReport] = []
    rows = scheme.rows
    for i, row in enumerate(rows):
        target = rows[i + 1].word if i + 1 < len(rows) else EMPTY
        if sequences is not None:
            seq = sequences[i]
            acct = replay_sequence(pres, seq)
            ok = (
                freely_equal(seq.start, row.word)
                and freely_equal(acct.endpoints[1], target)
            )
            if not ok:
                reports.append(RowReport(i, "sequence-mismatch", None))
            elif acct.area > row.area:
                reports.append(RowReport(i, "area-exceeds-claim", acct.area))
            else:
                reports.append(RowReport(i, "pass", acct.area))
        else:
            from .oracle import area_exact  # local import to avoid a cycle

            transition = concat(row.word, target.inverse())
            result = area_exact(pres, transition, budget)
            if result.kind == "area":
                if result.area <= row.area:
                    reports.append(RowReport(i, "pass", result.area))
                else:
                    reports.append(RowReport(i, "area-exceeds-claim", result.area))
            elif result.kind == "not-null-homotopic":
                reports.append(RowReport(i, "not-null-homotopic", None))
            else:
                reports.append(RowReport(i, "budget-exhausted", None))
    passed = all(r.verdict == "pass" for r in reports)
    return SchemeReport(tuple(reports), scheme.total_area if passed else None)
