"""Incremental construction of derivation sequences.

A WordEditor holds a current word and an accumulated move list.  Primitives
append replay-valid moves: free moves, resolved relator applications,
adjacent transpositions (free for letters of one generator, one relator
application across commuting generators), block bubbling, and targeted
cancellation.  Emitters build sequences with these and tests replay them.

The current word is one list of letters, which each move edits in place.
The editor records the letter each contraction removes (``rewriting._Record``),
so its sequences, like search witnesses, splice, mirror and reverse without
applying their moves again; a sequence from a file or a caller is walked
once when spliced.  Turning a sequence into an expression walks it once.
"""

from __future__ import annotations

from typing import List, Optional

from .rewriting import (
    DerivationSequence,
    FreeContract,
    FreeExpand,
    GroupPresentation,
    InternalCheckError,
    MalformedMoveError,
    NotFreelyEqualError,
    _apply_move,
    _Record,
    _record_of,
    _recorded,
    find_relator_move,
    free_equality_sequence,
    splice_sequence,
)
from .words import Letter, Word

__all__ = ["WordEditor"]


class WordEditor:
    """``letters`` is the current word, for reading only; ``word`` is a
    snapshot of it, built when read.  A move the editor cannot apply is a
    defect of the emitter that asked for it, reported as
    InternalCheckError."""

    def __init__(self, pres: GroupPresentation, start: Word):
        self.pres = pres
        self.start = start
        self.letters: List[Letter] = list(start.letters)
        self.moves: List = []
        # per move: the letter it removes
        self._removed: List[Optional[Letter]] = []

    @property
    def word(self) -> Word:
        return Word._of(tuple(self.letters))

    def sequence(self) -> DerivationSequence:
        record = _Record(tuple(self.letters), tuple(self._removed))
        return _recorded(self.start, self.moves, record)

    def _emit(self, move) -> None:
        try:
            gone = _apply_move(self.pres, self.letters, move)
        except (ValueError, IndexError) as exc:
            raise InternalCheckError(f"emitted move {len(self.moves)}: {exc}") from exc
        self.moves.append(move)
        self._removed.append(gone)

    def contract(self, pos: int) -> None:
        self._emit(FreeContract(pos))

    def expand(self, pos: int, letter: Letter) -> None:
        self._emit(FreeExpand(pos, letter))

    def relator(self, pos: int, replaced: Word, replacement: Word) -> None:
        self._emit(find_relator_move(self.pres, pos, replaced, replacement))

    def swap(self, pos: int) -> None:
        """Transpose the letters at pos, pos+1: identical letters need no
        move (the word is unchanged), a cancelling pair is recycled through a
        free contraction and expansion, and distinct generators need one
        relator application."""
        a, b = self.letters[pos], self.letters[pos + 1]
        if a == b:
            return
        if a.gen == b.gen:
            self.contract(pos)
            self.expand(pos, b)
        else:
            self.relator(pos, Word._of((a, b)), Word._of((b, a)))

    def move_letter(self, src: int, dst: int) -> None:
        """Bubble the letter at src to position dst by transpositions."""
        if dst < src:
            for p in range(src, dst, -1):
                self.swap(p - 1)
        else:
            for p in range(src, dst):
                self.swap(p)

    def insert_cancelling(self, pos: int, w: Word) -> None:
        """Free-insert the word w w^-1 at pos."""
        for i, let in enumerate(w):
            self.expand(pos + i, let)

    def free_to(self, target: Word) -> None:
        """Convert the current word to a freely equal target by free moves;
        none when it is the target and freely reduced."""
        current = tuple(self.letters)
        if current == target.letters and not any(
            a.gen == b.gen and a.sign != b.sign for a, b in zip(current, current[1:])
        ):
            return
        try:
            seq = free_equality_sequence(Word._of(current), target)
        except NotFreelyEqualError as exc:
            raise InternalCheckError(f"emitted move {len(self.moves)}: {exc}") from exc
        for move in seq.moves:
            self._emit(move)

    def apply_subsequence(self, pos: int, seq: DerivationSequence) -> None:
        """Splice a prebuilt sequence acting on the subword at pos: its
        moves are appended re-based, and the subword becomes the sequence's
        final word.  The moves of a sequence that carries its record were
        applied when it was built; any other sequence is walked once first,
        and a move of it that does not apply leaves the editor as it was."""
        letters = self.letters
        end = pos + len(seq.start)
        got = tuple(letters[pos:end])
        if got != seq.start.letters:
            raise InternalCheckError(
                f"emitted move {len(self.moves)}: subword {Word._of(got)} "
                f"!= expected {seq.start}"
            )
        try:
            rec = _record_of(self.pres, seq)
        except MalformedMoveError as exc:
            raise InternalCheckError(f"emitted move {len(self.moves) + exc.index}: "
                                     f"{exc.reason}") from exc
        self._removed.extend(rec.removed)
        self.moves.extend(splice_sequence(seq, pos))
        letters[pos:end] = rec.final

    def _gen_positions(self, gen: str, start: int, end: int):
        letters = self.letters
        return [i for i in range(start, end) if letters[i].gen == gen]

    def cancel_gen_in_window(self, gen: str, start: int, end: int) -> None:
        """Cancel every pair of gen-letters inside [start, end): repeatedly
        take the closest opposite-sign pair that are adjacent in the
        subsequence of gen-letters, bubble them together, contract.  The
        window shrinks by two per cancellation."""
        while True:
            idxs = self._gen_positions(gen, start, end)
            pair = None
            letters = self.letters
            for a, b in zip(idxs, idxs[1:]):
                if letters[a].sign == -letters[b].sign:
                    if pair is None or b - a < pair[1] - pair[0]:
                        pair = (a, b)
            if pair is None:
                return
            i, j = pair
            self.move_letter(i, j - 1)
            self.contract(j - 1)
            end -= 2

    def _alternate(self, lo: int, hi: int) -> None:
        """Spread the (at most two kinds of) letters in [lo, hi) so equal
        letters never sit adjacent where avoidable; keeps prefix charges from
        accumulating inside merged power blocks."""
        letters = self.letters
        for t in range(lo, hi - 1):
            if letters[t] == letters[t + 1]:
                u = t + 2
                while u < hi and letters[u] == letters[t]:
                    u += 1
                if u < hi:
                    self.move_letter(u, t + 1)

    def cancel_gen_interleaved(self, gen: str, start: int, end: int) -> None:
        """Cancel the gen-letters of two abutting power blocks inside
        [start, end), keeping the growing residue block interleaved so its
        heights stay bounded.  Expects the gen-subsequence to carry one sign
        then the other (a single junction)."""
        while True:
            idxs = self._gen_positions(gen, start, end)
            pair = None
            letters = self.letters
            for a, b in zip(idxs, idxs[1:]):
                if letters[a].sign == -letters[b].sign:
                    pair = (a, b)
                    break
            if pair is None:
                self._alternate(start, end)
                return
            i, j = pair
            self.move_letter(i, j - 1)
            self.contract(j - 1)
            end -= 2
            idxs = self._gen_positions(gen, start, end)
            lo = max((p for p in idxs if p < j - 1), default=start - 1) + 1
            hi = min((p for p in idxs if p >= j - 1), default=end)
            self._alternate(lo, hi)

    def sort(self, lo: int, hi: int, key, swap=None) -> None:
        """Stable insertion sort of the letters in [lo, hi) by key, one
        adjacent transposition at a time.  swap(editor, pos) performs a
        transposition; it defaults to WordEditor.swap."""
        swap = swap or WordEditor.swap
        letters = self.letters
        for i in range(lo + 1, hi):
            j = i
            while j > lo and key(letters[j - 1]) > key(letters[j]):
                swap(self, j - 1)
                j -= 1
