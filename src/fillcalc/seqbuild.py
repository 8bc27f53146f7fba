"""Incremental construction of derivation sequences.

A WordEditor holds a current word and an accumulated move list.  Primitives
append replay-valid moves: free moves, resolved relator applications,
adjacent transpositions (free for letters of one generator, one relator
application across commuting generators), block bubbling, and targeted
cancellation.  Emitters build sequences with these and tests replay them.
"""

from __future__ import annotations

from typing import List

from .rewriting import (
    DerivationSequence,
    FreeContract,
    FreeExpand,
    GroupPresentation,
    apply_move,
    find_relator_move,
    free_equality_sequence,
    splice_sequence,
)
from .words import Letter, Word

__all__ = ["WordEditor"]


class WordEditor:
    def __init__(self, pres: GroupPresentation, start: Word):
        self.pres = pres
        self.start = start
        self.word = start
        self.moves: List = []

    def sequence(self) -> DerivationSequence:
        return DerivationSequence(self.start, tuple(self.moves))

    def _emit(self, move) -> None:
        self.word = apply_move(self.pres, self.word, move)
        self.moves.append(move)

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
        a, b = self.word[pos], self.word[pos + 1]
        if a == b:
            return
        if a.gen == b.gen:
            self.contract(pos)
            self.expand(pos, b)
        else:
            self.relator(pos, Word((a, b)), Word((b, a)))

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
        """Convert the current word to a freely equal target by free moves."""
        seq = free_equality_sequence(self.word, target)
        for move in seq.moves:
            self._emit(move)

    def apply_subsequence(self, pos: int, seq: DerivationSequence) -> None:
        """Splice a prebuilt sequence acting on the subword at pos."""
        got = self.word[pos : pos + len(seq.start)]
        if got != seq.start:
            raise ValueError(f"subword {got} != expected {seq.start}")
        for move in splice_sequence(seq, pos):
            self._emit(move)

    def _gen_positions(self, gen: str, start: int, end: int):
        return [
            i for i in range(start, end) if self.word[i].gen == gen
        ]

    def cancel_gen_in_window(self, gen: str, start: int, end: int) -> None:
        """Cancel every pair of gen-letters inside [start, end): repeatedly
        take the closest opposite-sign pair that are adjacent in the
        subsequence of gen-letters, bubble them together, contract.  The
        window shrinks by two per cancellation."""
        while True:
            idxs = self._gen_positions(gen, start, end)
            pair = None
            for a, b in zip(idxs, idxs[1:]):
                if self.word[a].sign == -self.word[b].sign:
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
        for t in range(lo, hi - 1):
            if self.word[t] == self.word[t + 1]:
                u = t + 2
                while u < hi and self.word[u] == self.word[t]:
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
            for a, b in zip(idxs, idxs[1:]):
                if self.word[a].sign == -self.word[b].sign:
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
        for i in range(lo + 1, hi):
            j = i
            while j > lo and key(self.word[j - 1]) > key(self.word[j]):
                swap(self, j - 1)
                j -= 1
