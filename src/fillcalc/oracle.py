"""Exact decision procedures at desk scale.

Area search works on freely reduced words, with free moves folded into
relator applications, so one search step is "insert a cyclic conjugate of a
relator or its inverse, then reduce".  Exactness is always relative to the
budget's word-length cap; exhaustion is a distinguishable outcome.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import intlinalg
from .rewriting import (
    ApplyRelator,
    DerivationSequence,
    FillingExpression,
    GroupPresentation,
    InternalCheckError,
    MalformedMoveError,
    _record_of,
    _recorded,
    contraction_moves,
    sequence_to_expression,
)
from .words import (
    EMPTY,
    ChargeMap,
    Letter,
    Word,
    charge,
    commutator,
    concat,
    free_reduce,
)

__all__ = [
    "SearchBudget",
    "AreaResult",
    "DistanceResult",
    "DirectProductSpec",
    "NotNullHomotopicError",
    "MembershipUndecidableError",
    "AlphabetMismatchError",
    "area_exact",
    "two_step_filling",
    "find_filling",
    "dehn_sample",
    "dp_equal",
    "raag_equal",
    "raag_normal_form",
    "free_normal_form",
    "cayley_distance",
    "distortion_sample",
    "low_noise_search",
    "noise",
]


class NotNullHomotopicError(ValueError):
    pass


class MembershipUndecidableError(ValueError):
    pass


class AlphabetMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    """Caps for exhaustive searches; exhaustion is reported, never silent."""

    max_word_length: Optional[int] = None  # None: |w| + 2L + 4
    max_states: int = 2_000_000
    max_area: Optional[int] = None
    wall_clock_ms: Optional[int] = None

    def __post_init__(self):
        if self.max_word_length is not None and self.max_word_length <= 0:
            raise ValueError("max_word_length must be positive")
        if self.max_states <= 0:
            raise ValueError("max_states must be positive")
        if self.max_area is not None and self.max_area <= 0:
            raise ValueError("max_area must be positive")

    def length_cap(self, w: Word, pres: GroupPresentation) -> int:
        if self.max_word_length is not None:
            return self.max_word_length
        return len(w) + 2 * pres.max_relator_length + 4


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class AreaResult:
    kind: str  # "area" | "not-null-homotopic" | "budget-exhausted"
    area: Optional[int] = None
    witness: Optional[DerivationSequence] = None
    lower_bound: int = 0
    states: int = 0


@dataclass(frozen=True)
class DistanceResult:
    kind: str  # "distance" | "not-reached"
    distance: Optional[int] = None
    witness: Optional[Word] = None
    radius_explored: int = 0


class _Clock:
    def __init__(self, budget: SearchBudget):
        self.deadline = (
            time.monotonic() + budget.wall_clock_ms / 1000.0
            if budget.wall_clock_ms is not None
            else None
        )

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


class _Coder:
    """Pack letters into single characters for fast search-state handling.

    Holds every table a search needs for one presentation; ``_coder`` builds
    it once per presentation, and no search mutates it.  The table of
    symmetries, which only Dehn sweeps read, and the window tables of
    ``junctions``, which only searches under a tight cap read, are built on
    first use.
    """

    def __init__(self, pres: GroupPresentation):
        self.letters: List[Letter] = []
        self.index: Dict[Letter, int] = {}
        # per code: the position of its generator and its sign, for
        # abelianising encoded words
        self.abelian: List[Tuple[int, int]] = []
        for pos, gen in enumerate(pres.generators):
            for sign in (1, -1):
                let = Letter(gen, sign)
                self.index[let] = len(self.letters)
                self.letters.append(let)
                self.abelian.append((pos, sign))
        self.inv = {}
        for let, i in self.index.items():
            self.inv[chr(i)] = chr(self.index[let.inverse()])
        # insertions: every cyclic conjugate of every relator and inverse, in
        # relator index order, reduced for searching; its letter-by-letter
        # inverse ("anti": s[p - 1] == anti[0] cancels the insertion's first
        # letter, s[p] == anti[-1] its last); and the ApplyRelator parameters
        # of the corresponding split-0 move (which inserts the unreduced
        # conjugate)
        self.insertions: List[Tuple[str, str, str, int, int, int]] = []
        # the number of each insertion, by its code
        number: Dict[str, int] = {}
        self.number = number
        for conj, (rel, sign, rot) in pres.relator_index.items():
            full = self.encode(conj)
            ins = self.reduce(full)
            if not ins or ins in number:
                continue
            number[ins] = len(self.insertions)
            anti = "".join(self.inv[c] for c in ins)
            n = len(conj)
            self.insertions.append((ins, anti, full, rel, -sign, (n - rot) % n))
        # the numbers of the insertions, and their inverses, by length: the
        # inverses are the subwords of a state that an insertion cancels
        # completely
        self.by_length: Dict[int, List[int]] = {}
        self.cancelled: Dict[int, set] = {}
        for e, (ins, anti, *_) in enumerate(self.insertions):
            self.by_length.setdefault(len(ins), []).append(e)
            self.cancelled.setdefault(len(ins), set()).add(anti[::-1])
        # every edge that is not a collapse has a reverse edge when every
        # insertion is cyclically reduced and its rotations are insertions
        self.reversible, self.repeats = self._repeats(number)
        self.basis = intlinalg.hermite_rows(
            [self.abelian_vector(self.encode(rel)) for rel in pres.relators]
        )
        self._symmetries: Optional[List[Dict[int, str]]] = None
        self._windows: Dict[Tuple[int, int], Dict[str, Tuple]] = {}

    def encode(self, w: Iterable[Letter]) -> str:
        return "".join(chr(self.index[let]) for let in w)

    def decode(self, s: str) -> Word:
        return Word(tuple(self.letters[ord(c)] for c in s))

    def abelian_vector(self, s: str) -> List[int]:
        """Exponent sum of each generator in an encoded word."""
        abelian = self.abelian
        vec = [0] * (len(self.letters) // 2)
        for c in s:
            pos, sign = abelian[ord(c)]
            vec[pos] += sign
        return vec

    def reduce(self, s: str) -> str:
        inv = self.inv
        out: List[str] = []
        for c in s:
            if out and out[-1] == inv[c]:
                out.pop()
            else:
                out.append(c)
        return "".join(out)

    def _repeats(
        self, number: Dict[str, int]
    ) -> Tuple[bool, List[Tuple[int, int, str, str]]]:
        """Whether every insertion is cyclically reduced with its rotations
        insertions (``reversible``), and per insertion number e the edges
        (e, p) that ``moves`` skips because an earlier edge, of a rotation of
        the same insertion, reaches the same state: (lo, hi, before, after).

        Inserting ins at p, where it cancels a letters before p and b after
        it, reduces alike with inserting its rotation by c letters at p - c,
        for every c from -b to a.  lo is the least c >= 1 whose rotation
        (ins[c:] + ins[:c], at p - c < p) has number at most e, and hi the
        least c >= 1 whose rotation the other way (at p + c > p) has number
        below e (m + 1 if none); when a >= lo or b >= hi an earlier edge
        yields the same state, whether or not the insertion cancels
        completely.  Likewise, when s[p - 1] == ins[-1], the unreduced word
        is that of the right rotation at p - 1, and when s[p] == ins[0] that
        of the left rotation at p + 1.  ``before`` holds the letters that
        skip the edge when they are s[p - 1]: ins[-1] when that right
        rotation's edge comes earlier, and the inverse of ins[0] when lo is
        1; ``after`` likewise for s[p], with ins[0] and the inverse of
        ins[-1] when hi is 1.  So most skipped edges are skipped before they
        are measured.  The rule needs every rotation of
        an insertion to be one, so it is off (no edge skipped) unless
        ``reversible``.  Each orbit of rotations is looked up once."""
        repeats: List = [None] * len(self.insertions)
        for e, entry in enumerate(self.insertions):
            if repeats[e] is not None:
                continue
            ins = entry[0]
            m = len(ins)
            # orbit[r]: the number of ins rotated left by r, -1 if none; e,
            # the orbit's first insertion, is its least number
            orbit = [number.get(ins[r:] + ins[:r], -1) for r in range(m)]
            if self.inv[ins[0]] == ins[-1] or -1 in orbit:
                return False, [
                    (len(other[0]) + 1, len(other[0]) + 1, "", "")
                    for other in self.insertions
                ]
            for r, f in enumerate(orbit):
                if repeats[f] is not None:
                    break  # a periodic insertion: the orbit repeats
                lo = 1
                while orbit[(r + lo) % m] > f:
                    lo += 1
                hi = 1
                while hi <= m and orbit[r - hi] >= f:
                    hi += 1
                anti = self.insertions[f][1]
                before = ins[r - 1] if orbit[r - 1] <= f else ""
                after = ins[r] if orbit[(r + 1) % m] < f else ""
                repeats[f] = (
                    lo,
                    hi,
                    before + anti[0] if lo == 1 else before,
                    after + anti[-1] if hi == 1 else after,
                )
        return True, repeats

    def moves(self, s: str, cap: int) -> Iterable[Tuple[str, Tuple, int]]:
        """The search edges (t, insertion, p) out of the reduced state s with
        len(t) <= cap, where t = reduce(s[:p] + full + s[p:]) for the
        insertion's unreduced conjugate ``full``; insertions in order, then
        positions ascending.  An edge is skipped when an earlier edge, of a
        rotation of its insertion, yields the same t (``_repeats``).  So the
        edges yielded are a subsequence of all of them that holds the first
        edge to every successor: ``_Ball.grow``, ``find_filling`` and
        ``edge_moves``, which keep first occurrences, see the same edges.

        By confluence only the junctions cancel (and, when the insertion
        cancels completely, the halves of s), so len(t) is measured before t
        is sliced.  An insertion of length m fits only where at least
        ceil((n + m - cap) / 2) of its letters cancel.  With slack (none
        need cancel) every position is measured; otherwise only those
        ``junctions`` returns for ``need``, that count but at most
        ceil(m / 2).  Within the cap (n <= cap) the count never exceeds
        ceil(m / 2); a larger one, as when ``edge_moves`` seeks an edge to a
        shorter word, gets a superset of its positions from the shorter
        windows, so a presentation keeps at most ceil(m / 2) window tables
        per insertion length m.
        """
        inv = self.inv
        n = len(s)
        every = range(n + 1)
        # the positions to measure, per insertion number
        plan: Dict[int, Iterable[int]] = {}
        for m, group in self.by_length.items():
            need = min((n + m - cap + 1) // 2, (m + 1) // 2)
            if need <= 0:
                plan.update(dict.fromkeys(group, every))
            else:
                plan.update(self.junctions(s, m, need))
        for e in sorted(plan):
            entry = self.insertions[e]
            ins, anti = entry[0], entry[1]
            lo, hi, before, after = self.repeats[e]
            m = len(ins)
            for p in plan[e]:
                if p and s[p - 1] in before or p < n and s[p] in after:
                    continue
                i, j = p, 0
                while i and j < m and s[i - 1] == anti[j]:
                    i -= 1
                    j += 1
                if j >= lo:
                    continue
                k, j2 = p, m
                while k < n and j2 > j and s[k] == anti[j2 - 1]:
                    k += 1
                    j2 -= 1
                if k - p >= hi:
                    continue
                if j2 > j:
                    if n + m - 2 * (k - i) <= cap:
                        yield s[:i] + ins[j:j2] + s[k:], entry, p
                    continue
                while i and k < n and s[i - 1] == inv[s[k]]:
                    i -= 1
                    k += 1
                if n - (k - i) <= cap:
                    yield s[:i] + s[k:], entry, p

    def junctions(self, s: str, m: int, need: int) -> Dict[int, List[int]]:
        """The positions worth measuring when at least ``need`` >= 1 letters
        of an insertion of length m must cancel: per insertion number that
        has any, ascending.

        The letters of s that cancel at p read as the insertion's inverse:
        before p, a suffix of it; from p on, a prefix.  When ``need`` or more
        cancel, the ``need`` letters of s from p - min(a, need) on, with a
        the letters cancelled before p, are such a window cut at p.  The
        table for (m, need) maps every window of every insertion of length
        m, cut at each of its need + 1 places, to the insertion numbers and
        the cuts; it is built on first use, and p is a matching window's
        start plus its cut.  For need = 1 the positions are those next to a
        letter of s that cancels an end of the insertion."""
        table = self._windows.get((m, need))
        if table is None:
            pairs: Dict[str, Tuple[List[int], List[int]]] = {}
            for e in self.by_length[m]:
                inverse = self.insertions[e][1][::-1]
                # the window's first `cut` letters end the inverse, and the
                # rest start it
                for cut in range(need + 1):
                    window = inverse[m - cut:] + inverse[:need - cut]
                    numbers, cuts = pairs.setdefault(window, ([], []))
                    numbers.append(e)
                    cuts.append(cut)
            # a tuple of numbers and one of cuts per window, not a tuple per
            # pair, keeps the tables small beside a search's own states
            table = self._windows[m, need] = {
                window: (tuple(numbers), tuple(cuts))
                for window, (numbers, cuts) in pairs.items()
            }
        found: Dict[int, set] = {}
        for q in range(len(s) - need + 1):
            hit = table.get(s[q:q + need])
            if hit:
                for e, cut in zip(*hit):
                    found.setdefault(e, set()).add(q + cut)
        return {e: sorted(found[e]) for e in found}

    def collapses(self, s: str) -> Iterable[str]:
        """The collapse targets of the reduced state s: for each subword of s
        that an insertion cancels completely and that lies between two
        mutually inverse letters, s with the subword removed and its halves
        reduced against each other, as in u r u^-1 -> empty.

        Every collapse target is a successor in ``moves``.  When
        ``reversible``, s is a successor of every other successor t of s, so
        a search edge without a reverse edge is a collapse.
        """
        inv = self.inv
        n = len(s)
        for m, cancelled in self.cancelled.items():
            for i in range(1, n - m):
                k = i + m
                if s[i - 1] == inv[s[k]] and s[i:k] in cancelled:
                    while i and k < n and s[i - 1] == inv[s[k]]:
                        i -= 1
                        k += 1
                    yield s[:i] + s[k:]

    def symmetries(self) -> List[Dict[int, str]]:
        """Signed generator permutations that map the set of insertions onto
        itself, as ``str.translate`` tables on codes: the identity first,
        then at most ``_SYMMETRY_LIMIT`` in all.  Each maps the search graph
        at every length cap onto itself.  Built on first use, since only
        ``dehn_sample`` reads it."""
        if self._symmetries is None:
            self._symmetries = _symmetries(self)
        return self._symmetries

    def edge_moves(self, s: str, d: str) -> List:
        """Explicit moves realizing one search edge s -> d (reduced, encoded):
        the split-0 insertion of the first edge out of s that ends at d, then
        the free contractions.  Every edge comes from a search, so none
        joining s to d is a defect in fillcalc."""
        for t, (_, _, full, rel, sign, rot), p in self.moves(s, len(d)):
            if t == d:
                moves = [ApplyRelator(p, rel, sign, rot, 0)]
                moves.extend(contraction_moves(self.decode(s[:p] + full + s[p:])))
                return moves
        raise InternalCheckError(
            f"search states {self.decode(s)} and {self.decode(d)} are not adjacent"
        )


# the most automorphisms a Dehn sweep collects, and the most generator
# images tried once the identity is found: any set that holds the identity
# gives the same results, and a free group on n generators has n! 2^n
_SYMMETRY_LIMIT = 64
_SYMMETRY_TRIES = 50_000


def _symmetries(coder: _Coder) -> List[Dict[int, str]]:
    """Backtrack over generator images in generator order.  Each generator
    tries itself first, then every unused generator with the same occurrence
    profile (its count in each insertion, as a multiset), with either sign;
    an insertion is checked once its last generator has an image.  The
    identity is the first table found, after n tries; the search stops at
    ``_SYMMETRY_LIMIT`` tables, or after ``_SYMMETRY_TRIES`` images tried."""
    words = {entry[0] for entry in coder.insertions}
    n = len(coder.letters) // 2
    due: List[List[str]] = [[] for _ in range(n)]
    for ins in words:
        due[max(ord(c) >> 1 for c in ins)].append(ins)
    profile = [sorted(sum(ord(c) >> 1 == g for c in ins) for ins in words)
               for g in range(n)]
    table: Dict[int, str] = {}
    used = [False] * n
    found: List[Dict[int, str]] = []
    tries = 0

    def extend(g: int) -> bool:
        """Complete the images from generator g on; True once the search stops."""
        nonlocal tries
        if g == n:
            found.append(dict(table))
            return len(found) >= _SYMMETRY_LIMIT
        for t in sorted(range(n), key=lambda t: t != g):
            if used[t] or profile[t] != profile[g]:
                continue
            used[t] = True
            for sign in (0, 1):
                tries += 1
                if found and tries > _SYMMETRY_TRIES:
                    return True
                table[2 * g] = chr(2 * t + sign)
                table[2 * g + 1] = chr(2 * t + 1 - sign)
                if all(ins.translate(table) in words for ins in due[g]):
                    if extend(g + 1):
                        return True
            used[t] = False
        return False

    extend(0)
    return found


def _coder(pres: GroupPresentation) -> _Coder:
    coder = pres._search_tables
    if coder is None:
        coder = pres._search_tables = _Coder(pres)
    return coder


def _chain(parent: Dict[str, str], s: str, root: str) -> List[str]:
    """s, its parent, its parent's parent, and so on up to root."""
    out = [s]
    while out[-1] != root:
        out.append(parent[out[-1]])
    return out


def _witnessed(
    pres: GroupPresentation,
    coder: _Coder,
    w: Word,
    path: List[str],
    states: int,
    area: Optional[int] = None,
) -> AreaResult:
    """The "area" result of a search path from w's reduced code to the empty
    word.  Its witness, applied once by the walk that builds its record, must
    reach the empty word with exactly ``area`` relator moves if one is claimed."""
    moves = contraction_moves(w)
    for a, b in zip(path, path[1:]):
        moves.extend(coder.edge_moves(a, b))
    seq = DerivationSequence(w, moves)
    try:
        rec = _record_of(pres, seq)
    except MalformedMoveError as exc:
        raise InternalCheckError(f"witness for {w}: {exc}") from exc
    if rec.final or area not in (None, seq.area):
        claim = "" if area is None else f" with area {area}"
        raise InternalCheckError(f"witness for {w} replays to {Word._of(rec.final)} with "
                                 f"area {seq.area}, not to the empty word{claim}")
    return AreaResult("area", seq.area, _recorded(w, moves, rec), area or 0, states)


class _Ball:
    """One side of an exact area search: the states reachable from ``root``
    within the length cap, grown breadth-first on demand.

    ``levels[d]`` lists the states at distance d in discovery order, and
    ``ends[d][i]`` is where the states first reached from ``levels[d][i]``
    end in ``levels[d + 1]``.  The ball grows one expanded state at a time,
    in breadth-first order, so it always holds complete levels and then a
    prefix of the next one; a search cut inside a level leaves such a
    prefix, which the next search through the same ball resumes.
    Breadth-first growth from a fixed root at a fixed cap is deterministic,
    so the side rooted at the empty word serves every search with that cap.
    """

    def __init__(self, coder: _Coder, cap: int, root: str):
        self.coder = coder
        self.cap = cap
        self.dist = {root: 0}
        self.parent: Dict[str, str] = {}
        self.levels: List[List[str]] = [[root]]
        self.ends: List[List[int]] = [[]]

    def grow(self, d: int) -> None:
        """Expand the first state of level d that is not yet expanded."""
        ends = self.ends[d]
        if not ends:
            self.levels.append([])
            self.ends.append([])
        s = self.levels[d][len(ends)]
        level, dist, parent = self.levels[d + 1], self.dist, self.parent
        for t, _, _ in self.coder.moves(s, self.cap):
            if t not in dist:
                dist[t] = d + 1
                parent[t] = s
                level.append(t)
        ends.append(len(level))


def _search_start(
    pres: GroupPresentation, w: Word, budget: SearchBudget
) -> AreaResult | Tuple[_Coder, int, str]:
    """The verdict an exact search returns without searching (w reduces to
    the empty word, is longer than the cap, or is off the relator lattice),
    or else the search tables, the length cap and w's reduced code."""
    pres.check_word(w)
    coder = _coder(pres)
    cap = budget.length_cap(w, pres)
    start = coder.reduce(coder.encode(w))
    if start == "":
        return _witnessed(pres, coder, w, [start], 1, area=0)
    if len(start) > cap:
        return AreaResult("budget-exhausted", lower_bound=1, states=0)
    if not intlinalg.in_lattice(coder.basis, coder.abelian_vector(start)):
        return AreaResult("not-null-homotopic", states=0)
    return coder, cap, start


def area_exact(
    pres: GroupPresentation, w: Word, budget: SearchBudget = DEFAULT_BUDGET
) -> AreaResult:
    """Minimal relator-application count of any null sequence for w whose
    freely reduced intermediate words stay within the budget's length cap.

    Bidirectional breadth-first search between w and the empty word; the
    path through the meet point yields a witness sequence, which is
    replay-validated before being returned.  The search may return before
    it has expanded the whole level of its first meet; see ``_area``.
    """
    return _area(pres, w, budget, {})


def _area(
    pres: GroupPresentation, w: Word, budget: SearchBudget, balls: Dict[int, _Ball]
) -> AreaResult:
    """area_exact, taking the side rooted at the empty word from ``balls``
    (one ball per length cap, added when missing).  A search sees only the
    levels it has reached itself, so its result does not depend on what
    earlier searches grew.

    After the first meet in a level the search finishes the expanded
    state's successors and returns, unless a collapse out of a later state
    of the level could still find a smaller meet; only then does it expand
    the rest of the level.  The result is the one the whole level gives,
    except for ``states``."""
    clock = _Clock(budget)
    found = _search_start(pres, w, budget)
    if isinstance(found, AreaResult):
        return found
    coder, cap, start = found
    empty = balls.get(cap)
    if empty is None:
        empty = balls[cap] = _Ball(coder, cap, "")
    sides = (_Ball(coder, cap, start), empty)
    depth = [0, 0]
    best: Optional[Tuple[int, str]] = None

    def finish(meet: str, states: int) -> AreaResult:
        path = _chain(sides[0].parent, meet, start)[::-1]
        path += _chain(sides[1].parent, meet, "")[1:]
        return _witnessed(pres, coder, w, path, states, best[0])

    def stop(states: int) -> AreaResult:
        """A budget cut, possibly inside a level: the meet found in it, else
        the lower bound the completed levels prove."""
        lower = depth[0] + depth[1] + 1
        if best is not None:
            return finish(best[1], states)
        return AreaResult("budget-exhausted", lower_bound=lower, states=states)

    # the states this search has reached on both sides, counted as a fresh
    # search adds them: the two roots, then each state as it is reached
    states = 2
    max_states = budget.max_states
    # a meet found expanding level d lies at depth e <= reached on the other
    # side, so it totals at most the lower bound the completed levels prove
    while True:
        frontier = (sides[0].levels[depth[0]], sides[1].levels[depth[1]])
        if not frontier[0] or not frontier[1]:
            return AreaResult(
                "not-null-homotopic", lower_bound=depth[0] + depth[1] + 1, states=states
            )
        if states > max_states or (
            budget.max_area is not None and depth[0] + depth[1] + 1 > budget.max_area
        ):
            return stop(states)
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, other, reached = sides[side], sides[1 - side].dist, depth[1 - side]
        d = depth[side]
        ends = mine.ends[d]
        lo = 0
        checked = False
        for i in range(len(frontier[side])):
            if clock.expired():
                return stop(states)
            if i == len(ends):
                mine.grow(d)
            hi = ends[i]
            for t in mine.levels[d + 1][lo:hi]:
                states += 1
                # the other side may have grown past this search's levels
                e = other.get(t)
                if e is not None and e <= reached:
                    if best is None or d + 1 + e < best[0]:
                        best = (d + 1 + e, t)
                if states > max_states:
                    return stop(states)
            lo = hi
            if best is not None and not checked:
                checked = True
                # The completed levels hold no meet.  If t, reached from s
                # by an edge with a reverse edge, were on the other side at
                # depth e < reached, s would be there at depth e + 1, a
                # meet in the completed levels.  So every later meet but a
                # collapse totals d + 1 + reached >= best, and only a
                # collapse out of a later state of this level that reaches
                # the other side at depth <= bound can beat best.
                bound = best[0] - d - 2
                if coder.reversible and (
                    bound < 0
                    or not any(
                        other.get(t, bound + 1) <= bound
                        for later in frontier[side][i + 1:]
                        for t in coder.collapses(later)
                    )
                ):
                    return finish(best[1], states)
        if best is not None:
            return finish(best[1], states)
        depth[side] = d + 1


def two_step_filling(pres: GroupPresentation, w: Word) -> Optional[DerivationSequence]:
    """The filling w -> t -> 1 of area 2 through the least-numbered insertion
    t one search edge from w's reduced code, replayed; None when w has no
    such t or has a filling of area 0 or 1.

    It is the witness ``area_exact`` returns for w under any budget that
    admits w, every insertion and area 2.  The search first expands w,
    which meets the empty word only at area 1.  It then expands the empty
    word, whose successors are the insertions in number order; the first
    of them that w reaches is the meet, since every meet of that level
    totals 2, and the search returns it with the same edges.  (When w has
    at most one successor the search expands w again, and meets the empty
    word behind that successor, which is this t.)"""
    pres.check_word(w)
    coder = _coder(pres)
    start = coder.reduce(coder.encode(w))
    if not start:
        return None
    found = [t for t, _, _ in coder.moves(start, max(coder.by_length, default=0))]
    number = coder.number
    meet = min((t for t in found if t in number), key=number.get, default=None)
    if meet is None or "" in found:
        return None
    return _witnessed(pres, coder, w, [start, meet, ""], 0, area=2).witness


def find_filling(
    pres: GroupPresentation, w: Word, budget: SearchBudget = DEFAULT_BUDGET
) -> AreaResult:
    """Greedy (length-first) search for some filling of w, not necessarily of
    minimal area; useful when only null-homotopy needs certifying.  As in
    area_exact, a reduced word longer than the cap exhausts the budget.  No
    path runs deeper than the budget's ``max_area``; a search cut there
    that finds no filling exhausts the budget."""
    clock = _Clock(budget)
    found = _search_start(pres, w, budget)
    if isinstance(found, AreaResult):
        return found
    coder, cap, start = found
    dist = {start: 0}
    parent: Dict[str, str] = {}
    heap = [(len(start), 0, start)]
    cut = False
    while heap:
        if clock.expired():
            return AreaResult("budget-exhausted", lower_bound=1, states=len(dist))
        _, d, s = heapq.heappop(heap)
        if d == budget.max_area:
            cut = True
            continue
        for t, _, _ in coder.moves(s, cap):
            if t in dist:
                continue
            dist[t] = d + 1
            parent[t] = s
            if t == "":
                path = _chain(parent, t, start)[::-1]
                return _witnessed(pres, coder, w, path, len(dist))
            if len(dist) > budget.max_states:
                return AreaResult("budget-exhausted", lower_bound=1, states=len(dist))
            heapq.heappush(heap, (len(t), d + 1, t))
    if cut:
        return AreaResult("budget-exhausted", lower_bound=1, states=len(dist))
    return AreaResult("not-null-homotopic", states=len(dist))


@dataclass(frozen=True)
class DehnStats:
    """Where a Dehn sweep's words went.  A prefix farther (L1) from the
    relator lattice than its letters left can close is ``pruned`` with its
    subtree, which holds no null-homotopic word.  Every other word is
    ``enumerated``, and then rejected as not cyclically reduced, rejected
    as off the relator lattice, a cyclic duplicate of a word already met,
    decided through a symmetry of the presentation (``symmetric``: its
    class is the image of a searched one), or searched.
    ``search_states`` sums the searches' ``states``; ``empty_side_states``
    counts the states grown on the empty-word side, which the searches of
    one cap share."""

    enumerated: int = 0
    not_cyclically_reduced: int = 0
    off_lattice: int = 0
    cyclic_duplicates: int = 0
    symmetric: int = 0
    searched: int = 0
    search_states: int = 0
    empty_side_states: int = 0
    pruned: int = 0


@dataclass(frozen=True)
class DehnSample:
    kind: str  # "value" | "budget-exhausted"
    value: Optional[int] = None
    witness: Optional[Word] = None
    words_checked: int = 0
    stats: DehnStats = field(default=DehnStats(), compare=False)


def _cyclic_key(s: str, inv: Mapping[str, str]) -> str:
    if not s:
        return s
    variants = [s[i:] + s[:i] for i in range(len(s))]
    t = "".join(inv[c] for c in reversed(s))
    variants.extend(t[i:] + t[:i] for i in range(len(t)))
    return min(variants)


def _coset_graph(coder: _Coder, length: int) -> Tuple[List[int], List[Dict[str, int]]]:
    """The cosets of the relator lattice within L1 distance ``length`` of
    it, numbered by one breadth-first search with steps ±e_i from the
    lattice itself, coset 0 (``intlinalg.coset`` names each coset by its
    canonical representative): each coset's distance, and for each coset
    nearer than ``length`` the coset each letter code moves it to."""
    zero = (0,) * (len(coder.letters) // 2)
    number = {zero: 0}
    cosets, dist, moves = [zero], [0], []
    # the loop reads the cosets it appends, in order of distance
    for k, v in enumerate(cosets):
        if dist[k] == length:
            break
        row = {}
        for c, (pos, sign) in enumerate(coder.abelian):
            u = list(v)
            u[pos] += sign
            u = intlinalg.coset(coder.basis, u)
            if u not in number:
                number[u] = len(cosets)
                cosets.append(u)
                dist.append(dist[k] + 1)
            row[chr(c)] = number[u]
        moves.append(row)
    return dist, moves


def _reduced_words(coder: _Coder, length: int, counts: Counter) -> Iterable[str]:
    """The words a Dehn sweep decides: every nonempty, cyclically reduced
    encoded word of length <= ``length`` on the relator lattice, depth
    first (a word, then each one-letter extension in code order), so the
    words of one length come in lexicographic code order.

    A null-homotopic word has abelian image 0, so each prefix carries its
    coset in ``_coset_graph``, and a prefix farther (L1) from the lattice
    than the letters left is cut with its subtree.  ``counts`` (a
    ``Counter``) tallies the words under the names of the ``DehnStats``
    fields they count.
    """
    inv = coder.inv
    dist, moves = _coset_graph(coder, length)
    # the empty word is the root, and no word
    stack = [("", 0)]
    while stack:
        s, k = stack.pop()
        if s:
            counts["enumerated"] += 1
            if inv[s[0]] == s[-1]:
                counts["not_cyclically_reduced"] += 1
            elif k:
                counts["off_lattice"] += 1
            else:
                yield s
        left = length - len(s)
        if not left:
            continue
        back = inv[s[-1]] if s else ""
        for c, u in reversed(moves[k].items()):
            if c == back:
                continue
            if dist[u] < left:
                stack.append((s + c, u))
            else:
                counts["pruned"] += 1


def dehn_sample(
    pres: GroupPresentation, length: int, budget: SearchBudget = DEFAULT_BUDGET
) -> DehnSample:
    """Max area over null-homotopic words of length <= the given bound.

    Decides each word ``_reduced_words`` yields as area_exact does, one per
    cyclic class (area is invariant under cyclic conjugation, inversion and
    free reduction).  A class that a symmetry of the
    presentation (``_Coder.symmetries``) carries onto a searched class has
    that class's verdict and area, so it is counted in ``words_checked``
    but not searched; its area never exceeds the maximum already found, so
    the witness is the first maximal word enumerated.  The searches of one
    length cap share the side rooted at the empty word, which changes no
    result.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    coder = _coder(pres)
    inv = coder.inv
    best = 0
    best_witness: Word = EMPTY
    clock = _Clock(budget)
    # the images of the searched classes
    decided = set()
    balls: Dict[int, _Ball] = {}
    kind = "value"
    counts: Counter = Counter()
    for s in _reduced_words(coder, length, counts):
        if clock.expired():
            kind = "budget-exhausted"
            break
        # a class's words are all yielded and have one length, so the first
        # of them yielded is its key
        key = _cyclic_key(s, inv)
        if key != s:
            counts["cyclic_duplicates"] += 1
            continue
        if key in decided:
            counts["symmetric"] += 1
            continue
        w = coder.decode(s)
        result = _area(pres, w, budget, balls)
        counts["searched"] += 1
        counts["search_states"] += result.states
        if result.kind == "budget-exhausted":
            kind = "budget-exhausted"
            break
        if result.kind == "area" and result.area > best:
            best, best_witness = result.area, w
        decided.update(_cyclic_key(s.translate(phi), inv) for phi in coder.symmetries())
    counts["empty_side_states"] = sum(len(ball.dist) for ball in balls.values())
    stats = DehnStats(**counts)
    checked = stats.searched + stats.symmetric
    if kind == "budget-exhausted":
        return DehnSample(kind, words_checked=checked, stats=stats)
    return DehnSample(kind, best, best_witness, checked, stats)


class DirectProductSpec:
    """A direct product of free groups: per-factor alphabets, the combined
    commutator relator set, and an optional charge map, which must charge
    every factor generator."""

    def __init__(
        self,
        factors: Sequence[Sequence[str]],
        theta: Optional[ChargeMap] = None,
    ):
        self.factors = tuple(tuple(f) for f in factors)
        self.factor_of: Dict[str, int] = {}
        for i, alphabet in enumerate(self.factors):
            for gen in alphabet:
                if gen in self.factor_of:
                    raise ValueError(f"generator {gen!r} occurs in two factors")
                self.factor_of[gen] = i
                if theta is not None and gen not in theta:
                    raise ValueError(f"generator {gen!r} of factor {i + 1} has no charge")
        self.theta = theta

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def all_generators(self) -> Tuple[str, ...]:
        return tuple(g for f in self.factors for g in f)

    def commutator_relators(self) -> List[Word]:
        gens = [[Word((Letter(g, 1),)) for g in f] for f in self.factors]
        return [
            commutator(x, y)
            for i, first in enumerate(gens)
            for second in gens[i + 1 :]
            for x in first
            for y in second
        ]

    def presentation(self) -> GroupPresentation:
        return GroupPresentation(self.all_generators(), self.commutator_relators())

    def check_word(self, w: Word) -> None:
        extra = w.generators() - set(self.factor_of)
        if extra:
            raise AlphabetMismatchError(f"unknown generators {sorted(extra)}")

    def projection(self, w: Word, i: int) -> Word:
        return Word(tuple(let for let in w if self.factor_of[let.gen] == i))

    def normal_form(self, w: Word) -> Tuple[str, ...]:
        self.check_word(w)
        return tuple(
            str(free_reduce(self.projection(w, i))) for i in range(self.n_factors)
        )


def dp_equal(spec: DirectProductSpec, w1: Word, w2: Word) -> bool:
    """Exact word problem for a direct product of free groups: w1 and w2
    are equal exactly when their per-factor projections reduce alike."""
    return spec.normal_form(w1) == spec.normal_form(w2)


def _adjacency(delta) -> Mapping[str, frozenset]:
    if hasattr(delta, "adjacency"):
        return delta.adjacency
    return delta


def _pile_reduce(adj: Mapping[str, frozenset], w: Word) -> List[Letter]:
    out: List[Letter] = []
    for let in w:
        if let.gen not in adj:
            raise AlphabetMismatchError(f"unknown vertex {let.gen!r}")
        j = len(out) - 1
        cancel = None
        while j >= 0:
            prev = out[j]
            if prev.gen == let.gen:
                if prev.sign == -let.sign:
                    cancel = j
                break
            if let.gen not in adj[prev.gen]:
                break
            j -= 1
        if cancel is not None:
            out.pop(cancel)
        else:
            out.append(let)
    return out


def raag_normal_form(delta, w: Word) -> Word:
    """Left-greedy normal form in a right-angled Artin group: cancel through
    commuting letters, then emit the lexicographically least available letter
    first.  Canonical per group element."""
    adj = _adjacency(delta)
    rest = _pile_reduce(adj, w)
    out: List[Letter] = []
    while rest:
        # a letter is available iff every letter before it commutes with it
        available: List[Tuple[Tuple[str, int], int]] = []
        blocked = set()
        for i, let in enumerate(rest):
            if let.gen not in blocked:
                available.append(((let.gen, -let.sign), i))
            blocked.add(let.gen)
            blocked.update(g for g in adj if g not in adj[let.gen])
        _, idx = min(available)
        out.append(rest.pop(idx))
    return Word(out)


def raag_equal(delta, w1: Word, w2: Word) -> bool:
    """Exact word problem for the right-angled Artin group of a flag complex:
    w1 w2^-1 piles down to nothing."""
    adj = _adjacency(delta)
    return not _pile_reduce(adj, concat(w1, w2.inverse()))


def free_normal_form(w: Word) -> str:
    return str(free_reduce(w))


class _OverBudget(Exception):
    """A breadth-first search passed a budget; its argument is the last level
    it completed."""


def _cayley_levels(generators, normal_form, budget, clock, max_radius=None):
    """Breadth-first search over products of the generators and their
    inverses, deduplicated by the normal form, out to `max_radius` levels
    (None: until a level adds nothing).  Yields (radius, key, word) as each
    element is first reached, the identity first at radius 0.  Budgets are
    caps: the clock is read once per expanded element and elements are
    counted as they are added; the element that passes `max_states` is
    yielded, then `_OverBudget` is raised."""
    steps = [s for g in generators for s in (g, g.inverse())]
    key = normal_form(EMPTY)
    seen = {key}
    yield 0, key, EMPTY
    frontier = [EMPTY]
    radius = 0
    while frontier and radius != max_radius:
        radius += 1
        level = []
        for wrep in frontier:
            if clock.expired():
                raise _OverBudget(radius - 1)
            for g in steps:
                nxt = free_reduce(concat(wrep, g))
                key = normal_form(nxt)
                if key not in seen:
                    seen.add(key)
                    yield radius, key, nxt
                    if len(seen) > budget.max_states:
                        raise _OverBudget(radius - 1)
                    level.append(nxt)
        frontier = level


def cayley_distance(
    generators: Sequence[Word],
    target: Word,
    normal_form: Callable[[Word], object],
    budget: SearchBudget = DEFAULT_BUDGET,
) -> DistanceResult:
    """Word-metric distance from the identity to the target, by breadth-first
    search over products of the given generators, deduplicated through the
    supplied normal-form procedure, out to `budget.max_area` levels."""
    target_key = normal_form(target)
    levels = _cayley_levels(
        generators, normal_form, budget, _Clock(budget), budget.max_area
    )
    try:
        for radius, key, w in levels:
            if key == target_key:
                return DistanceResult("distance", radius, w, radius)
    except _OverBudget as cut:
        return DistanceResult("not-reached", radius_explored=cut.args[0])
    # the radius limit stopped the search, or an empty level, counted as explored
    explored = radius if radius == budget.max_area else radius + 1
    return DistanceResult("not-reached", radius_explored=explored)


@dataclass(frozen=True)
class DistortionSample:
    kind: str  # "value" | "budget-exhausted"
    value: Optional[int] = None
    table: Tuple[Tuple[str, int], ...] = ()


def distortion_sample(
    sub_generators: Sequence[Word],
    ambient_generators: Sequence[Word],
    length: int,
    normal_form: Callable[[Word], object],
    budget: SearchBudget = DEFAULT_BUDGET,
    theta: Optional[ChargeMap] = None,
    membership: Optional[Callable[[Word], bool]] = None,
) -> DistortionSample:
    """Distortion at radius `length`: the largest subgroup-metric length among
    subgroup members of the ambient ball.  Membership is decided by zero
    charge when a charge map defines the subgroup, else by the supplied
    procedure."""
    if theta is None and membership is None:
        raise MembershipUndecidableError("supply a ChargeMap or a membership procedure")
    if length < 0:
        raise ValueError("length must be non-negative")

    def member(w: Word) -> bool:
        return membership(w) if theta is None else not any(charge(theta, w))

    clock = _Clock(budget)
    dist: Dict[object, int] = {}
    try:
        ball = _cayley_levels(ambient_generators, normal_form, budget, clock, length)
        members = {key: w for _, key, w in ball if member(w)}
        remaining = set(members)
        sub = _cayley_levels(sub_generators, normal_form, budget, clock)
        for radius, key, _ in sub:
            dist[key] = radius
            remaining.discard(key)
            if not remaining:
                break
    except _OverBudget:
        return DistortionSample("budget-exhausted")
    if remaining:
        return DistortionSample("budget-exhausted")
    table = tuple(sorted((str(w), dist[key]) for key, w in members.items()))
    value = max((d for _, d in table), default=0)
    return DistortionSample("value", value, table)


def noise(expr: FillingExpression) -> int:
    """||u_1|| + sum ||u_i^-1 u_{i+1}|| + ||u_N|| over the conjugators."""
    conjs = [c for c, _, _ in expr.terms]
    if not conjs:
        return 0
    total = len(free_reduce(conjs[0])) + len(free_reduce(conjs[-1]))
    for a, b in zip(conjs, conjs[1:]):
        total += len(free_reduce(concat(a.inverse(), b)))
    return total


@dataclass(frozen=True)
class LowNoiseResult:
    kind: str  # "found" | "not-found"
    expression: Optional[FillingExpression] = None
    noise: Optional[int] = None
    bound: Optional[int] = None
    area: Optional[int] = None


def low_noise_search(
    pres: GroupPresentation, w: Word, budget: SearchBudget = DEFAULT_BUDGET
) -> LowNoiseResult:
    """An expression for w of minimal area N whose conjugators drift by at
    most |w| + 2LN in total.

    The minimal-area witness sequence is converted to an expression, then the
    conjugators are locally rewritten (free reduction plus appending relator
    powers, which leaves each term's value unchanged) with the total drift
    minimized by dynamic programming over the power choices.
    """
    result = area_exact(pres, w, budget)
    if result.kind == "not-null-homotopic":
        raise NotNullHomotopicError(f"{w} is not null-homotopic within the cap")
    if result.kind == "budget-exhausted":
        return LowNoiseResult("not-found")
    n = result.area
    bound = len(w) + 2 * pres.max_relator_length * n
    expr = sequence_to_expression(pres, result.witness)
    terms = [(free_reduce(c), rel, sign) for c, rel, sign in expr.terms]
    if not terms:
        return LowNoiseResult("found", FillingExpression(()), 0, bound, 0)

    powers = (-2, -1, 0, 1, 2)
    variants: List[List[Word]] = []
    for conj, rel, sign in terms:
        base = pres.relators[rel] if sign > 0 else pres.relators[rel].inverse()
        row = []
        for m in powers:
            tail = Word(base.letters * m) if m >= 0 else Word(base.inverse().letters * -m)
            row.append(free_reduce(concat(conj, tail)))
        variants.append(row)

    # dynamic programme over the power choice per term
    k = len(powers)
    costs = [[len(u) for u in variants[0]]]
    back: List[List[int]] = []
    for i in range(1, len(variants)):
        row = []
        brow = []
        for b in range(k):
            best, arg = None, 0
            for a in range(k):
                c = costs[-1][a] + len(
                    free_reduce(concat(variants[i - 1][a].inverse(), variants[i][b]))
                )
                if best is None or c < best:
                    best, arg = c, a
            row.append(best)
            brow.append(arg)
        costs.append(row)
        back.append(brow)
    finals = [costs[-1][b] + len(variants[-1][b]) for b in range(k)]
    choice = [min(range(k), key=lambda b: finals[b])]
    for brow in reversed(back):
        choice.append(brow[choice[-1]])
    choice.reverse()

    new_terms = [
        (variants[i][choice[i]], terms[i][1], terms[i][2]) for i in range(len(terms))
    ]
    out = FillingExpression(new_terms)
    got = noise(out)
    if got <= bound:
        return LowNoiseResult("found", out, got, bound, n)
    return LowNoiseResult("not-found", out, got, bound, n)
