"""Flag complexes and the kernel groups of their right-angled Artin groups.

The kernel of the map sending every vertex generator to a fixed integer unit
is presented on directed edges, with relators cancelling an edge against its
reverse and collapsing triangle cycles.  This module builds those
presentations, spanning-tree power words, the shift endomorphism, the indexed
relator families of the associated infinite presentation, and replayable
filling sequences whose measured areas stay within the quadratic envelopes
that feed the quartic isoperimetric bound."""

from __future__ import annotations

import itertools
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .constructors import IndexedRelator
from .oracle import SearchBudget, area_exact, two_step_filling
from .rewriting import (
    DerivationSequence,
    GroupPresentation,
    InternalCheckError,
    NotNullError,
    mirror_sequence,
    replay_sequence,
    reverse_sequence,
)
from .seqbuild import WordEditor
from .words import EMPTY, GENERATOR_NAME, Letter, Word, concat, free_reduce, word, wpow

__all__ = [
    "FlagComplex",
    "SpanningTree",
    "NullHomotopyMove",
    "CombinatorialNullHomotopy",
    "check_flag",
    "raag_presentation",
    "dicks_leary_presentation",
    "edge_embedding",
    "spanning_tree",
    "tree_word",
    "bb_phi",
    "edge_conjugation_word",
    "bb_indexed_families",
    "find_null_homotopy",
    "null_homotopy_to_sequence",
    "bb_relator_scheme",
    "scheme_bound",
    "member_scheme",
    "rarea_sample",
    "triangle_complex",
    "octahedron_complex",
]

Edge = Tuple[str, str]
# bb_phi's letter images, keyed by (letter, n), for one complex and tree
Images = Dict[Tuple[Letter, int], Tuple[Letter, ...]]


class FlagComplex:
    """A finite flag complex given by its one-skeleton; simplices are the
    cliques, so only the graph and a base vertex are stored."""

    def __init__(self, vertices: Sequence[str], edges: Iterable[Tuple[str, str]],
                 base: Optional[str] = None):
        self.vertices = tuple(dict.fromkeys(vertices))
        if not self.vertices:
            raise ValueError("a flag complex needs at least one vertex")
        for v in self.vertices:
            # edge letters are named u_v and split at the first underscore
            if "_" in v:
                raise ValueError(f"vertex name {v!r} contains '_'")
            if not GENERATOR_NAME.match(v):
                raise ValueError(f"vertex name {v!r} is not a generator name")
        vset = set(self.vertices)
        pairs = set()
        for u, v in edges:
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertices")
            if u == v:
                raise ValueError(f"loop at {u!r}: the graph must be simple")
            pairs.add(frozenset((u, v)))
        self.edge_set = frozenset(pairs)
        self.base = base if base is not None else self.vertices[0]
        if self.base not in vset:
            raise ValueError(f"unknown base vertex {self.base!r}")
        self.adjacency: Dict[str, frozenset] = {
            v: frozenset(
                u for u in self.vertices if frozenset((u, v)) in self.edge_set
            )
            for v in self.vertices
        }

    def triangles(self) -> List[Tuple[str, str, str]]:
        out = []
        for trio in itertools.combinations(self.vertices, 3):
            u, v, w = trio
            if (
                v in self.adjacency[u]
                and w in self.adjacency[u]
                and w in self.adjacency[v]
            ):
                out.append(trio)
        return out

    def directed_edges(self) -> List[Edge]:
        out = []
        for pair in sorted(self.edge_set, key=sorted):
            u, v = sorted(pair)
            out.append((u, v))
            out.append((v, u))
        return out

    def edge_letter(self, e: Edge, sign: int = 1) -> Letter:
        if frozenset(e) not in self.edge_set:
            raise ValueError(f"({e[0]}, {e[1]}) is not an edge")
        return Letter(f"{e[0]}_{e[1]}", sign)

    def letter_edge(self, gen: str) -> Edge:
        u, _, v = gen.partition("_")
        if frozenset((u, v)) not in self.edge_set:
            raise ValueError(f"{gen!r} does not name a directed edge")
        return (u, v)

    def reverse_letter(self, let: Letter) -> Letter:
        u, v = self.letter_edge(let.gen)
        return Letter(f"{v}_{u}", let.sign)

    def diameter(self) -> int:
        best = 0
        for v in self.vertices:
            dist: Dict[str, int] = {}
            for u, p in self._bfs(v).items():
                dist[u] = 0 if p is None else dist[p] + 1
            best = max(best, max(dist.values()))
        return best

    def _bfs(self, start: str) -> Dict[str, Optional[str]]:
        """Each vertex's parent in the breadth-first walk from start, with
        sorted neighbours, in the order the walk reaches the vertices."""
        parent: Dict[str, Optional[str]] = {start: None}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in sorted(self.adjacency[u]):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        if len(parent) != len(self.vertices):
            raise ValueError("the one-skeleton must be connected")
        return parent

    def __repr__(self):
        return (
            f"FlagComplex({len(self.vertices)} vertices, "
            f"{len(self.edge_set)} edges, base {self.base!r})"
        )


def check_flag(
    vertices: Sequence[str],
    edges: Iterable[Tuple[str, str]],
    base: Optional[str] = None,
    declared_simplices: Optional[Iterable[Sequence[str]]] = None,
) -> FlagComplex:
    """Build a flag complex from a simple graph; when simplices are declared,
    verify they match the derived cliques of dimension at most two."""
    delta = FlagComplex(vertices, edges, base)
    if declared_simplices is not None:
        declared = {frozenset(s) for s in declared_simplices if len(s) == 3}
        derived = {frozenset(t) for t in delta.triangles()}
        if declared != derived:
            raise ValueError(
                f"declared two-simplices {sorted(map(sorted, declared))} do not "
                f"match the derived cliques {sorted(map(sorted, derived))}"
            )
    return delta


def triangle_complex() -> FlagComplex:
    return FlagComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")], "a")


def octahedron_complex() -> FlagComplex:
    # three antipodal pairs, every other pair joined
    vs = ["u1", "u2", "v1", "v2", "w1", "w2"]
    anti = {frozenset(("u1", "u2")), frozenset(("v1", "v2")), frozenset(("w1", "w2"))}
    edges = [
        (a, b)
        for a, b in itertools.combinations(vs, 2)
        if frozenset((a, b)) not in anti
    ]
    return FlagComplex(vs, edges, "u1")


def raag_presentation(delta: FlagComplex) -> GroupPresentation:
    """One generator per vertex, one commutator per edge."""
    relators = []
    for pair in sorted(delta.edge_set, key=sorted):
        u, v = sorted(pair)
        relators.append(word(f"{u} {v} {u}' {v}'"))
    return GroupPresentation(delta.vertices, relators)


def _cycles_of_triangle(delta: FlagComplex, trio) -> List[Tuple[Edge, Edge, Edge]]:
    u, v, w = trio
    out = []
    for a, b, c in ((u, v, w), (u, w, v)):
        cyc = ((a, b), (b, c), (c, a))
        for k in range(3):
            out.append(cyc[k:] + cyc[:k])
    return out


def dicks_leary_presentation(delta: FlagComplex) -> GroupPresentation:
    """The kernel presentation on directed edges: an edge cancels its
    reverse, and each triangle cycle gives a positive and a negative relator.

    Simple connectivity of the complex is the caller's responsibility; a
    cheap Euler-characteristic check warns about obvious first homology.
    """
    gens = [delta.edge_letter(e).gen for e in delta.directed_edges()]
    relators = []
    for e in delta.directed_edges():
        relators.append(
            Word((delta.edge_letter(e), delta.edge_letter((e[1], e[0]))))
        )
    for cyc in _triangle_cycles(delta):
        letters = tuple(delta.edge_letter(e) for e in cyc)
        relators.append(Word(letters))
        relators.append(Word(tuple(l.inverse() for l in letters)))
    pres = GroupPresentation(gens, relators)
    euler = len(delta.vertices) - len(delta.edge_set) + len(delta.triangles())
    if euler < 1:
        warnings.warn(
            "Euler characteristic below one: the complex may not be simply "
            "connected, so this presentation may present a quotient",
            stacklevel=2,
        )
    return pres


def edge_embedding(delta: FlagComplex, w: Word) -> Word:
    """The embedding into the ambient right-angled Artin group: a directed
    edge maps to its initial vertex times the inverse of its terminal one."""
    letters: List[Letter] = []
    for let in w:
        u, v = delta.letter_edge(let.gen)
        image = Word((Letter(u, 1), Letter(v, -1)))
        letters.extend((image if let.sign > 0 else image.inverse()).letters)
    return Word(letters)


class SpanningTree:
    """Breadth-first spanning tree from the base vertex, lexicographic ties."""

    def __init__(self, delta: FlagComplex):
        self.delta = delta
        self.parent = delta._bfs(delta.base)
        # each vertex's tree edges from the base; the walk reaches a parent
        # before its children
        self.root_paths: Dict[str, Tuple[Edge, ...]] = {}
        for v, p in self.parent.items():
            self.root_paths[v] = () if p is None else self.root_paths[p] + ((p, v),)

    def path(self, u: str, v: str) -> List[Edge]:
        """Directed edges of the unique reduced tree path from u to v."""
        if u not in self.root_paths or v not in self.root_paths:
            raise ValueError(f"unknown vertex in ({u!r}, {v!r})")
        up, vp = self.root_paths[u], self.root_paths[v]
        c = 0
        while c < min(len(up), len(vp)) and up[c] == vp[c]:
            c += 1
        return [(b, a) for a, b in reversed(up[c:])] + list(vp[c:])


def spanning_tree(delta: FlagComplex) -> SpanningTree:
    return SpanningTree(delta)


def _power_word(delta: FlagComplex, edges: Iterable[Edge], k: int) -> Word:
    """Each edge's letter raised to the k-th power, in order."""
    return concat(*(wpow(Word((delta.edge_letter(e),)), k) for e in edges))


def tree_word(delta: FlagComplex, tree: SpanningTree, n: int, u: str, v: str) -> Word:
    """Each tree edge of the geodesic path from u to v raised to the n-th
    power, in path order."""
    return _power_word(delta, tree.path(u, v), n)


def bb_phi(delta: FlagComplex, tree: SpanningTree, n: int, w: Word,
           images: Optional[Images] = None) -> Word:
    """The shift endomorphism: an edge goes to its tree-conjugated n-step
    translate; extends letterwise, commuting with inversion.  Each letter's
    image is built once per (letter, n) in images, a table for delta and
    tree that the call reads and fills; without one, once per call."""
    if images is None:
        images = {}
    out: List[Letter] = []
    for let in w:
        image = images.get((let, n))
        if image is None:
            u, v = delta.letter_edge(let.gen)
            image = concat(
                tree_word(delta, tree, n, delta.base, u),
                wpow(Word((Letter(let.gen, 1),)), n + 1),
                tree_word(delta, tree, n, v, delta.base),
            )
            image = images[let, n] = (image if let.sign > 0 else image.inverse()).letters
        out += image
    return Word._of(tuple(out))


def _conjugation_edges(delta: FlagComplex, tree: SpanningTree, e: Edge) -> List[Edge]:
    """The tree path from the base to e's start, then e, then the path back."""
    return tree.path(delta.base, e[0]) + [e] + tree.path(e[0], delta.base)


def edge_conjugation_word(delta: FlagComplex, tree: SpanningTree, e: Edge) -> Word:
    """The positive-normal-form conjugation word of a directed edge."""
    return _power_word(delta, _conjugation_edges(delta, tree, e), 1)


def bb_indexed_families(
    delta: FlagComplex, tree: SpanningTree, index_bound: int
) -> List[IndexedRelator]:
    """All members of the shifted relator family and the shift-mismatch
    family with index at most the bound: ``IndexedRelator.families`` with
    ``bb_phi`` as the shift and the edges' conjugation words."""
    return _families(delta, tree, dicks_leary_presentation(delta), index_bound)


def _families(delta: FlagComplex, tree: SpanningTree, pres: GroupPresentation,
              index_bound: int) -> List[IndexedRelator]:
    """``bb_indexed_families`` over delta's presentation pres, built once."""
    words = {delta.edge_letter(e).gen: edge_conjugation_word(delta, tree, e)
             for e in delta.directed_edges()}
    images: Images = {}
    return IndexedRelator.families(pres.relators, words,
                                   lambda w, n: bb_phi(delta, tree, n, w, images),
                                   index_bound)


# ---------------------------------------------------------------------------
# combinatorial null-homotopies


@dataclass(frozen=True)
class NullHomotopyMove:
    kind: str  # "1-expand" | "1-collapse" | "2-expand" | "2-collapse"
    pos: int
    edges: Tuple[Edge, ...] = ()


@dataclass(frozen=True)
class CombinatorialNullHomotopy:
    start: Tuple[Edge, ...]
    moves: Tuple[NullHomotopyMove, ...]

    def __len__(self) -> int:
        return len(self.moves)


def _is_cycle(delta: FlagComplex, cyc: Sequence[Edge]) -> bool:
    if not cyc:
        return True
    for e in cyc:
        if frozenset(e) not in delta.edge_set:
            return False
    return all(cyc[i][1] == cyc[(i + 1) % len(cyc)][0] for i in range(len(cyc)))


def _triangle_cycles(delta: FlagComplex) -> List[Tuple[Edge, Edge, Edge]]:
    out = []
    for trio in delta.triangles():
        out.extend(_cycles_of_triangle(delta, trio))
    return out


def _attach(cyc: Tuple[Edge, ...], k: int) -> Optional[str]:
    """The vertex an expansion at position k must start from: the end of
    edge k-1, or the cycle's start vertex at the seam k = 0; any vertex
    (None) on the empty cycle."""
    if not cyc:
        return None
    return cyc[k - 1][1] if k else cyc[0][0]


def apply_null_homotopy_move(
    delta: FlagComplex, cyc: Tuple[Edge, ...], move: NullHomotopyMove
) -> Tuple[Edge, ...]:
    k = move.pos
    if not 0 <= k <= len(cyc):
        raise ValueError("position out of range")
    attach = _attach(cyc, k)
    if move.kind == "1-expand":
        (e,) = move.edges
        if frozenset(e) not in delta.edge_set:
            raise ValueError(f"{e} is not an edge")
        if attach is not None and e[0] != attach:
            raise ValueError("edge does not start at the junction vertex")
        return cyc[:k] + (e, (e[1], e[0])) + cyc[k:]
    if move.kind == "1-collapse":
        if k + 1 >= len(cyc):
            raise ValueError("position out of range")
        e, f = cyc[k], cyc[k + 1]
        if f != (e[1], e[0]):
            raise ValueError("edges are not mutually reverse")
        return cyc[:k] + cyc[k + 2 :]
    if move.kind == "2-expand":
        e, f, g = move.edges
        if not _is_cycle(delta, (e, f, g)) or len({e[0], f[0], g[0]}) != 3:
            raise ValueError("edges do not form a triangle cycle")
        if attach is not None and e[0] != attach:
            raise ValueError("triangle does not start at the junction vertex")
        return cyc[:k] + (e, f, g) + cyc[k:]
    if move.kind == "2-collapse":
        if k + 2 > len(cyc) - 1:
            raise ValueError("position out of range")
        e, f, g = cyc[k], cyc[k + 1], cyc[k + 2]
        if not _is_cycle(delta, (e, f, g)) or len({e[0], f[0], g[0]}) != 3:
            raise ValueError("edges do not form a triangle cycle")
        return cyc[:k] + cyc[k + 3 :]
    raise ValueError(f"unknown move kind {move.kind!r}")


def replay_null_homotopy(
    delta: FlagComplex, nh: CombinatorialNullHomotopy
) -> Tuple[Edge, ...]:
    cyc = nh.start
    for i, move in enumerate(nh.moves):
        try:
            cyc = apply_null_homotopy_move(delta, cyc, move)
        except ValueError as exc:
            raise ValueError(f"move {i}: {exc}") from exc
    return cyc


def find_null_homotopy(
    delta: FlagComplex, cycle: Sequence[Edge], max_states: int = 200_000
) -> CombinatorialNullHomotopy:
    """Breadth-first search over cycles of length at most |cycle| + 4 for a
    shortest combinatorial null-homotopy; collapse-only moves are tried
    before expansions.  The empty cycle gets the empty homotopy.  Only the
    moves of the homotopy found are built, and it is replayed once."""
    start = tuple(cycle)
    if not _is_cycle(delta, start):
        raise ValueError("not a combinatorial cycle")
    if not start:
        return CombinatorialNullHomotopy(start, ())
    cap = len(start) + 4
    triangles = _triangle_cycles(delta)
    # what an expansion inserts, by start vertex in cell order: an edge with
    # its reverse, or a triangle cycle
    pairs: Dict[str, list] = {v: [] for v in delta.vertices}
    for e in delta.directed_edges():
        pairs[e[0]].append(((e,), (e, (e[1], e[0]))))
    cells: Dict[str, list] = {v: [] for v in delta.vertices}
    for t in triangles:
        cells[t[0][0]].append((t, t))
    expansions = (("1-expand", 2, pairs), ("2-expand", 3, cells))
    triangle_set = set(triangles)
    # max_states is a cap: cycles are counted as they are added
    seen = {start: None}
    queue = deque([start])
    while queue:
        cyc = queue.popleft()
        for nxt, move in _null_homotopy_steps(cyc, cap, triangle_set, expansions):
            if nxt in seen:
                continue
            seen[nxt] = (cyc, move)
            if not nxt:
                return _replayed(delta, start, seen)
            if len(seen) > max_states:
                raise NotNullError("null-homotopy search budget exhausted")
            queue.append(nxt)
    raise NotNullError("cycle admits no null-homotopy within the length cap")


def _null_homotopy_steps(cyc: Tuple[Edge, ...], cap: int, triangles, expansions):
    """Each cycle one move from the closed cycle cyc, with the move's fields,
    in the search's order: 1-collapses, 2-collapses, then 1- and
    2-expansions within the cap, by position and cell."""
    size = len(cyc)
    for k in range(size - 1):
        e = cyc[k]
        if cyc[k + 1] == (e[1], e[0]):
            yield cyc[:k] + cyc[k + 2 :], ("1-collapse", k, ())
    for k in range(size - 2):
        if cyc[k : k + 3] in triangles:
            yield cyc[:k] + cyc[k + 3 :], ("2-collapse", k, ())
    for kind, grow, cells in expansions:
        if size + grow > cap:
            continue
        for k in range(size + 1):
            head, tail = cyc[:k], cyc[k:]
            # at k = 0 the last edge ends where the cycle starts
            for cell, edges in cells[cyc[k - 1][1]]:
                yield head + edges + tail, (kind, k, cell)


def _replayed(delta: FlagComplex, start: Tuple[Edge, ...],
              seen: Dict) -> CombinatorialNullHomotopy:
    """The homotopy from start to the empty cycle along the search's parent
    links, replayed once; one that does not end there is a defect."""
    moves = []
    cyc: Tuple[Edge, ...] = ()
    while seen[cyc] is not None:
        cyc, move = seen[cyc]
        moves.append(NullHomotopyMove(*move))
    nh = CombinatorialNullHomotopy(start, tuple(reversed(moves)))
    try:
        final = replay_null_homotopy(delta, nh)
    except ValueError as exc:
        raise InternalCheckError(f"null-homotopy search: {exc}") from exc
    if final:
        raise InternalCheckError(f"null-homotopy search ends at {final}, not ()")
    return nh


# ---------------------------------------------------------------------------
# filling-sequence emitters


class BBModel:
    """Caches the kernel presentation, per-cycle null-homotopies, and
    transposition gadgets for one complex and spanning tree."""

    def __init__(self, delta: FlagComplex, tree: SpanningTree):
        self.delta = delta
        self.tree = tree
        self.pres = dicks_leary_presentation(delta)
        self._homotopies: Dict[Tuple[Edge, ...], CombinatorialNullHomotopy] = {}
        self._swap_fills: Dict[Tuple[Letter, Letter], DerivationSequence] = {}
        self._images: Images = {}

    def edge_cycle(self, e: Edge) -> Tuple[Edge, ...]:
        return tuple(
            self.tree.path(self.delta.base, e[0])
            + [e]
            + self.tree.path(e[1], self.delta.base)
        )

    def null_homotopy(self, cycle: Tuple[Edge, ...]) -> CombinatorialNullHomotopy:
        if cycle not in self._homotopies:
            self._homotopies[cycle] = find_null_homotopy(self.delta, cycle)
        return self._homotopies[cycle]

    @cached_property
    def K(self) -> int:
        """Three times the largest per-edge null-homotopy length."""
        return 3 * max(
            len(self.null_homotopy(self.edge_cycle(e)))
            for e in self.delta.directed_edges()
        )

    @cached_property
    def L(self) -> int:
        return self.delta.diameter()

    def depth(self, v: str) -> int:
        return len(self.tree.root_paths[v])

    # -- transpositions ---------------------------------------------------

    def _commutator_fill(self, a: Letter, b: Letter) -> DerivationSequence:
        fill = self._swap_fills.get((a, b))
        if fill is None:
            fill = two_step_filling(self.pres, Word((a, b, a.inverse(), b.inverse())))
            if fill is None:
                raise ValueError(f"letters {a} and {b} have no small commutator fill")
            # a search witness carries its record, so every swap splices it
            self._swap_fills[a, b] = fill
        return fill

    def swap(self, editor: WordEditor, pos: int) -> None:
        """Transpose editor letters of distinct generators at pos, pos+1 by
        splicing a minimal commutator filling (two relator moves for
        triangle letters)."""
        a, b = editor.letters[pos], editor.letters[pos + 1]
        fill = self._commutator_fill(a, b)
        editor.insert_cancelling(pos + 2, Word._of((a.inverse(), b.inverse())))
        editor.apply_subsequence(pos, fill)

    def sort_block_pairs(self, editor: WordEditor, pos: int, count: int,
                         first: Letter) -> None:
        """Stable-sort a 2-count block of two letter kinds so `first` letters
        come leftmost."""
        editor.sort(pos, pos + 2 * count, lambda x: x != first, self.swap)

    # -- power-block primitives -------------------------------------------

    def collapse_pair_power(self, editor: WordEditor, pos: int, k: int) -> None:
        """Remove a^k abar^k at pos (2|k| letters), one relator per layer."""
        m = abs(k)
        letters = editor.letters
        for i in range(m):
            at = pos + m - 1 - i
            editor.relator(at, Word._of((letters[at], letters[at + 1])), EMPTY)

    def collapse_mutual_paths(self, editor: WordEditor, pos: int, depth: int,
                              k: int) -> None:
        """Cancel two mutually reverse tree-path power words (2*depth*|k|
        letters at pos), nested centre-out."""
        for d in range(depth):
            self.collapse_pair_power(editor, pos + (depth - 1 - d) * abs(k), k)

    def collapse_junctions(self, editor: WordEditor, pos: int, edges: Sequence[Edge],
                           n: int) -> None:
        """Cancel the mutual tree paths at every junction of the shifted
        edges at pos, right to left.  The shift of an edge x is spelled
        P(iota x, n) x^(n+1) Q(tau x, n); at a junction, where one edge ends
        at the next edge's start, Q of the one meets P of the next."""
        m, span = abs(n), abs(n + 1)
        q_at = []  # where each edge's Q block starts
        for x in edges:
            pos += self.depth(x[0]) * m + span
            q_at.append(pos)
            pos += self.depth(x[1]) * m
        for j in range(len(edges) - 2, -1, -1):
            if edges[j][1] == edges[j + 1][0]:
                self.collapse_mutual_paths(editor, q_at[j], self.depth(edges[j][1]), n)

    def collapse_triangle_power(self, editor: WordEditor, pos: int,
                                cyc: Tuple[Edge, Edge, Edge], k: int) -> None:
        """Remove x^k y^k z^k at pos for a triangle cycle: convert the last
        block into pairs of the first two, sort, cancel freely."""
        m = abs(k)
        if m == 0:
            return
        sgn = 1 if k > 0 else -1
        x = self.delta.edge_letter(cyc[0], sgn)
        y = self.delta.edge_letter(cyc[1], sgn)
        z = self.delta.edge_letter(cyc[2], sgn)
        replacement = Word((y.inverse(), x.inverse()))
        for i in range(m):
            editor.relator(pos + 2 * m + 2 * i, Word((z,)), replacement)
        self.sort_block_pairs(editor, pos + 2 * m, m, y.inverse())
        letters = editor.letters
        editor.free_to(Word._of(tuple(letters[:pos] + letters[pos + 4 * m :])))

    def insert_triangle_power(self, editor: WordEditor, pos: int,
                              cyc: Tuple[Edge, Edge, Edge], k: int) -> None:
        """Insert x^k y^k z^k at pos (reverse of the collapse)."""
        if k == 0:
            return
        sub = WordEditor(self.pres, self.power_word(cyc, k))
        self.collapse_triangle_power(sub, 0, cyc, k)
        editor.apply_subsequence(pos, reverse_sequence(self.pres, sub.sequence()))

    def power_word(self, cycle: Sequence[Edge], k: int) -> Word:
        return _power_word(self.delta, cycle, k)

    def insert_pair_power(self, editor: WordEditor, pos: int, e: Edge, k: int) -> None:
        let = self.delta.edge_letter(e, 1 if k >= 0 else -1)
        bar = self.delta.reverse_letter(let)
        for i in range(abs(k)):
            editor.relator(pos + i, EMPTY, Word((let, bar)))

    def fill_cycle_power(self, editor: WordEditor, pos: int,
                         nh: CombinatorialNullHomotopy, k: int) -> None:
        """Remove the k-th power word of the homotopy's start cycle at pos by
        translating the combinatorial null-homotopy move by move."""
        cyc = nh.start
        m = abs(k)
        for move in nh.moves:
            offset = pos + m * move.pos
            if move.kind == "1-collapse":
                self.collapse_pair_power(editor, offset, k)
            elif move.kind == "1-expand":
                self.insert_pair_power(editor, offset, move.edges[0], k)
            elif move.kind == "2-collapse":
                tri = (cyc[move.pos], cyc[move.pos + 1], cyc[move.pos + 2])
                self.collapse_triangle_power(editor, offset, tri, k)
            else:
                self.insert_triangle_power(editor, offset, move.edges, k)
            cyc = apply_null_homotopy_move(self.delta, cyc, move)

    def rewrite_pair_to_edge_power(self, editor: WordEditor, pos: int, e: Edge,
                                   k: int, inverted: bool) -> None:
        """Replace the mutual tree-path pair of the edge's endpoints at pos:
        [Q(tau e, k) P(iota e, k)] becomes e^-k, or, with inverted set,
        [P(iota e, k)^-1 Q(tau e, k)^-1] becomes e^k, by one filling of the
        edge's tree cycle at power k."""
        if k == 0:
            return
        cycle = self.edge_cycle(e)  # path(iota) . e . path(tau)
        shift = abs(k) * self.depth(e[0])
        cycle_word = self.power_word(cycle, k)
        rot_word = concat(cycle_word[shift:], cycle_word[:shift])
        tail = cycle_word[shift:]  # e^k Q(tau, k)
        sub = WordEditor(self.pres, rot_word)
        sub.insert_cancelling(len(rot_word), tail)
        self.fill_cycle_power(sub, len(tail), self.null_homotopy(cycle), k)
        sub.free_to(EMPTY)
        null_rot = sub.sequence()  # fills e^k Q(tau,k) P(iota,k)
        edge_word = Word((self.delta.edge_letter(e),))
        old_len = len(cycle_word) - abs(k)
        if inverted:
            mirrored = mirror_sequence(self.pres, null_rot)
            # mirrored fills P(iota,k)^-1 Q(tau,k)^-1 e^-k
            editor.insert_cancelling(pos + old_len, wpow(edge_word, -k))
            editor.apply_subsequence(pos, mirrored)
        else:
            editor.insert_cancelling(pos, wpow(edge_word, -k))
            editor.apply_subsequence(pos + abs(k), null_rot)


def _model_for(delta: FlagComplex, tree: SpanningTree,
               model: Optional[BBModel]) -> BBModel:
    """A new model, or the given one if it holds delta and tree, which the
    emitters read from the model."""
    if model is None:
        return BBModel(delta, tree)
    if model.delta is not delta or model.tree is not tree:
        raise ValueError("the model was built for another complex or tree")
    return model


def scheme_bound(model: BBModel, kind: str, n: int) -> int:
    """The stated area bound of each emitted scheme."""
    m = abs(n)
    K, L = model.K, model.L
    return {
        "e-ebar": (2 * L + 1) * m + 1,
        "efg": 3 * m * m + (3 * L + 6) * m + 3,
        "inverse-efg": (3 * K + 4) * m * m + (6 * L + 6) * m + 5,
        "stable": 2 * K * m * m + (3 * L * L + 2 * L + 2 * K) * m + L + K,
    }[kind]


def bb_relator_scheme(delta: FlagComplex, tree: SpanningTree, kind: str, args,
                      n: int, model: Optional[BBModel] = None
                      ) -> DerivationSequence:
    """Emit a replayable null sequence for one indexed-family member: kinds
    "e-ebar" and "stable" take a directed edge, "efg" and "inverse-efg" a
    triangle cycle; the measured area stays within scheme_bound(kind, n).
    Arguments of the wrong shape raise ValueError before anything is
    emitted."""
    emitters = {"e-ebar": lambda model, e, n: _scheme_closed(model, (e, e[::-1]), n),
                "efg": _scheme_closed,
                "inverse-efg": _scheme_inverse_cycle, "stable": _scheme_stable}
    if kind not in emitters:
        raise ValueError(f"unknown scheme kind {kind!r}")
    model = _model_for(delta, tree, model)
    args = tuple(args)
    if kind in ("efg", "inverse-efg"):
        cyc = tuple(tuple(e) for e in args)
        if (len(cyc) != 3 or any(len(e) != 2 for e in cyc) or not _is_cycle(delta, cyc)
                or len({e[0] for e in cyc}) != 3):
            raise ValueError(f"{kind} takes a triangle cycle of three edges, not {args!r}")
    elif len(args) != 2 or frozenset(args) not in delta.edge_set:
        raise ValueError(f"{kind} takes a directed edge, not {args!r}")
    return emitters[kind](model, args, n)


def _scheme_closed(model: BBModel, walk: Sequence[Edge], n: int) -> DerivationSequence:
    """Fill the shift of a closed edge walk: (e, ebar) or a triangle cycle.
    Cancel the paths at its junctions, collapse the centre power, then the
    outer paths."""
    delta = model.delta
    w = bb_phi(delta, model.tree, n, Word(tuple(delta.edge_letter(e) for e in walk)),
               model._images)
    editor = WordEditor(model.pres, w)
    model.collapse_junctions(editor, 0, walk, n)
    # now P(iota_0, n) x0^{n+1} ... x_last^{n+1} Q(iota_0, n)
    depth = model.depth(walk[0][0])
    if len(walk) == 2:
        model.collapse_pair_power(editor, depth * abs(n), n + 1)
    else:
        model.collapse_triangle_power(editor, depth * abs(n), walk, n + 1)
    model.collapse_mutual_paths(editor, 0, depth, n)
    editor.free_to(EMPTY)
    return editor.sequence()


def _scheme_inverse_cycle(model: BBModel, cyc: Tuple[Edge, Edge, Edge], n: int
                          ) -> DerivationSequence:
    delta = model.delta
    w = bb_phi(delta, model.tree, n, Word(tuple(delta.edge_letter(e, -1) for e in cyc)),
               model._images)
    editor = WordEditor(model.pres, w)
    if n == 0:
        editor.relator(0, w, EMPTY)
        return editor.sequence()
    m = abs(n)
    span = abs(n + 1)
    depths = [model.depth(e[0]) for e in cyc]
    # conjugate so the leading inverted path joins the trailing one; the
    # rotated core starts with the first inverse edge power
    letters = editor.letters
    head = Word._of(tuple(letters[: depths[1] * m]))  # Q(tau_0, n)^-1, tau_0 = iota_1
    editor.insert_cancelling(len(letters), head)
    core = Word._of(tuple(letters[len(head) : len(letters) - len(head)]))
    sub = WordEditor(model.pres, core)
    # junction pairs [P(iota_i)^-1 Q(tau_{i+1})^-1] are the endpoint pair of
    # the reverse of the preceding edge; rewrite each into its power
    pos = span
    for i in (0, 1, 2):
        back = cyc[(i + 2) % 3]
        model.rewrite_pair_to_edge_power(
            sub, pos, (back[1], back[0]), n, inverted=True
        )
        pos += m + span
    # convert the reversed-edge powers into inverse powers of the originals
    pos = span
    for i in (0, 1, 2):
        _convert_reverse_to_inverse(model, sub, pos, m)
        pos += m + span
    _fill_inverse_core(model, sub, cyc, n)
    editor.apply_subsequence(depths[1] * m, sub.sequence())
    editor.free_to(EMPTY)
    return editor.sequence()


def null_homotopy_to_sequence(
    delta: FlagComplex,
    tree: SpanningTree,
    nh: CombinatorialNullHomotopy,
    n: int,
    model: Optional[BBModel] = None,
) -> DerivationSequence:
    """Translate a combinatorial null-homotopy into a null sequence for the
    n-th power word of its start cycle: one reverse-pair relator per layer
    for the one-cell moves, and the triangle collapse for the two-cell moves;
    total area at most three times the move count times n squared.  Only nh
    is translated; the model's homotopy cache is left alone."""
    final = replay_null_homotopy(delta, nh)
    if final:
        raise ValueError("the homotopy does not end at the empty cycle")
    model = _model_for(delta, tree, model)
    editor = WordEditor(model.pres, model.power_word(nh.start, n))
    model.fill_cycle_power(editor, 0, nh, n)
    editor.free_to(EMPTY)
    return editor.sequence()


def _convert_reverse_to_inverse(model: BBModel, editor: WordEditor, pos: int,
                                count: int) -> None:
    """Rewrite reversed-edge letters at pos into inverse letters of the
    original edges, one reverse-pair relator each."""
    for i in range(count):
        let = editor.letters[pos + i]
        bar = model.delta.reverse_letter(let).inverse()
        editor.relator(pos + i, Word._of((let,)), Word._of((bar,)))


def _fill_inverse_core(model: BBModel, editor: WordEditor,
                       cyc: Tuple[Edge, Edge, Edge], n: int) -> None:
    """Fill x0^{-n-1} x2^{-n} x1^{-n-1} x0^{-n} x2^{-n-1} x1^{-n}: convert
    both middle-edge power blocks into pairs of the other two letters, sort,
    cancel freely, and close the four-letter residue with two relators."""
    m = abs(n)
    span = abs(n + 1)
    sgn = -1 if n > 0 else 1
    x0 = model.delta.edge_letter(cyc[0], sgn)
    x1 = model.delta.edge_letter(cyc[1], sgn)
    repl = Word((x1.inverse(), x0.inverse()))
    first = span  # x2^{-n} block, m letters
    for i in range(m):
        editor.relator(first + 2 * i, Word._of((editor.letters[first + 2 * i],)), repl)
    model.sort_block_pairs(editor, first, m, x0.inverse())
    second = span + 2 * m + span + m  # x2^{-n-1} block, span letters
    for i in range(span):
        editor.relator(second + 2 * i, Word._of((editor.letters[second + 2 * i],)), repl)
    model.sort_block_pairs(editor, second, span, x0.inverse())
    editor.free_to(free_reduce(editor.word))
    residue = editor.word
    if not len(residue):
        return
    if len(residue) != 4:
        raise InternalCheckError(f"unexpected residue {residue}")
    pair = Word((residue[0], residue[1]))
    index = model.pres.relator_index
    for gen in model.pres.generators:
        for sign in (1, -1):
            cand = Letter(gen, sign)
            # pair -> cand is a relator move iff pair cand^-1 is indexed
            if pair.letters + (cand.inverse(),) not in index:
                continue
            editor.relator(0, pair, Word((cand,)))
            editor.relator(0, editor.word, EMPTY)
            return
    raise InternalCheckError(f"residue {residue} did not collapse")


def _scheme_stable(model: BBModel, e: Edge, n: int) -> DerivationSequence:
    delta, tree = model.delta, model.tree
    span1 = abs(n + 1)
    span2 = abs(n + 2)
    let = delta.edge_letter(e)
    conj = _conjugation_edges(delta, tree, e)
    shifted = bb_phi(delta, tree, n, _power_word(delta, conj, 1), model._images)
    w = concat(bb_phi(delta, tree, n + 1, Word((let,)), model._images), shifted.inverse())
    editor = WordEditor(model.pres, w)
    d_i, d_t = model.depth(e[0]), model.depth(e[1])

    # the translate of the conjugation word collapses, junction by junction,
    # to P(iota, n+1) e Q(iota, n+1); do it forward, then mirror-splice
    fwd = WordEditor(model.pres, shifted)
    model.collapse_junctions(fwd, 0, conj, n)
    # fwd is now P(iota, n+1) e^{n+1} [Q(tau, n) P(iota, n)] Q(iota, n+1)
    model.rewrite_pair_to_edge_power(
        fwd, d_i * span1 + span1, e, n, inverted=False
    )
    fwd.free_to(
        concat(
            tree_word(delta, tree, n + 1, delta.base, e[0]),
            Word((let,)),
            tree_word(delta, tree, n + 1, e[0], delta.base),
        )
    )
    pos_q = d_i * span1 + span2 + d_t * span1
    editor.apply_subsequence(pos_q, mirror_sequence(model.pres, fwd.sequence()))

    # word: P(i,n+1) e^{n+2} Q(t,n+1) Q(i,n+1)^-1 e^-1 P(i,n+1)^-1
    _convert_reverse_to_inverse(model, editor, pos_q, d_i * span1)
    model.rewrite_pair_to_edge_power(
        editor, d_i * span1 + span2, e, n + 1, inverted=False
    )
    editor.free_to(EMPTY)
    return editor.sequence()


def member_scheme(model: BBModel, member: IndexedRelator) -> Tuple[str, object, int]:
    """The ``bb_relator_scheme`` kind, arguments and index n that fill one
    indexed-family member: a stable member its edge, a two-letter relator
    "e-ebar" on its first edge, a positive triangle relator "efg" and a
    negative one "inverse-efg" on its edges."""
    delta = model.delta
    n = member.parameter[1]
    if member.family == "stable":
        return "stable", delta.letter_edge(member.parameter[0]), n
    rel = model.pres.relators[member.parameter[0]]
    if len(rel) == 2:
        return "e-ebar", delta.letter_edge(rel[0].gen), n
    kind = "efg" if rel[0].sign > 0 else "inverse-efg"
    return kind, tuple(delta.letter_edge(let.gen) for let in rel.letters), n


def rarea_sample(delta: FlagComplex, tree: SpanningTree, index_bound: int,
                 budget: Optional[SearchBudget] = None, exact: bool = False,
                 model: Optional[BBModel] = None) -> List[Dict]:
    """Per-index area data for every indexed relator up to the bound: the
    replayed area of the emitted scheme (an upper bound), the scheme's
    stated bound, and optionally an exact search verdict."""
    model = _model_for(delta, tree, model)
    pres = model.pres
    rows: List[Dict] = []
    for ir in _families(delta, tree, pres, index_bound):
        kind, args, n = member_scheme(model, ir)
        seq = bb_relator_scheme(delta, tree, kind, args, n, model)
        acct = replay_sequence(pres, seq)
        if acct.endpoints != (ir.word, EMPTY):
            raise InternalCheckError(
                f"{kind} scheme at n={n} replays {acct.endpoints[0]} -> "
                f"{acct.endpoints[1]}, not {ir.word} -> 1"
            )
        row = {
            "index": ir.index,
            "family": ir.family,
            "kind": kind,
            "word": str(ir.word),
            "upper": acct.area,
            "bound": scheme_bound(model, kind, n),
        }
        if exact:
            res = area_exact(pres, ir.word, budget or SearchBudget())
            row["exact"] = res.area if res.kind == "area" else None
            row["exhausted"] = res.kind == "budget-exhausted"
        rows.append(row)
    return rows
