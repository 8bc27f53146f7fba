"""The four benchmark workloads.

``build(name, smoke)`` imports fillcalc, builds the presentations, models
and inputs of one workload and returns its items, each a label and a
callable that computes one result, checks it, and returns the area it
replayed.  The items are fixed; ``batch.py`` runs them in an order drawn
from the seed, times the build as set-up and each item call as one item.

Every check is an explicit ``CheckFailed``, never an ``assert``, so it also
holds under ``python -O``.  Pinned values are mathematical facts about the
inputs (exact areas, Dehn function values, stated bounds), never search
state counts, which a legitimate search change may alter.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

Item = Tuple[str, Callable[[], int]]

WORKLOADS = ("bb-schemes", "pulldown-flatten", "area-search", "dehn-sweep")

BB_INDEX_BOUND = 2
FLATTEN_BATCH = 200
# the pulldown-pipeline acceptance criterion draws its expressions with this
# seed; the workload flattens the same ones
FLATTEN_SEED = 13


class CheckFailed(Exception):
    """An item's output disagreed with its expected verdict, area or bound."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def build(name: str, smoke: bool) -> List[Item]:
    """The items of one workload."""
    fixtures = {"bb-schemes": _bb_schemes, "pulldown-flatten": _pulldown_flatten,
                "area-search": _area_search, "dehn-sweep": _dehn_sweep}
    return fixtures[name](smoke)


def _replay_to_empty(rewriting, pres, seq, start, area=None) -> int:
    acct = rewriting.replay_sequence(pres, seq)
    _check(acct.endpoints[0] == start and len(acct.endpoints[1]) == 0,
           f"witness replays to {acct.endpoints[1]}")
    _check(area is None or acct.area == area, f"replayed area {acct.area} != {area}")
    return acct.area


# ---------------------------------------------------------------------------
# bb-schemes: every indexed-family scheme for K3 and the octahedron


def _bb_schemes(smoke: bool) -> List[Item]:
    from fillcalc import bestvina_brady as bb, rewriting

    items: List[Item] = []
    for complex_name, delta in (("K3", bb.triangle_complex()),
                                ("octahedron", bb.octahedron_complex())):
        tree = bb.spanning_tree(delta)
        # the emitters fill their caches on `model`; bounds come from a
        # separate model so that the timed items start cold
        model = bb.BBModel(delta, tree)
        reference = bb.BBModel(delta, tree)
        for member in bb.bb_indexed_families(delta, tree, BB_INDEX_BOUND):
            kind, args, n = _scheme_of(bb, delta, model.pres, member)
            bound = bb.scheme_bound(reference, kind, n)
            label = f"{complex_name} {kind} {args} n={n}"
            items.append((label, _bb_item(bb, rewriting, delta, tree, model,
                                          member.word, kind, args, n, bound)))
    return items[::40] if smoke else items


def _scheme_of(bb, delta, pres, member):
    """The emitter kind and arguments for one family member, as rarea_sample
    chooses them."""
    n = member.parameter[1]
    if member.family == "stable":
        return "stable", delta.letter_edge(member.parameter[0]), n
    rel = pres.relators[member.parameter[0]]
    if len(rel) == 2:
        return "e-ebar", delta.letter_edge(rel[0].gen), n
    kind = "efg" if rel[0].sign > 0 else "inverse-efg"
    return kind, tuple(delta.letter_edge(let.gen) for let in rel.letters), n


def _bb_item(bb, rewriting, delta, tree, model, member, kind, args, n, bound):
    def run() -> int:
        seq = bb.bb_relator_scheme(delta, tree, kind, args, n, model)
        area = _replay_to_empty(rewriting, model.pres, seq, member)
        _check(area <= bound, f"area {area} > scheme bound {bound}")
        return area

    return run


# ---------------------------------------------------------------------------
# pulldown-flatten: the pulldown-pipeline criterion's filling expressions


def _pulldown_flatten(smoke: bool) -> List[Item]:
    """The 200 expressions over the products (3,2,1) and (4,2,2) that the
    pulldown-pipeline criterion draws: up to three relator terms, each
    conjugated by a word of up to four letters."""
    from fillcalc import pulldown, rewriting, words

    contexts = [pulldown.standard_context(3, 2, 1), pulldown.standard_context(4, 2, 2)]
    rng = random.Random(FLATTEN_SEED)
    items: List[Item] = []
    for trial in range(FLATTEN_BATCH):
        ctx = contexts[trial % 2]
        gens = ctx.spec.all_generators()
        terms = []
        for _ in range(rng.randrange(4)):
            conj = words.Word(tuple(
                words.Letter(rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randrange(5))
            ))
            terms.append((conj, rng.randrange(len(ctx.presentation.relators)),
                          rng.choice((1, -1))))
        expr = rewriting.FillingExpression(tuple(terms))
        w = words.free_reduce(expr.boundary(ctx.presentation))
        items.append((f"{ctx.spec.n_factors}x{ctx.rank} {w}",
                      _flatten_item(pulldown, rewriting, words, ctx, expr, w)))
    return items[::20] if smoke else items


def _flatten_item(pulldown, rewriting, words, ctx, expr, w):
    def run() -> int:
        out = pulldown.flatten_expression(ctx, expr, w)
        theta, r = ctx.theta, ctx.rank
        try:
            acct = rewriting.validate_expression(ctx.presentation, out, w, theta)
        except rewriting.BoundaryMismatchError as exc:
            raise CheckFailed(f"boundary mismatch: {exc}") from exc
        hw = words.heights(theta, w)
        he = expr.expr_heights(theta)
        for i in range(r):
            _check(acct.heights[i] <= max(hw[i] + 1, 2), f"height {acct.heights}")
        zeta = 1
        for i in range(r):
            zeta *= max(hw[i] + 1, he[i] + 1, 2) ** 2
        bound = 7 ** (r - 1) * (7 * expr.area + 2 * r * len(w)) * zeta
        _check(acct.area <= bound, f"area {acct.area} > {bound}")
        return acct.area

    return run


# ---------------------------------------------------------------------------
# area-search: one deep exact search and several small ones


def _area_search(smoke: bool) -> List[Item]:
    from fillcalc import constructors, oracle, rewriting, words

    items: List[Item] = []
    am = constructors.k32_amalgam()
    w1 = constructors.k32_witness(1, 1)
    if not smoke:
        budget1 = oracle.SearchBudget(max_word_length=len(w1), max_states=1_500_000)
        items.append(("amalgam n=1", _exact_item(oracle, rewriting, am.presentation,
                                                   w1, budget1, 6)))
    w2 = constructors.k32_witness(1, 2)
    budget2 = oracle.SearchBudget(max_word_length=len(w2), max_states=2_000_000, max_area=4)
    items.append(("amalgam n=2 threshold", _threshold_item(oracle, am.presentation,
                                                            w2, budget2, 4)))
    z2 = rewriting.GroupPresentation(("x", "y"), (words.word("x y x' y'"),))
    for l in (1, 2, 3):
        w = words.commutator(words.wpow(words.word("x"), l), words.wpow(words.word("y"), l))
        budget = oracle.SearchBudget(max_word_length=len(w) + 4)
        items.append((f"Z2 square l={l}", _exact_item(oracle, rewriting, z2, w,
                                                       budget, l * l)))
    pres = constructors.k32_presentations()
    q1, q2 = pres["q1"], pres["q2"]
    budget = oracle.SearchBudget(max_word_length=40, max_states=500_000)
    for target, name, other in ((q1, "q1", q2), (q2, "q2", q1)):
        for i, rel in enumerate(r for r in other.relators if r not in target.relators):
            items.append((f"tietze {name} #{i}", _tietze_item(oracle, rewriting,
                                                              target, rel, budget)))
    _check(len(items) == (11 if smoke else 12), f"{len(items)} area-search items")
    return items


def _exact_item(oracle, rewriting, pres, w, budget, area):
    def run() -> int:
        res = oracle.area_exact(pres, w, budget)
        _check(res.kind == "area" and res.area == area, f"got {res.kind} {res.area}")
        return _replay_to_empty(rewriting, pres, res.witness, w, area)

    return run


def _threshold_item(oracle, pres, w, budget, need):
    """The verdict is area >= need, or an exhausted search whose proven lower
    bound reaches need; there is no filling to replay."""
    def run() -> int:
        res = oracle.area_exact(pres, w, budget)
        _check((res.kind == "area" and res.area >= need)
               or (res.kind == "budget-exhausted" and res.lower_bound >= need),
               f"got {res.kind} {res.area}, lower bound {res.lower_bound}")
        return 0

    return run


def _tietze_item(oracle, rewriting, pres, rel, budget):
    def run() -> int:
        res = oracle.find_filling(pres, rel, budget)
        _check(res.kind == "area", f"got {res.kind}")
        return _replay_to_empty(rewriting, pres, res.witness, rel, res.area)

    return run


# ---------------------------------------------------------------------------
# dehn-sweep: Dehn function values by many short searches


def _dehn_sweep(smoke: bool) -> List[Item]:
    from fillcalc import bestvina_brady as bb, oracle, rewriting, words

    z2 = rewriting.GroupPresentation(("x", "y"), (words.word("x y x' y'"),))
    z3 = rewriting.GroupPresentation(
        ("x", "y", "z"),
        tuple(words.word(r) for r in ("x y x' y'", "x z x' z'", "y z y' z'")),
    )
    k3 = bb.dicks_leary_presentation(bb.triangle_complex())
    cases = [("Z3", z3, 6, 3)]
    if not smoke:
        cases += [("Z2", z2, 10, 6), ("K3 Dicks-Leary", k3, 4, 4)]
    items: List[Item] = [
        (f"{name} length {length}", _dehn_item(oracle, rewriting, pres, length, value))
        for name, pres, length, value in cases
    ]
    return items


def _dehn_item(oracle, rewriting, pres, length, value):
    def run() -> int:
        res = oracle.dehn_sample(pres, length)
        _check(res.kind == "value" and res.value == value, f"got {res.kind} {res.value}")
        _check(len(res.witness) <= length, f"witness {res.witness} too long")
        # the value is a claim about the witness word: fill it and replay
        fill = oracle.area_exact(pres, res.witness)
        _check(fill.kind == "area" and fill.area == value, f"witness area {fill.area}")
        return _replay_to_empty(rewriting, pres, fill.witness, res.witness, value)

    return run
