"""The acceptance suite: one callable per criterion, each returning the
measured details of its pass or raising `_Failed` with those of its failure.
`run_criterion` names the verdict.  Every tolerance is pinned here; the test
module and the command line both run exactly these checks."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict

from . import bestvina_brady as bb
from .constructors import (
    k32_amalgam,
    k32_presentations,
    k32_witness,
    k32_witness_filling,
)
from .oracle import (
    DirectProductSpec,
    SearchBudget,
    area_exact,
    cayley_distance,
    dp_equal,
    find_filling,
    low_noise_search,
    raag_equal,
)
from .pulldown import (
    check_phi_properties,
    compose_bounds,
    conjugation_scheme,
    flatten_expression,
    flatten_word,
    letter_conjugation_sequence,
    parse_bound,
    relator_filling,
    relator_filling_bounds,
    standard_context,
)
from .rewriting import (
    FillingExpression,
    GroupPresentation,
    Scheme,
    SchemeRow,
    replay_sequence,
    validate_expression,
    verify_scheme,
)
from .words import (
    EMPTY,
    ChargeMap,
    Letter,
    Word,
    charge,
    commutator,
    concat,
    conjugate,
    free_reduce,
    heights,
    word,
    wpow,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str


class _Failed(Exception):
    """A criterion's failure; the argument is its detail."""


Z2 = GroupPresentation(("x", "y"), (word("x y x' y'"),))
SCHEME_WORD = word("x x y x' y x y x' x' y' y' y'")


def _random_word(rng, gens, max_len) -> Word:
    n = rng.randrange(max_len + 1)
    return Word(tuple(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(n)))


def _validated(pres, expr, w, where, theta=None):
    """validate_expression, with a boundary mismatch failing the criterion."""
    try:
        return validate_expression(pres, expr, w, theta)
    except ValueError as exc:
        raise _Failed(f"{where}: boundary {exc}") from None


def _zero_charge_word(rng, ctx, max_len) -> Word:
    w = _random_word(rng, ctx.spec.all_generators(), max_len)
    fix = []
    for k, c in enumerate(charge(ctx.theta, w), start=1):
        fix.extend(wpow(Word((ctx.e(k),)), -c).letters)
    return concat(w, Word(fix))


def check_square_area_law() -> str:
    """Exact areas of the nested square commutators over the rank-two free
    abelian presentation."""
    values = []
    for l in (1, 2, 3):
        w = commutator(wpow(word("x"), l), wpow(word("y"), l))
        res = area_exact(Z2, w, SearchBudget(max_word_length=len(w) + 4))
        if res.kind != "area" or res.area != l * l:
            raise _Failed(f"l={l}: got {res.kind} {res.area}")
        acct = replay_sequence(Z2, res.witness)
        if acct.area != l * l or acct.endpoints[1] != EMPTY:
            raise _Failed(f"witness broken at l={l}")
        values.append(res.area)
    return f"areas {values} = squares"


def check_scheme_fixture() -> str:
    """The three-row scheme fixture verifies with row areas 2, 1, 2 and the
    word itself has exact area at most 5."""
    scheme = Scheme(
        (
            SchemeRow(SCHEME_WORD, 2),
            SchemeRow(word("x x y x' y x' y' y'"), 1),
            SchemeRow(word("x x y x' x' y'"), 2),
        )
    )
    report = verify_scheme(Z2, scheme, budget=SearchBudget(max_word_length=24))
    if not report.passed or report.total_area != 5:
        raise _Failed(f"rows {report.rows}")
    res = area_exact(Z2, SCHEME_WORD, SearchBudget(max_word_length=20))
    if res.kind != "area" or res.area > 5:
        raise _Failed(f"exact {res.kind} {res.area}")
    lowered = Scheme((SchemeRow(SCHEME_WORD, 1),) + scheme.rows[1:])
    bad = verify_scheme(Z2, lowered, budget=SearchBudget(max_word_length=24))
    if bad.passed or bad.rows[0].verdict != "area-exceeds-claim":
        raise _Failed("lowered claim not caught")
    return f"total 5, exact area {res.area}, lowered claim caught"


def check_pulldown_properties() -> str:
    """All six pulling-down properties on randomized words over a product of
    three rank-two free groups, in one and two directions."""
    rng = random.Random(7)
    contexts = [standard_context(3, 2, 1), standard_context(3, 2, 2)]
    for trial in range(1000):
        ctx = contexts[trial % 2]
        k = 1 + trial % ctx.rank
        w = _random_word(rng, ctx.spec.all_generators(), 10)
        w2 = _random_word(rng, ctx.spec.all_generators(), 6)
        h = rng.randint(-3, 3)
        results = check_phi_properties(ctx, k, w, w2, h)
        if not all(results.values()):
            bad = [name for name, ok in results.items() if not ok]
            raise _Failed(f"trial {trial}: {bad} failed on w={w} h={h} k={k}")
    return "1000 trials, all six clauses held"


def check_flatten_words() -> str:
    """Randomized zero-charge words flatten to words representing the same
    element with unit heights and controlled length."""
    rng = random.Random(11)
    contexts = [standard_context(3, 2, 1), standard_context(4, 2, 2)]
    for trial in range(500):
        ctx = contexts[trial % 2]
        w = _zero_charge_word(rng, ctx, 10)
        out = flatten_word(ctx, w)
        if not dp_equal(ctx.spec, out, w):
            raise _Failed(f"value changed for {w}")
        if any(h > 1 for h in heights(ctx.theta, out)):
            raise _Failed(f"heights exceed 1 for {w}")
        if len(w) and len(out) > 8 ** ctx.rank * len(w) ** (ctx.rank + 1):
            raise _Failed(f"length bound broke for {w}")
    return "500 words flattened"


def check_case_emitters() -> str:
    """Letter conversions, word conversions and the six relator-filling cases
    replay within their stated area and height bounds for all |h| <= 3."""
    cases_seen = set()
    rng = random.Random(41)
    for ctx in (standard_context(3, 2, 1), standard_context(3, 2, 2)):
        pres = ctx.presentation
        for h in range(-3, 4):
            for k in range(1, ctx.rank + 1):
                for gen in ctx.spec.all_generators():
                    for sign in (1, -1):
                        let = Letter(gen, sign)
                        seq = letter_conjugation_sequence(ctx, k, let, h)
                        acct = replay_sequence(pres, seq, ctx.theta)
                        if acct.area > 2 * (abs(h) + 1) ** 2:
                            raise _Failed(f"letter {let} h={h}")
                        for i, height in enumerate(acct.heights, start=1):
                            if height > (abs(h) + 1 if i == k else 1):
                                raise _Failed(f"letter heights {let} h={h}")
                for s in pres.relators:
                    for target in (s, s.inverse()):
                        seq, case = relator_filling(ctx, k, target, h)
                        acct = replay_sequence(pres, seq, ctx.theta)
                        cases_seen.add(case)
                        area_bound, h_other, h_k = relator_filling_bounds(case, h)
                        if acct.endpoints[1] != EMPTY:
                            raise _Failed(f"case {case} h={h} residue")
                        if acct.area > area_bound or acct.area > 7 * (abs(h) + 1) ** 2:
                            raise _Failed(
                                f"case {case} h={h}: area {acct.area} > {area_bound}"
                            )
                        for i, height in enumerate(acct.heights, start=1):
                            if height > (h_k if i == k else h_other):
                                raise _Failed(
                                    f"case {case} h={h}: heights {acct.heights}"
                                )
            # word-level conversion on a small random sample per h
            for _ in range(5):
                w = _random_word(rng, ctx.spec.all_generators(), 4)
                k = 1 + rng.randrange(ctx.rank)
                seq = conjugation_scheme(ctx, k, w, h)
                acct = replay_sequence(pres, seq, ctx.theta)
                hk = heights(ctx.theta, w)[k - 1]
                if acct.area > 2 * len(w) * (hk + abs(h) + 1) ** 2:
                    raise _Failed(f"word conversion {w} h={h}")
    if cases_seen != {1, 2, 3, 4, 5, 6}:
        raise _Failed(f"cases seen: {cases_seen}")
    return "all six cases, |h| <= 3, bounds hold"


def check_pulldown_pipeline() -> str:
    """Randomized expressions flatten with validated boundaries, bounded
    heights, and area within the iterated pulldown formula."""
    # perfbench's pulldown-flatten workload draws the same expressions
    rng = random.Random(13)
    contexts = [standard_context(3, 2, 1), standard_context(4, 2, 2)]
    for trial in range(200):
        ctx = contexts[trial % 2]
        pres = ctx.presentation
        theta = ctx.theta
        r = ctx.rank
        terms = []
        for _ in range(rng.randrange(4)):
            conj = _random_word(rng, ctx.spec.all_generators(), 4)
            terms.append((conj, rng.randrange(len(pres.relators)), rng.choice((1, -1))))
        expr = FillingExpression(tuple(terms))
        w = free_reduce(expr.boundary(pres))
        out = flatten_expression(ctx, expr, w)
        acct = _validated(pres, out, w, f"trial {trial}", theta)
        hw = heights(theta, w)
        he = expr.expr_heights(theta)
        for i in range(r):
            if acct.heights[i] > max(hw[i] + 1, 2):
                raise _Failed(f"trial {trial}: heights")
        zeta = 1
        for i in range(r):
            zeta *= max(hw[i] + 1, he[i] + 1, 2) ** 2
        bound = 7 ** (r - 1) * (7 * expr.area + 2 * r * len(w)) * zeta
        if out.area > bound:
            raise _Failed(f"trial {trial}: area {out.area} > {bound}")
    return "200 expressions flattened"


def check_amalgam_lower_bound() -> str:
    """Desk-scale witness areas against twice the subgroup distance, plus the
    distance bound for the squared commutator."""
    am = k32_amalgam()
    spec = DirectProductSpec(
        (("x1", "y1"), ("x2", "y2")),
        ChargeMap(1, {"x1": (1,), "y1": (0,), "x2": (1,), "y2": (0,)}),
    )
    gens = [am.middle_words[g] for g in ("p", "q", "s")]
    h1 = commutator(word("x1"), word("y1"))
    d1 = cayley_distance(gens, h1, spec.normal_form, SearchBudget(max_area=2))
    if d1.kind != "distance" or d1.distance != 1:
        raise _Failed(f"d_B(1,h1) = {d1}")

    details = []
    # n = 1: exact area
    w1 = k32_witness(1, 1)
    res1 = area_exact(
        am.presentation, w1, SearchBudget(max_word_length=len(w1), max_states=1_500_000)
    )
    if res1.kind != "area" or res1.area < 2 * 1 * d1.distance:
        raise _Failed(f"n=1: {res1.kind} {res1.area}")
    acct = replay_sequence(am.presentation, res1.witness)
    if acct.endpoints[1] != EMPTY:
        raise _Failed("n=1 witness broken")
    details.append(f"n=1 exact area {res1.area} >= 2")

    # n = 2: exhaustive lower bound at the inequality threshold, plus an
    # explicit replayed filling as the upper evidence
    w2 = k32_witness(1, 2)
    need = 2 * 2 * d1.distance
    res2 = area_exact(
        am.presentation,
        w2,
        SearchBudget(max_word_length=len(w2), max_states=2_000_000, max_area=need),
    )
    if res2.kind == "area":
        ok = res2.area >= need
        details.append(f"n=2 exact area {res2.area}")
    else:
        ok = res2.lower_bound >= need
        details.append(f"n=2 area >= {res2.lower_bound} (exhaustive to depth)")
    if not ok:
        raise _Failed(details[-1])
    fill = k32_witness_filling(2)
    acct2 = replay_sequence(am.presentation, fill)
    if acct2.endpoints != (w2, EMPTY):
        raise _Failed("n=2 filling broken")
    details.append(f"n=2 filled at area {acct2.area}")

    h2 = commutator(wpow(word("x1"), 2), wpow(word("y1"), 2))
    d2 = cayley_distance(gens, h2, spec.normal_form, SearchBudget(max_area=3))
    if d2.kind != "not-reached" or d2.radius_explored < 3:
        raise _Failed(f"d_B(1,h2) = {d2}")
    details.append("d_B(1,h2) >= 4")
    return "; ".join(details)


def check_tietze_evidence() -> str:
    """Each presentation's extra relators fill over the other presentation."""
    pres = k32_presentations()
    q1, q2 = pres["q1"], pres["q2"]
    budget = SearchBudget(max_word_length=40, max_states=500_000)
    verdicts = []
    for target, extras in (
        (q1, [r for r in q2.relators if r not in q1.relators]),
        (q2, [r for r in q1.relators if r not in q2.relators]),
    ):
        for rel in extras:
            res = find_filling(target, rel, budget)
            if res.kind != "area":
                raise _Failed(f"{rel} over {target}: {res.kind}")
            acct = replay_sequence(target, res.witness)
            if acct.endpoints[1] != EMPTY:
                raise _Failed(f"{rel}: bad witness")
            verdicts.append(acct.area)
    if len(verdicts) != 7:
        raise _Failed(f"{len(verdicts)} verdicts")
    return f"7 fillings, areas {verdicts}"


def check_bb_complexes() -> str:
    """Families die in the ambient group, schemes stay within bounds, the
    sampled relational areas fit the quadratic envelope, and the composed
    bound prints the quartic."""
    for delta in (bb.triangle_complex(), bb.octahedron_complex()):
        tree = bb.spanning_tree(delta)
        model = bb.BBModel(delta, tree)
        for member in bb.bb_indexed_families(delta, tree, 2):
            if not raag_equal(delta, bb.edge_embedding(delta, member.word), EMPTY):
                raise _Failed(f"family member survives: {member.word}")
        rows = bb.rarea_sample(delta, tree, 2, model=model)
        for row in rows:
            if row["upper"] > row["bound"]:
                raise _Failed(f"{row['kind']} index {row['index']}: "
                              f"{row['upper']} > {row['bound']}")
        for idx in (0, 1, 2):
            envelope = max(
                bb.scheme_bound(model, kind, idx)
                for kind in bb.SCHEME_KINDS
            )
            worst = max(r["upper"] for r in rows if r["index"] == idx)
            if worst > envelope:
                raise _Failed(f"index {idx}: {worst} > envelope {envelope}")
    quartic = compose_bounds(
        "penetration", parse_bound("l^2"), parse_bound("l"), parse_bound("l^2")
    )
    if quartic.canonical() != "l^4":
        raise _Failed(f"pipeline prints {quartic}")
    return "families die, schemes bounded, pipeline prints l^4"


def check_bounded_noise() -> str:
    """Every fixture word with a known exact area admits an expression within
    the drift bound."""
    ctx = standard_context(3, 2, 1)
    cross = commutator(word("e1_1"), word("e2_2"))
    conjugated = concat(cross, conjugate(cross, word("e1_2")))
    fixtures = [
        (Z2, word("x y x' y'")),
        (Z2, commutator(wpow(word("x"), 2), wpow(word("y"), 2))),
        (Z2, commutator(wpow(word("x"), 3), wpow(word("y"), 3))),
        (Z2, SCHEME_WORD),
        (ctx.presentation, cross),
        (ctx.presentation, conjugated),
    ]
    results = []
    for pres, w in fixtures:
        res = low_noise_search(
            pres, w, SearchBudget(max_word_length=len(w) + 4, max_states=1_000_000)
        )
        if res.kind != "found":
            raise _Failed(f"{w}: noise {res.noise} > bound {res.bound}")
        _validated(pres, res.expression, w, str(w))
        results.append((res.area, res.noise, res.bound))
    return f"(area, noise, bound): {results}"


def check_bound_calculators() -> str:
    """Canonical forms of the three composed bounds."""
    l2, l1 = parse_bound("l^2"), parse_bound("l")
    got = {
        "area-radius": compose_bounds("area-radius", l2, l1, r=1).canonical(),
        "split": compose_bounds("split", l2, l2).canonical(),
        "penetration": compose_bounds("penetration", l2, l1, l2).canonical(),
    }
    want = {"area-radius": "l^4", "split": "l^5", "penetration": "l^4"}
    if got != want:
        raise _Failed(f"{got} != {want}")
    return str(got)


CRITERIA: Dict[str, Callable[[], str]] = {
    "z2-area-law": check_square_area_law,
    "scheme-fixture": check_scheme_fixture,
    "pulldown-properties": check_pulldown_properties,
    "flatten-words": check_flatten_words,
    "case-emitters": check_case_emitters,
    "pulldown-pipeline": check_pulldown_pipeline,
    "amalgam-lower-bound": check_amalgam_lower_bound,
    "tietze-evidence": check_tietze_evidence,
    "bb-complexes": check_bb_complexes,
    "bounded-noise": check_bounded_noise,
    "bound-calculators": check_bound_calculators,
}


def run_criterion(name: str) -> CriterionResult:
    try:
        return CriterionResult(name, True, CRITERIA[name]())
    except _Failed as failed:
        return CriterionResult(name, False, str(failed))
