import random

import pytest
from hypothesis import given, settings, strategies as st

from fillcalc import pulldown
from fillcalc.oracle import dp_equal
from fillcalc.pulldown import (
    BoundExpr,
    NonzeroChargeError,
    TooFewFactorsError,
    UnsupportedRelatorError,
    base_filling,
    check_phi_properties,
    compose_bounds,
    conjugation_scheme,
    flatten_expression,
    flatten_word,
    letter_conjugation_sequence,
    parse_bound,
    phi,
    pulldown_expression,
    relator_filling,
    relator_filling_bounds,
    standard_context,
)
from fillcalc.rewriting import (
    DerivationSequence,
    FillingExpression,
    InternalCheckError,
    replay_sequence,
    reverse_sequence,
    sequence_to_expression,
    validate_expression,
)
from fillcalc.words import (
    EMPTY,
    Letter,
    Word,
    charge,
    concat,
    free_reduce,
    heights,
    word,
    wpow,
)

CTX1 = standard_context(3, 2, 1)  # F2 x F2 x F2, one direction
CTX2 = standard_context(4, 2, 2)  # F2^4, two directions
CTX32 = standard_context(3, 2, 2)  # F2^3, two directions


def random_word(rng, ctx, max_len):
    gens = ctx.spec.all_generators()
    n = rng.randrange(max_len + 1)
    return Word(
        tuple(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(n))
    )


def e_power(ctx, k, n):
    return wpow(Word((ctx.e(k),)), n)


def test_phi_letter_examples():
    # a charge-zero letter outside the first factor is untouched
    assert phi(CTX1, 1, word("e2_2"), 5) == word("e2_2")
    # a charged letter outside the first factor picks up one balancing letter
    assert phi(CTX1, 1, word("e1_2"), 3) == word("e1_2 e1_1'")
    # the distinguished first-factor letter at height one
    expected = word("e1_1 e1_2' e1_1 e1_2' e1_2 e1_1' e1_2 e1_1'")
    assert phi(CTX1, 1, word("e1_1"), 1) == expected


def test_phi_direction_validation():
    with pytest.raises(Exception):
        phi(CTX1, 2, word("e1_1"), 0)


def test_phi_properties_randomized():
    rng = random.Random(101)
    contexts = [CTX1, CTX32]
    for trial in range(1000):
        ctx = contexts[trial % 2]
        k = 1 + trial % ctx.rank
        w = random_word(rng, ctx, 10)
        w2 = random_word(rng, ctx, 6)
        h = rng.randint(-3, 3)
        results = check_phi_properties(ctx, k, w, w2, h)
        assert all(results.values()), (trial, results, w, h)


def test_phi_inverse_letter_exact():
    rng = random.Random(7)
    for _ in range(100):
        w = random_word(rng, CTX1, 8)
        h = rng.randint(-2, 2)
        assert phi(CTX1, 1, w, h).inverse() == phi(
            CTX1, 1, w.inverse(), charge(CTX1.theta, w)[0] + h
        )


@st.composite
def pull_inputs(draw):
    ctx = draw(st.sampled_from((CTX1, CTX2)))
    letters = st.builds(
        Letter, st.sampled_from(ctx.spec.all_generators()), st.sampled_from((1, -1))
    )
    w = Word(draw(st.lists(letters, max_size=8)))
    return ctx, draw(st.integers(1, ctx.rank)), w, draw(st.integers(-3, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pull_inputs())
def test_phi_s_walk_ends_at_the_height_of_the_word(drawn):
    ctx, k, w, h = drawn
    assert pulldown._pull(ctx, k, w, h) == (
        phi(ctx, k, w, h), h + charge(ctx.theta, w)[k - 1]
    )


def random_zero_charge_word(rng, ctx, max_len):
    w = random_word(rng, ctx, max_len)
    fix = []
    ch = charge(ctx.theta, w)
    for k, c in enumerate(ch, start=1):
        fix.extend(wpow(Word((ctx.e(k),)), -c).letters)
    return concat(w, Word(fix))


def test_flatten_word_rejects_charged():
    with pytest.raises(NonzeroChargeError):
        flatten_word(CTX1, word("e1_1"))


def test_flatten_word_trivial():
    assert flatten_word(CTX1, EMPTY) == EMPTY


@pytest.mark.parametrize("ctx", [CTX1, CTX2])
def test_flatten_word_randomized(ctx):
    rng = random.Random(55)
    for _ in range(250):
        w = random_zero_charge_word(rng, ctx, 10)
        out = flatten_word(ctx, w)
        assert dp_equal(ctx.spec, out, w)
        assert all(h <= 1 for h in heights(ctx.theta, out))
        if len(w):
            assert len(out) <= 8 ** ctx.rank * len(w) ** (ctx.rank + 1)


def test_flatten_word_length_example():
    w = concat(
        wpow(word("e1_1 e1_2'"), 2),
        wpow(word("e2_1"), 2),
        wpow(word("e1_1 e1_2'"), -2),
        wpow(word("e2_1"), -2),
    )
    assert charge(CTX1.theta, w) == (0,)
    out = flatten_word(CTX1, w)
    assert len(out) <= 8 * len(w) ** 2
    assert all(h <= 1 for h in heights(CTX1.theta, out))


@pytest.mark.parametrize("h", range(-3, 4))
def test_letter_conjugation_all_letters(h):
    for ctx in (CTX1, CTX32):
        for k in range(1, ctx.rank + 1):
            for gen in ctx.spec.all_generators():
                for sign in (1, -1):
                    let = Letter(gen, sign)
                    seq = letter_conjugation_sequence(ctx, k, let, h)
                    acct = replay_sequence(ctx.presentation, seq, ctx.theta)
                    t = sign * ctx.theta.charges[gen][k - 1]
                    assert acct.endpoints[0] == phi(ctx, k, Word((let,)), h)
                    assert acct.endpoints[1] == concat(
                        e_power(ctx, k, h), Word((let,)), e_power(ctx, k, -h - t)
                    )
                    assert acct.area <= 2 * (abs(h) + 1) ** 2
                    for i, height in enumerate(acct.heights, start=1):
                        assert height <= (abs(h) + 1 if i == k else 1)


@pytest.mark.parametrize("h", [-3, -1, 0, 2, 3])
def test_conjugation_scheme_words(h):
    rng = random.Random(77 + h)
    for ctx in (CTX1, CTX32):
        for _ in range(20):
            w = random_word(rng, ctx, 4)
            k = 1 + rng.randrange(ctx.rank)
            seq = conjugation_scheme(ctx, k, w, h)
            acct = replay_sequence(ctx.presentation, seq, ctx.theta)
            assert acct.endpoints[0] == phi(ctx, k, w, h)
            assert acct.endpoints[1] == concat(
                e_power(ctx, k, h), w, e_power(ctx, k, -h - charge(ctx.theta, w)[k - 1])
            )
            hk = heights(ctx.theta, w)[k - 1]
            assert acct.area <= 2 * len(w) * (hk + abs(h) + 1) ** 2
            for i, height in enumerate(acct.heights, start=1):
                if i == k:
                    assert height <= hk + abs(h) + 1
                else:
                    assert height <= heights(ctx.theta, w)[i - 1] + 1


def _all_commutator_relators(ctx):
    return list(ctx.presentation.relators)


@pytest.mark.parametrize("h", range(-3, 4))
def test_relator_filling_all_cases(h):
    seen_cases = set()
    for ctx in (CTX1, CTX32):
        for k in range(1, ctx.rank + 1):
            for s in _all_commutator_relators(ctx):
                for flip in (False, True):
                    target = s.inverse() if flip else s
                    seq, case = relator_filling(ctx, k, target, h)
                    seen_cases.add(case)
                    acct = replay_sequence(ctx.presentation, seq, ctx.theta)
                    assert acct.endpoints[0] == phi(ctx, k, target, h)
                    assert acct.endpoints[1] == EMPTY
                    area_bound, h_other, h_k = relator_filling_bounds(case, h)
                    assert acct.area <= area_bound, (case, h, acct.area, area_bound)
                    assert acct.area <= 7 * (abs(h) + 1) ** 2
                    for i, height in enumerate(acct.heights, start=1):
                        assert height <= (h_k if i == k else h_other), (
                            case,
                            h,
                            i,
                            acct.heights,
                        )
    assert seen_cases == {1, 2, 3, 4, 5, 6}


def test_relator_filling_rejects_residue(monkeypatch):
    # [e1_2, e1_3] has both letters outside the first factor: case 1
    monkeypatch.setattr(pulldown, "_fill_case_both_high", lambda ctx, k, editor: None)
    with pytest.raises(InternalCheckError, match="case 1 left residue"):
        relator_filling(CTX1, 1, word("e1_2 e1_3 e1_2' e1_3'"), 1)


def test_relator_filling_rejects_free_factor_relators():
    with pytest.raises(UnsupportedRelatorError):
        relator_filling(CTX1, 1, word("e1_1 e2_1"), 0)


def test_relator_filling_needs_three_factors():
    ctx = standard_context(2, 2, 1)
    with pytest.raises(TooFewFactorsError):
        relator_filling(ctx, 1, word("e1_1 e1_2 e1_1' e1_2'"), 0)


def random_expression(rng, ctx, max_terms, max_conj):
    relators = ctx.presentation.relators
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        conj = random_word(rng, ctx, max_conj)
        terms.append((conj, rng.randrange(len(relators)), rng.choice((1, -1))))
    return FillingExpression(tuple(terms))


def test_pulldown_expression_empty():
    w = word("e2_1 e2_1'")
    out = pulldown_expression(CTX1, 1, FillingExpression(()), w)
    validate_expression(CTX1.presentation, out, w)


def test_pulldown_expression_single_term():
    expr = FillingExpression(((EMPTY, 0, 1),))
    w = free_reduce(expr.boundary(CTX1.presentation))
    out = pulldown_expression(CTX1, 1, expr, w)
    validate_expression(CTX1.presentation, out, w)
    assert out.area <= 7 + 2 * len(w)


@pytest.mark.parametrize("ctx", [CTX1, CTX2])
def test_pulldown_expression_randomized(ctx):
    rng = random.Random(11)
    theta = ctx.theta
    for _ in range(100):
        expr = random_expression(rng, ctx, 3, 4)
        w = free_reduce(expr.boundary(ctx.presentation))
        k = 1 + rng.randrange(ctx.rank)
        out = pulldown_expression(ctx, k, expr, w)
        validate_expression(ctx.presentation, out, w)
        hk_e = expr.expr_heights(theta)[k - 1]
        hk_w = heights(theta, w)[k - 1]
        assert out.area <= 7 * expr.area * (hk_e + 1) ** 2 + 2 * len(w) * (hk_w + 1) ** 2
        out_heights = out.expr_heights(theta)
        for i in range(1, theta.rank + 1):
            bound = max(heights(theta, w)[i - 1] + 1, 2)
            if i != k:
                bound = max(bound, expr.expr_heights(theta)[i - 1])
            assert out_heights[i - 1] <= bound


def reference_pulldown_expression(ctx, k, expr, w):
    """The expression pulldown with every term refilled afresh."""
    pres = ctx.presentation
    sigma = conjugation_scheme(ctx, k, w, 0)
    terms = list(sequence_to_expression(pres, reverse_sequence(pres, sigma)).terms)
    for conj, rel, sign in expr.terms:
        base = pres.relators[rel]
        fill, _ = relator_filling(
            ctx, k, base if sign > 0 else base.inverse(), charge(ctx.theta, conj)[k - 1]
        )
        prefix = phi(ctx, k, conj, 0)
        for u, r2, s2 in sequence_to_expression(pres, fill).terms:
            terms.append((concat(prefix, u), r2, s2))
    return FillingExpression(terms)


def test_pulldown_reads_each_height_from_phi_s_walk(monkeypatch):
    # the pulldown-pipeline criterion's first 40 expressions, drawn as it
    # draws them: conjugators' heights come from the walk that pulls them
    # down, so no separate charge walk runs
    rng = random.Random(13)
    drawn = []
    for trial in range(40):
        ctx = (CTX1, CTX2)[trial % 2]
        expr = random_expression(rng, ctx, 3, 4)
        drawn.append((ctx, expr, free_reduce(expr.boundary(ctx.presentation))))
    assert sum(len(expr.terms) for _, expr, _ in drawn) > 40
    calls = []
    original = pulldown.charge

    def counting(theta, w):
        calls.append(w)
        return original(theta, w)

    monkeypatch.setattr(pulldown, "charge", counting)
    for ctx, expr, w in drawn:
        flatten_expression(ctx, expr, w)
        for h in (-2, 1):
            conjugation_scheme(ctx, ctx.rank, w, h)
    assert calls == []


# keys (relator, sign, height): (0, 1, 1) three times, (4, -1, 0) twice
REPEATED_KEYS = FillingExpression(
    (
        (word("e1_2"), 0, 1),
        (EMPTY, 4, -1),
        (word("e1_3"), 0, 1),
        (word("e2_2 e1_1"), 0, 1),
        (word("e2_2"), 4, -1),
    )
)


def counted_fills(monkeypatch):
    """Record every relator_filling call from here on."""
    fills = []
    original = pulldown.relator_filling

    def counting(ctx, k, s, h):
        fills.append((s, h))
        return original(ctx, k, s, h)

    monkeypatch.setattr(pulldown, "relator_filling", counting)
    return fills


def test_pulldown_expression_fills_a_repeated_key_once(monkeypatch):
    # a fresh context: the shared ones may hold fills from earlier tests
    ctx = standard_context(3, 2, 1)
    w = free_reduce(REPEATED_KEYS.boundary(ctx.presentation))
    expected = reference_pulldown_expression(ctx, 1, REPEATED_KEYS, w)
    fills = counted_fills(monkeypatch)
    out = pulldown_expression(ctx, 1, REPEATED_KEYS, w)
    assert out == expected
    validate_expression(ctx.presentation, out, w)
    # one fill per key; the inverse relator's fill also fills its inverse
    assert len(fills) == 3


def test_a_context_keeps_its_relator_fills_across_calls(monkeypatch):
    ctx = standard_context(3, 2, 1)
    w = free_reduce(REPEATED_KEYS.boundary(ctx.presentation))
    first = pulldown_expression(ctx, 1, REPEATED_KEYS, w)
    fills = counted_fills(monkeypatch)
    assert pulldown_expression(ctx, 1, REPEATED_KEYS, w) == first
    assert fills == []


@pytest.mark.parametrize("ctx", [CTX1, CTX2])
def test_flatten_expression_randomized(ctx):
    rng = random.Random(13)
    theta = ctx.theta
    r = ctx.rank
    for _ in range(100):
        expr = random_expression(rng, ctx, 3, 4)
        w = free_reduce(expr.boundary(ctx.presentation))
        out = flatten_expression(ctx, expr, w)
        validate_expression(ctx.presentation, out, w)
        out_heights = out.expr_heights(theta)
        zetas = []
        for j in range(1, r + 1):
            zetas.append(
                max(
                    heights(theta, w)[j - 1] + 1,
                    expr.expr_heights(theta)[j - 1] + 1,
                    2,
                )
            )
        prod = 1
        for z in zetas:
            prod *= z * z
        bound = 7 ** (r - 1) * (7 * expr.area + 2 * r * len(w)) * prod
        assert out.area <= bound
        for i in range(1, r + 1):
            assert out_heights[i - 1] <= max(heights(theta, w)[i - 1] + 1, 2)


def test_flatten_expression_rank_one_is_single_pulldown():
    rng = random.Random(17)
    expr = random_expression(rng, CTX1, 2, 3)
    w = free_reduce(expr.boundary(CTX1.presentation))
    assert flatten_expression(CTX1, expr, w).terms == pulldown_expression(
        CTX1, 1, expr, w
    ).terms


def test_base_filling_examples():
    assert base_filling(CTX1, EMPTY).area == 0
    cross = word("e1_1 e2_2 e1_1' e2_2'")
    out = base_filling(CTX1, cross)
    validate_expression(CTX1.presentation, out, cross)
    assert out.area == 1


def test_base_filling_mixed_word():
    w = word("e1_1 e1_2 e2_3 e1_1' e1_2' e2_3'")
    assert dp_equal(CTX1.spec, w, EMPTY)
    out = base_filling(CTX1, w)
    acct = validate_expression(CTX1.presentation, out, w, CTX1.theta)
    assert out.area <= len(w) ** 2
    assert all(h <= len(w) for h in acct.heights)


def test_base_filling_randomized():
    rng = random.Random(23)
    for _ in range(100):
        parts = []
        for i, alphabet in enumerate(CTX1.spec.factors):
            u = Word(
                tuple(
                    Letter(rng.choice(alphabet), rng.choice((1, -1)))
                    for _ in range(rng.randrange(3))
                )
            )
            parts.append(concat(u, u.inverse()))
        rng.shuffle(parts)
        w = concat(*parts)
        # interleave the factors by a random shuffle of letters
        letters = list(w.letters)
        rng.shuffle(letters)
        shuffled = Word(letters)
        if not dp_equal(CTX1.spec, shuffled, EMPTY):
            continue
        out = base_filling(CTX1, shuffled)
        validate_expression(CTX1.presentation, out, shuffled)
        assert out.area <= len(shuffled) ** 2


def test_bound_parse_and_eval():
    # max resolves by eventual dominance at parse time
    b = parse_bound("2*l^3 + max(l, 4)")
    assert b(2) == 16 + 2
    assert b(10) == 2000 + 10
    assert parse_bound("l^2 @ l^3").canonical() == "l^6"
    assert parse_bound("max(l^2, l)").canonical() == "l^2"
    assert parse_bound("(l + 1) * (l + 1)")(3) == 16


def test_a_chained_exponent_needs_parentheses():
    for text in ("l^2^3", "2^3^2", "(l^2)^3^2"):
        with pytest.raises(ValueError, match="chained '\\^' needs parentheses"):
            parse_bound(text)
    assert parse_bound("(l^2)^3").canonical() == "l^6"


def test_powers_by_squaring_equal_repeated_products():
    for base in ("l + 1", "2*l^2 + 3", "max(l, 2)", "0", "7"):
        b = parse_bound(base)
        product = BoundExpr.const(1)
        for n in range(20):
            assert b ** n == product, (base, n)
            product = product * b


def test_a_bound_past_its_limits_is_refused():
    assert parse_bound("l^256").canonical() == "l^256"
    assert parse_bound("(2*l)^128").canonical() == f"{2 ** 128}*l^128"
    assert parse_bound("2^1023 * l")(1) == 2 ** 1023
    for text in ("l^257", "(l+1)^1000", "l^128 * l^129", "(l^200) @ (l^2)"):
        with pytest.raises(ValueError, match="degree above 256"):
            parse_bound(text)
    for text in ("2^1024", "2^999999999", "(2^600) * (2^600)"):
        with pytest.raises(ValueError, match="longer than 1024 bits"):
            parse_bound(text)
    with pytest.raises(ValueError, match="degree above 256"):
        compose_bounds("split", parse_bound("l^128"), parse_bound("l"))


def test_a_bound_nested_past_its_limit_is_refused():
    assert parse_bound("(" * 64 + "l" + ")" * 64).canonical() == "l"
    assert parse_bound("max(l, " * 63 + "max(1, l^2)" + ")" * 63).canonical() == "l^2"
    for text in ("(" * 65 + "l" + ")" * 65, "max(l, " * 65 + "l" + ")" * 65,
                 "(" * 3000 + "l" + ")" * 3000, "(" * 3000):
        with pytest.raises(ValueError, match="nests parentheses deeper than 64"):
            parse_bound(text)


def test_compose_bounds_examples():
    l2 = parse_bound("l^2")
    l1 = parse_bound("l")
    assert compose_bounds("area-radius", l2, l1, r=1).canonical() == "l^4"
    assert compose_bounds("split", l2, l2).canonical() == "l^5"
    assert compose_bounds("penetration", l2, l1, l2).canonical() == "l^4"
    assert (
        compose_bounds("split-distortion", l2, l2, l2).canonical() == "l^5"
    )


def test_compose_bounds_matches_pointwise():
    rng = random.Random(3)
    alpha = parse_bound("l^2")
    rho = parse_bound("l")
    b = compose_bounds("area-radius", alpha, rho, r=1)
    for _ in range(100):
        l = rng.randrange(50)
        assert b(l) == (rho(l) ** 2) * alpha(l)


def test_compose_bounds_arity_errors():
    with pytest.raises(ValueError):
        compose_bounds("split", parse_bound("l"))
    with pytest.raises(ValueError):
        compose_bounds("nonsense", parse_bound("l"))
