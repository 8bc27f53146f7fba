import itertools
import random

import pytest

from fillcalc.words import (
    ChargeMap,
    Letter,
    UnknownGeneratorError,
    Word,
    charge,
    commutator,
    concat,
    cyclic_reduce,
    departure,
    free_reduce,
    heights,
    word,
    wpow,
)


def random_word(rng, gens, max_len):
    n = rng.randrange(max_len + 1)
    return Word(
        tuple(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(n))
    )


def test_parse_and_format_round_trip():
    w = word("x y' x")
    assert len(w) == 3
    assert str(w) == "x y' x"
    assert word("1") == Word()
    assert str(Word()) == "1"
    assert word(str(w)) == w


def test_parse_decorated_names():
    w = word("e_1^{(2)} e_1^{(2)}'")
    assert free_reduce(w) == Word()


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        word("2x")
    with pytest.raises(ValueError):
        word("x-")


def test_inverse_involution():
    w = word("x y' z x'")
    assert w.inverse().inverse() == w
    assert len(w.inverse()) == len(w)


def test_letter_inverse_is_built_once():
    for let in (Letter("x", 1), Letter("y_z", -1)):
        inv = let.inverse()
        fresh = Letter(let.gen, -let.sign)
        assert (inv, hash(inv), repr(inv), str(inv)) == (
            fresh, hash(fresh), repr(fresh), str(fresh))
        assert type(inv) is Letter
        assert let.inverse() is inv
        assert inv.inverse() == let


def test_free_reduce_cancellation():
    assert free_reduce(word("x x' y")) == word("y")
    assert free_reduce(word("x y x' y'")) == word("x y x' y'")


def _free_move_neighbors(w, gens, cap):
    # expansions and contractions, for the brute-force check below
    out = []
    for i in range(len(w) - 1):
        if w[i] == w[i + 1].inverse():
            out.append(Word(w.letters[:i] + w.letters[i + 2 :]))
    if len(w) + 2 <= cap:
        for i in range(len(w) + 1):
            for g in gens:
                for s in (1, -1):
                    pair = (Letter(g, s), Letter(g, -s))
                    out.append(Word(w.letters[:i] + pair + w.letters[i:]))
    return out


def test_free_reduce_agrees_with_free_move_search():
    # (a b b' a')^3 reaches the empty word by free moves alone, staying
    # within length 12: breadth-first over the free-move graph
    w = wpow(word("a b b' a'"), 3)
    assert free_reduce(w) == Word()
    seen = {w}
    frontier = [w]
    found = False
    while frontier and not found:
        nxt = []
        for u in frontier:
            for v in _free_move_neighbors(u, ("a", "b"), cap=12):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    if v == Word():
                        found = True
        frontier = nxt
    assert found


def test_free_reduce_idempotent_and_parity():
    rng = random.Random(7)
    for _ in range(300):
        w = random_word(rng, ("x", "y", "z"), 12)
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert len(r) <= len(w)
        assert (len(w) - len(r)) % 2 == 0


def test_cyclic_reduce():
    assert cyclic_reduce(word("x y x'")) == word("y")
    assert cyclic_reduce(word("x y' x y x'")) == word("x")
    assert cyclic_reduce(word("y x y' x x")) == word("y x y' x x")


THETA1 = ChargeMap(1, {"e1_1": (1,), "e1_2": (1,), "e1_3": (1,)})


def test_charge_examples():
    assert charge(THETA1, Word()) == (0,)
    assert charge(THETA1, word("e1_1 e1_2'")) == (0,)
    assert charge(THETA1, word("e1_1 e1_1")) == (2,)


def test_charge_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        charge(THETA1, word("zz"))


def test_charge_additive_and_inverse():
    rng = random.Random(11)
    gens = ("e1_1", "e1_2", "e1_3")
    for _ in range(200):
        w = random_word(rng, gens, 8)
        v = random_word(rng, gens, 8)
        cw, cv = charge(THETA1, w), charge(THETA1, v)
        assert charge(THETA1, concat(w, v)) == tuple(a + b for a, b in zip(cw, cv))
        assert charge(THETA1, w.inverse()) == tuple(-a for a in cw)
        assert charge(THETA1, free_reduce(w)) == cw


def test_heights_examples():
    assert heights(THETA1, Word()) == (0,)
    assert heights(THETA1, word("e1_1 e1_1'")) == (1,)
    assert heights(THETA1, word("e1_1 e1_2' e1_1 e1_2'")) == (1,)


def test_heights_dominate_charge():
    rng = random.Random(13)
    theta = ChargeMap(2, {"a": (1, 0), "b": (0, 1), "c": (0, 0)})
    for _ in range(200):
        w = random_word(rng, ("a", "b", "c"), 10)
        hs = heights(theta, w)
        ch = charge(theta, w)
        assert all(h >= abs(c) for h, c in zip(hs, ch))


def test_heights_of_inverse_when_charge_zero():
    rng = random.Random(17)
    theta = ChargeMap(2, {"a": (1, 0), "b": (0, 1), "c": (0, 0)})
    trials = 0
    while trials < 100:
        w = random_word(rng, ("a", "b", "c"), 8)
        if charge(theta, w) != (0, 0):
            continue
        trials += 1
        assert heights(theta, w.inverse()) == heights(theta, w)


def test_departure_sandwich():
    theta = ChargeMap(2, {"a": (1, 0), "b": (0, 1)})
    assert departure(theta, Word()) == (0, 0)
    assert departure(theta, word("a b")) == (1, 2)


def test_departure_exact_by_cayley_search():
    # exact departure of a b from the kernel of a two-direction charge map on
    # F2 x F2, confirmed by breadth-first search over kernel cosets
    theta = ChargeMap(
        2, {"a1": (1, 0), "b1": (0, 1), "a2": (1, 0), "b2": (0, 1)}
    )
    gens = ("a1", "b1", "a2", "b2")
    w = word("a1 b1")

    def dist_to_kernel(vec):
        # in the coset graph Z^2, each generator moves by +-its charge
        seen = {vec}
        frontier = [vec]
        d = 0
        while True:
            if any(v == (0, 0) for v in frontier):
                return d
            d += 1
            assert d <= 3
            nxt = []
            for v in frontier:
                for g in gens:
                    for s in (1, -1):
                        ch = theta.charges[g]
                        u = (v[0] + s * ch[0], v[1] + s * ch[1])
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
            frontier = nxt

    exact = max(
        dist_to_kernel(tuple(charge(theta, w.prefix(j)))) for j in range(len(w) + 1)
    )
    lo, hi = departure(theta, w)
    assert exact == 2
    assert lo <= exact <= hi
    assert (lo, hi) == (1, 2)


def test_zero_heights_zero_departure():
    theta = ChargeMap(1, {"a": (1,), "b": (0,)})
    w = word("b b' b")
    assert heights(theta, w) == (0,)
    assert departure(theta, w) == (0, 0)


def test_commutator_and_powers():
    assert commutator(word("x"), word("y")) == word("x y x' y'")
    assert wpow(word("x y"), -2) == word("y' x' y' x'")
    assert wpow(word("x"), 0) == Word()
