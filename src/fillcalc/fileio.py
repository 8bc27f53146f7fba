"""JSON file formats for presentations, schemes, sequences, charge maps,
flag complexes and the inputs of the presentation constructors."""

from __future__ import annotations

from .bestvina_brady import FlagComplex
from .constructors import FiberPresentationInputs, PositiveNormalFormData
from .rewriting import (
    ApplyRelator,
    DerivationSequence,
    FreeContract,
    FreeExpand,
    GroupPresentation,
    Scheme,
    SchemeRow,
)
from .words import GENERATOR_NAME, ChargeMap, Word, word

__all__ = [
    "load_presentation",
    "dump_presentation",
    "load_scheme",
    "load_sequence",
    "dump_sequence",
    "load_charge_map",
    "load_flag_complex",
    "load_pnf_data",
    "load_fiber_inputs",
]


def load_presentation(data, what: str = "presentation") -> GroupPresentation:
    """A presentation from ``{"generators": [...], "relators": [...]}``;
    ``relators`` may be left out."""
    data = _object(data, what)
    return GroupPresentation(
        _names(data, what, "generators"),
        _words(data, what, "relators", default=()),
    )


# Every loader checks its fields with the helpers below: a malformed file
# raises ValueError naming the field, which the CLI reports as a usage error.

_REQUIRED = object()


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    return data


def _field(data: dict, what: str, name: str, check, expected: str,
           default=_REQUIRED):
    """``data[name]`` if ``check`` accepts it; a missing field falls back to
    ``default`` when one is given."""
    if name not in data:
        if default is _REQUIRED:
            raise ValueError(f"{what} field {name!r} is missing")
        return default
    value = data[name]
    if not check(value):
        raise ValueError(f"{what} field {name!r} must be {expected}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_ints(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _names(data: dict, what: str, name: str) -> list:
    """A list of distinct generator names."""
    names = _field(data, what, name, _is_strings, "a list of strings")
    for i, v in enumerate(names):
        if not GENERATOR_NAME.match(v):
            raise ValueError(f"{what} field {name!r}: {v!r} is not a generator name")
        if v in names[:i]:
            raise ValueError(f"{what} field {name!r}: {v!r} is repeated")
    return names


def _int(data: dict, what: str, name: str) -> int:
    return _field(data, what, name, _is_int, "an integer")


def _word(data: dict, what: str, name: str) -> Word:
    text = _field(data, what, name, lambda v: isinstance(v, str), "a word string")
    return _parse(text, what, name)


def _parse(text: str, what: str, name: str) -> Word:
    try:
        return word(text)
    except ValueError as exc:
        raise ValueError(f"{what} field {name!r}: {exc}") from None


def _words(data: dict, what: str, name: str, default=_REQUIRED):
    texts = _field(data, what, name, _is_strings, "a list of strings", default)
    return None if texts is None else tuple(_parse(t, what, name) for t in texts)


def _word_map(data: dict, what: str, name: str, default=_REQUIRED):
    texts = _field(
        data, what, name,
        lambda v: isinstance(v, dict) and all(isinstance(t, str) for t in v.values()),
        "an object mapping generators to word strings", default,
    )
    return None if texts is None else {g: _parse(t, what, name) for g, t in texts.items()}


def dump_presentation(pres: GroupPresentation) -> dict:
    return {
        "generators": list(pres.generators),
        "relators": [str(r) for r in pres.relators],
    }


def load_scheme(data) -> Scheme:
    """A scheme from ``{"rows": [{"word": ..., "area": ...}, ...]}``.  A row
    that claims ``heights`` is rejected: no verifier checks them."""
    rows = _field(_object(data, "scheme"), "scheme", "rows",
                  lambda v: isinstance(v, list), "a list of rows")
    out = []
    for i, row in enumerate(rows):
        what = f"scheme row {i}"
        row = _object(row, what)
        if "heights" in row:
            raise ValueError(f"{what} field 'heights' is not checked; leave it out")
        area = _int(row, what, "area")
        if area < 0:
            raise ValueError(f"{what} field 'area' must be a nonnegative integer")
        out.append(SchemeRow(_word(row, what, "word"), area))
    return Scheme(tuple(out))


def _load_move(data, what: str):
    data = _object(data, what)
    op = _field(data, what, "op", lambda v: v in ("contract", "expand", "relator"),
                "'contract', 'expand' or 'relator'")
    pos = _int(data, what, "pos")
    if op == "contract":
        return FreeContract(pos)
    if op == "expand":
        letter = _word(data, what, "letter")
        if len(letter) != 1:
            raise ValueError(f"{what} field 'letter' must be a single letter")
        return FreeExpand(pos, letter[0])
    return ApplyRelator(
        pos, *(_int(data, what, name) for name in ("rel", "sign", "rot", "split"))
    )


def _dump_move(move) -> dict:
    if isinstance(move, FreeContract):
        return {"op": "contract", "pos": move.pos}
    if isinstance(move, FreeExpand):
        return {"op": "expand", "pos": move.pos, "letter": str(move.letter)}
    return {
        "op": "relator",
        "pos": move.pos,
        "rel": move.rel,
        "sign": move.sign,
        "rot": move.rot,
        "split": move.split,
    }


def load_sequence(data) -> DerivationSequence:
    """A sequence from ``{"start": ..., "moves": [...]}``, each move an object
    whose ``op`` is ``contract`` (``pos``), ``expand`` (``pos``, ``letter``)
    or ``relator`` (``pos``, ``rel``, ``sign``, ``rot``, ``split``)."""
    what = "sequence"
    data = _object(data, what)
    start = _word(data, what, "start")
    moves = _field(data, what, "moves", lambda v: isinstance(v, list),
                   "a list of moves")
    return DerivationSequence(
        start, tuple(_load_move(m, f"sequence move {i}") for i, m in enumerate(moves))
    )


def dump_sequence(seq: DerivationSequence) -> dict:
    return {"start": str(seq.start), "moves": [_dump_move(m) for m in seq.moves]}


def load_charge_map(data) -> ChargeMap:
    """A charge map from ``{"rank": r, "charges": {generator: [r integers]}}``."""
    what = "charge map"
    data = _object(data, what)
    charges = _field(
        data, what, "charges",
        lambda v: isinstance(v, dict) and all(_is_ints(vec) for vec in v.values()),
        "an object mapping generators to lists of integers",
    )
    return ChargeMap(_int(data, what, "rank"), charges)


def load_flag_complex(data) -> FlagComplex:
    """A flag complex from ``{"vertices": [...], "edges": [[u, v], ...]}``
    and an optional ``base`` vertex."""
    what = "flag complex"
    data = _object(data, what)
    edges = _field(
        data, what, "edges",
        lambda v: isinstance(v, list)
        and all(_is_strings(e) and len(e) == 2 for e in v),
        "a list of vertex pairs",
    )
    return FlagComplex(
        _names(data, what, "vertices"),
        [tuple(e) for e in edges],
        _field(data, what, "base", lambda v: v is None or isinstance(v, str),
               "a vertex name", default=None),
    )


def load_pnf_data(data) -> PositiveNormalFormData:
    """Positive normal form data from ``{"base": presentation, "stable":
    letter, "w_plus": {generator: word}}`` and an optional ``w_minus`` of
    the same shape."""
    what = "positive normal form data"
    data = _object(data, what)
    return PositiveNormalFormData(
        base=load_presentation(
            _field(data, what, "base", lambda v: True, "a presentation"),
            "base presentation",
        ),
        stable=_field(data, what, "stable", lambda v: isinstance(v, str),
                      "a generator name"),
        w_plus=_word_map(data, what, "w_plus"),
        w_minus=_word_map(data, what, "w_minus", default=None),
    )


def load_fiber_inputs(data) -> FiberPresentationInputs:
    """Fiber-product inputs from an object whose ``a1``, ``x1``, ``a2`` and
    ``x2`` are lists of generator names and whose ``r1`` to ``r4`` are lists
    of word strings, with an optional ``w_r4`` list of word strings."""
    what = "fiber spec"
    data = _object(data, what)
    names = {
        name: tuple(_field(data, what, name, _is_strings, "a list of strings"))
        for name in ("a1", "x1", "a2", "x2")
    }
    relators = {name: _words(data, what, name) for name in ("r1", "r2", "r3", "r4")}
    return FiberPresentationInputs(
        **names, **relators, w_r4=_words(data, what, "w_r4", default=None)
    )
