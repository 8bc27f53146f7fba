"""JSON file formats for presentations, schemes, sequences, charge maps and
flag complexes."""

from __future__ import annotations

from .bestvina_brady import FlagComplex
from .rewriting import (
    ApplyRelator,
    DerivationSequence,
    FreeContract,
    FreeExpand,
    GroupPresentation,
    Scheme,
    SchemeRow,
)
from .words import ChargeMap, word

__all__ = [
    "load_presentation",
    "dump_presentation",
    "load_scheme",
    "load_sequence",
    "dump_sequence",
    "load_charge_map",
    "load_flag_complex",
]


def load_presentation(data) -> GroupPresentation:
    """A presentation from ``{"generators": [...], "relators": [...]}``;
    ``relators`` may be left out.  A malformed file raises ``ValueError``
    naming the field."""
    if not isinstance(data, dict):
        raise ValueError("a presentation must be a JSON object")
    if "generators" not in data:
        raise ValueError("presentation field 'generators' is missing")
    return GroupPresentation(
        _strings(data, "generators"),
        tuple(word(text) for text in _strings(data, "relators")),
    )


def _strings(data: dict, name: str):
    value = data.get(name, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"presentation field {name!r} must be a list of strings")
    return value


def dump_presentation(pres: GroupPresentation) -> dict:
    return {
        "generators": list(pres.generators),
        "relators": [str(r) for r in pres.relators],
    }


def load_scheme(data) -> Scheme:
    rows = []
    for row in data["rows"]:
        heights = row.get("heights")
        rows.append(
            SchemeRow(
                word(row["word"]),
                int(row["area"]),
                tuple(heights) if heights is not None else None,
            )
        )
    return Scheme(tuple(rows))


def _load_move(data):
    op = data["op"]
    if op == "contract":
        return FreeContract(int(data["pos"]))
    if op == "expand":
        return FreeExpand(int(data["pos"]), word(data["letter"])[0])
    if op == "relator":
        return ApplyRelator(
            int(data["pos"]),
            int(data["rel"]),
            int(data["sign"]),
            int(data["rot"]),
            int(data["split"]),
        )
    raise ValueError(f"unknown move op {op!r}")


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
    return DerivationSequence(
        word(data["start"]), tuple(_load_move(m) for m in data["moves"])
    )


def dump_sequence(seq: DerivationSequence) -> dict:
    return {"start": str(seq.start), "moves": [_dump_move(m) for m in seq.moves]}


def load_charge_map(data) -> ChargeMap:
    return ChargeMap(int(data["rank"]), {g: v for g, v in data["charges"].items()})


def load_flag_complex(data) -> FlagComplex:
    return FlagComplex(
        data["vertices"],
        [tuple(e) for e in data["edges"]],
        data.get("base"),
    )
