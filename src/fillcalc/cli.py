"""Command-line front end.

Every command fills one machine-readable JSON report (version 2), which
`main` prints on stdout, or writes to the `--json` path, once the command
returns; progress lines go to stderr.  The report is byte-identical across
runs, so timing is only recorded on request.  Exit codes: 0 all verdicts
pass, 1 a verification failed, 2 usage error, 3 a search budget was
exhausted, 4 an internal check failed or an unexpected exception was
raised (a defect in fillcalc, not in the input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import List, Optional

from . import acceptance, bestvina_brady as bb, fileio
from .constructors import (
    KnmrSpec,
    depth_coabelian,
    fiber_presentation,
    k32_pnf_data,
    k32_presentations,
    knmr_generators,
    cyclic_infinite_presentation,
)
from .oracle import (
    DirectProductSpec,
    SearchBudget,
    area_exact,
    dehn_sample,
    distortion_sample,
)
from .pulldown import (BOUND_INPUTS, compose_bounds, flatten_word, parse_bound, phi,
                       standard_context)
from .rewriting import InternalCheckError, verify_scheme
from .words import free_reduce, word

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _digest(*paths: Optional[str]) -> List[str]:
    out = []
    for path in paths:
        if path is None:
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            h.update(fh.read())
        out.append(f"{path}:{h.hexdigest()[:16]}")
    return out


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_word_length=args.budget_len,
        max_states=args.budget_states,
    )


def _emit(args, report: dict, started: float) -> None:
    report["version"] = 2
    if args.timing:
        report["timing_ms"] = int((time.monotonic() - started) * 1000)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _cmd_reduce(args, report) -> int:
    report["verdicts"] = {"word": str(free_reduce(word(args.word)))}
    return EXIT_PASS


def _cmd_area(args, report) -> int:
    pres = fileio.load_presentation(_load_json(args.presentation))
    w = word(args.word)
    result = area_exact(pres, w, _budget(args))
    report["inputs"] = _digest(args.presentation)
    report["verdicts"] = {"kind": result.kind, "area": result.area,
                          "lower_bound": result.lower_bound}
    if result.witness is not None:
        report["witnesses"] = {"sequence": fileio.dump_sequence(result.witness)}
    if result.kind == "budget-exhausted":
        return EXIT_BUDGET
    return EXIT_PASS if result.kind == "area" else EXIT_FAIL


def _cmd_dehn(args, report) -> int:
    pres = fileio.load_presentation(_load_json(args.presentation))
    result = dehn_sample(pres, args.length, _budget(args))
    report["inputs"] = _digest(args.presentation)
    report["verdicts"] = {
        "kind": result.kind,
        "value": result.value,
        "witness": str(result.witness) if result.witness is not None else None,
        "words_checked": result.words_checked,
    }
    return EXIT_PASS if result.kind == "value" else EXIT_BUDGET


def _cmd_verify_scheme(args, report) -> int:
    pres = fileio.load_presentation(_load_json(args.presentation))
    scheme = fileio.load_scheme(_load_json(args.scheme))
    if args.sequences:
        seqs = [fileio.load_sequence(d) for d in _load_json(args.sequences)]
        out = verify_scheme(pres, scheme, sequences=seqs)
    else:
        out = verify_scheme(pres, scheme, budget=_budget(args))
    report["inputs"] = _digest(args.presentation, args.scheme, args.sequences)
    report["verdicts"] = {
        "rows": [
            {"index": r.index, "verdict": r.verdict, "area": r.measured_area}
            for r in out.rows
        ],
        "total_area": out.total_area,
    }
    if any(r.verdict == "budget-exhausted" for r in out.rows):
        return EXIT_BUDGET
    return EXIT_PASS if out.passed else EXIT_FAIL


def _context_word(args):
    """The standard context and --word, checked against its generators."""
    ctx = standard_context(args.n, args.m, args.r)
    w = word(args.word)
    extra = w.generators() - set(ctx.spec.factor_of)
    if extra:
        raise ValueError(f"--word: generator {min(extra)!r} is not in the context")
    return ctx, w


def _cmd_pulldown(args, report) -> int:
    ctx, w = _context_word(args)
    report["verdicts"] = {"word": str(phi(ctx, args.k, w, args.h))}
    return EXIT_PASS


def _cmd_flatten(args, report) -> int:
    report["verdicts"] = {"word": str(flatten_word(*_context_word(args)))}
    return EXIT_PASS


def _members(members) -> dict:
    return {"members": [{"word": str(m.word), "index": m.index, "family": m.family}
                        for m in members]}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# the flags each construct target takes, with their defaults; fiber's
# --spec has none and must be given
_CONSTRUCT_FLAGS = {
    "knmr": {"n": 3, "m": 2, "r": 1, "present": None},
    "cyclic": {"data": None, "index_bound": 0},
    "fiber": {"spec": None},
}


def _cmd_construct(args, report) -> int:
    takes = _CONSTRUCT_FLAGS[args.what]
    given = {f: getattr(args, f) for fs in _CONSTRUCT_FLAGS.values() for f in fs
             if getattr(args, f) is not None}
    if not given.keys() <= takes.keys():
        raise ValueError(f"construct {args.what} takes only "
                         + ", ".join(map(_flag, takes)))
    if args.what == "fiber" and "spec" not in given:
        raise ValueError("construct fiber needs --spec")
    if "present" in given and given.keys() & {"n", "m", "r"}:
        raise ValueError("construct knmr --present excludes --n, --m, --r")
    opts = {**takes, **given}
    if args.what == "knmr":
        if opts["present"]:
            pres = k32_presentations()[opts["present"]]
            report["verdicts"] = fileio.dump_presentation(pres)
        else:
            spec = KnmrSpec(opts["n"], opts["m"], opts["r"])
            report["verdicts"] = {
                "generators": [str(g) for g in knmr_generators(spec)]
            }
    elif args.what == "cyclic":
        if opts["data"]:
            data = fileio.load_pnf_data(_load_json(opts["data"]))
            report["inputs"] = _digest(opts["data"])
        else:
            data = k32_pnf_data()
        members = cyclic_infinite_presentation(data, opts["index_bound"])
        report["verdicts"] = _members(members)
    else:  # fiber
        inputs = fileio.load_fiber_inputs(_load_json(opts["spec"]))
        out = fiber_presentation(inputs)
        report["inputs"] = _digest(opts["spec"])
        report["verdicts"] = {
            "complete": out.complete,
            **fileio.dump_presentation(out.presentation),
        }
    return EXIT_PASS


def _cmd_bb(args, report) -> int:
    delta = fileio.load_flag_complex(_load_json(args.complex))
    tree = bb.spanning_tree(delta)
    report["inputs"] = _digest(args.complex)
    if args.action == "present":
        pres = bb.dicks_leary_presentation(delta)
        report["verdicts"] = fileio.dump_presentation(pres)
    elif args.action == "families":
        members = bb.bb_indexed_families(delta, tree, args.index_bound)
        report["verdicts"] = _members(members)
    else:  # rarea
        rows = bb.rarea_sample(delta, tree, args.index_bound)
        report["verdicts"] = {"table": rows}
    return EXIT_PASS


def _parse_factors(text: str):
    return [factor.split() for factor in text.split(",")]


def _cmd_distort(args, report) -> int:
    theta = fileio.load_charge_map(_load_json(args.theta))
    spec = DirectProductSpec(_parse_factors(args.factors), theta)
    sub = [word(t) for t in args.sub_gens.split(",")]
    ambient = [word(g) for g in spec.all_generators()]
    result = distortion_sample(
        sub, ambient, args.length, spec.normal_form, _budget(args), theta=theta
    )
    report["inputs"] = _digest(args.theta)
    report["verdicts"] = {
        "kind": result.kind,
        "value": result.value,
        "table": list(result.table),
    }
    return EXIT_PASS if result.kind == "value" else EXIT_BUDGET


def _cmd_depth(args, report) -> int:
    theta = fileio.load_charge_map(_load_json(args.theta))
    spec = DirectProductSpec(_parse_factors(args.factors), theta)
    value = depth_coabelian(spec)
    report["inputs"] = _digest(args.theta)
    report["verdicts"] = {"depth": value}
    return EXIT_PASS


# every flag that some bound kind takes
_BOUND_INPUT_FLAGS = tuple(dict.fromkeys(f for fs in BOUND_INPUTS.values() for f in fs))


def _cmd_bounds(args, report) -> int:
    wanted = BOUND_INPUTS[args.kind]
    if {f for f in _BOUND_INPUT_FLAGS if getattr(args, f) is not None} != set(wanted):
        raise ValueError(f"--kind {args.kind} takes exactly "
                         + ", ".join(map(_flag, wanted)))
    if args.r is not None and args.kind != "area-radius":
        raise ValueError("--r is read only by --kind area-radius")
    inputs = []
    for f in wanted:
        try:
            inputs.append(parse_bound(getattr(args, f)))
        except ValueError as exc:
            raise ValueError(f"{_flag(f)}: {exc}") from None
    r = 1 if args.r is None else args.r
    if r < 0:
        raise ValueError(f"--r: must be nonnegative, not {r}")
    out = compose_bounds(args.kind, *inputs, r=r)
    report["verdicts"] = {"canonical": out.canonical(), "expanded": repr(out)}
    return EXIT_PASS


def _cmd_fixtures(args, report) -> int:
    names = [args.only] if args.only else list(acceptance.CRITERIA)
    verdicts = []
    ok = True
    for name in names:
        result = acceptance.run_criterion(name)
        mark = "pass" if result.passed else "FAIL"
        print(f"[{mark}] {name}: {result.detail}", file=sys.stderr)
        verdicts.append(
            {"name": name, "passed": result.passed, "detail": result.detail}
        )
        ok = ok and result.passed
    report["verdicts"] = verdicts
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fillcalc",
        description=(
            "Word-level filling calculus: areas, heights, pulling-down "
            "transformations, presentation constructors and bound calculators"
        ),
    )
    parser.add_argument("--budget-states", type=int, default=2_000_000,
                        dest="budget_states")
    parser.add_argument("--budget-len", type=int, default=None, dest="budget_len")
    parser.add_argument("--json", help="write the JSON report to this path")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word")
    p.set_defaults(run=_cmd_reduce)
    p.add_argument("--word", required=True)

    p = sub.add_parser("area", help="exact area of a word by bounded search")
    p.set_defaults(run=_cmd_area)
    p.add_argument("--presentation", required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("dehn", help="max area over null-homotopic words")
    p.set_defaults(run=_cmd_dehn)
    p.add_argument("--presentation", required=True)
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("verify-scheme", help="check a claimed-area scheme")
    p.set_defaults(run=_cmd_verify_scheme)
    p.add_argument("--presentation", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--sequences", help="optional sequence file per row")

    for name, run in (("pulldown", _cmd_pulldown), ("flatten", _cmd_flatten)):
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--r", type=int, default=1)
        p.add_argument("--word", required=True)
        if name == "pulldown":
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--h", type=int, required=True)

    p = sub.add_parser("construct")
    p.set_defaults(run=_cmd_construct)
    p.add_argument("what", choices=tuple(_CONSTRUCT_FLAGS))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--present", choices=("p1", "p2", "p3", "q1", "q2"))
    p.add_argument("--data", help="positive normal form data file")
    p.add_argument("--index-bound", type=int, dest="index_bound")
    p.add_argument("--spec", help="fiber product inputs file")

    p = sub.add_parser("bb")
    p.set_defaults(run=_cmd_bb)
    p.add_argument("--complex", required=True)
    p.add_argument("action", choices=("present", "families", "rarea"))
    p.add_argument("--index-bound", type=int, default=0, dest="index_bound")

    p = sub.add_parser("distort")
    p.set_defaults(run=_cmd_distort)
    p.add_argument("--theta", required=True)
    p.add_argument("--factors", required=True,
                   help="comma-separated factors, generators space-separated")
    p.add_argument("--sub-gens", required=True, dest="sub_gens",
                   help="comma-separated generator words of the subgroup")
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("depth")
    p.set_defaults(run=_cmd_depth)
    p.add_argument("--theta", required=True)
    p.add_argument("--factors", required=True)

    p = sub.add_parser("bounds")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("--kind", required=True, choices=tuple(BOUND_INPUTS))
    for flag in _BOUND_INPUT_FLAGS:
        p.add_argument(f"--{flag}")
    p.add_argument("--r", type=int, help="area-radius only (default 1)")

    p = sub.add_parser("fixtures", help="run the acceptance suite")
    p.set_defaults(run=_cmd_fixtures)
    p.add_argument("action", choices=("run",))
    p.add_argument("--only", help="run a single named criterion")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    report = {"command": args.command}
    try:
        code = args.run(args, report)
        _emit(args, report, started)
        return code
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
