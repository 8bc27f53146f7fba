import json

import pytest

from fillcalc import acceptance, bestvina_brady, cli, fileio, oracle, pulldown, rewriting
from fillcalc.cli import main
from fillcalc.rewriting import ApplyRelator, DerivationSequence, FreeContract, FreeExpand
from fillcalc.words import Letter, UnknownGeneratorError, word


@pytest.fixture
def z2(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"generators": ["x", "y"], "relators": ["x y x' y'"]}))
    return str(path)


@pytest.fixture
def k3(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
                "base": "a",
            }
        )
    )
    return str(path)


def test_reduce(capsys):
    assert main(["reduce", "--word", "x x' y"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"] == {"word": "y"}


def test_area_scheme_word(z2, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "--json", str(out),
            "area", "--presentation", z2,
            "--word", "x x y x' y x y x' x' y' y' y'",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["version"] == 2
    assert "seed" not in report
    assert report["verdicts"]["kind"] == "area"
    assert report["verdicts"]["area"] <= 5
    assert "sequence" in report["witnesses"]


def test_area_non_null_exit_code(z2):
    assert main(["area", "--presentation", z2, "--word", "x"]) == 1


def test_area_budget_exit_code(z2):
    code = main(
        ["--budget-states", "5", "area", "--presentation", z2,
         "--word", "x x x y y x' x' x' y' y'"]
    )
    assert code == 3


def faulty_edges(monkeypatch, *extra):
    """Append the given moves to the moves of every search edge."""
    edge_moves = oracle._Coder.edge_moves
    monkeypatch.setattr(oracle._Coder, "edge_moves",
                        lambda coder, s, d: edge_moves(coder, s, d) + list(extra))


def test_internal_check_exit_code(z2, monkeypatch, capsys):
    # the one-edge witness then ends at x x', not at the empty word
    faulty_edges(monkeypatch, FreeExpand(0, Letter("x", 1)))
    assert main(["area", "--presentation", z2, "--word", "x y x' y'"]) == 4
    assert capsys.readouterr().err.startswith("internal error: witness for")


def test_a_witness_move_that_does_not_apply_exit_code(z2, monkeypatch, capsys):
    faulty_edges(monkeypatch, FreeContract(0))
    assert main(["area", "--presentation", z2, "--word", "x y x' y'"]) == 4
    assert capsys.readouterr().err == (
        "internal error: witness for x y x' y': move 5: position out of range\n")


def test_free_to_a_word_not_freely_equal_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(pulldown, "_fill_case_both_high",
                        lambda ctx, k, editor: editor.free_to(word("x")))
    assert main(["fixtures", "run", "--only", "pulldown-pipeline"]) == 4
    assert "are not freely equal" in capsys.readouterr().err


def test_unjoined_search_path_exit_code(z2, monkeypatch, capsys):
    # a search path that skips the states between its meet and either root
    # joins states no edge joins: a defect in fillcalc, not a usage error
    def chain(parent, s, root):
        return [s] if s == root else [s, root]

    monkeypatch.setattr(oracle, "_chain", chain)
    assert main(["area", "--presentation", z2, "--word", "x x y y x' x' y' y'"]) == 4
    assert "are not adjacent" in capsys.readouterr().err


def test_dehn(z2, tmp_path):
    out = tmp_path / "r.json"
    assert main(
        ["--json", str(out), "--budget-len", "12",
         "dehn", "--presentation", z2, "--length", "4"]
    ) == 0
    assert json.loads(out.read_text())["verdicts"]["value"] == 1


def test_verify_scheme(z2, tmp_path):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(
        json.dumps(
            {
                "rows": [
                    {"word": "x x y x' y x y x' x' y' y' y'", "area": 2},
                    {"word": "x x y x' y x' y' y'", "area": 1},
                    {"word": "x x y x' x' y'", "area": 2},
                ]
            }
        )
    )
    out = tmp_path / "r.json"
    code = main(
        ["--json", str(out), "--budget-len", "24",
         "verify-scheme", "--presentation", z2, "--scheme", str(scheme)]
    )
    assert code == 0
    assert json.loads(out.read_text())["verdicts"]["total_area"] == 5


def test_verify_scheme_budget_exit_code(z2, tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"rows": [{"word": "x x x y y x' x' x' y' y'",
                                            "area": 6}]}))
    code = main(["--budget-states", "5", "verify-scheme", "--presentation", z2,
                 "--scheme", str(scheme)])
    assert code == 3
    rows = json.loads(capsys.readouterr().out)["verdicts"]["rows"]
    assert rows == [{"index": 0, "verdict": "budget-exhausted", "area": None}]


def test_verify_scheme_rejects_negative_relator_index(z2, tmp_path):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"rows": [{"word": "x y x' y'", "area": 1}]}))
    sequences = tmp_path / "sequences.json"
    move = {"op": "relator", "pos": 0, "rel": -1, "sign": 1, "rot": 0, "split": 4}
    sequences.write_text(json.dumps([{"start": "x y x' y'", "moves": [move]}]))
    code = main(
        ["verify-scheme", "--presentation", z2, "--scheme", str(scheme),
         "--sequences", str(sequences)]
    )
    assert code == 2


def test_pulldown_and_flatten(capsys):
    assert main(["pulldown", "--k", "1", "--h", "0", "--word", "e1_2"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["word"] == "e1_2 e1_1'"
    assert main(["flatten", "--word", "e1_2 e1_2'"]) == 0
    assert "word" in json.loads(capsys.readouterr().out)["verdicts"]


def test_construct_knmr(capsys):
    assert main(["construct", "knmr", "--n", "3", "--m", "2", "--r", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["verdicts"]["generators"]) == 4


def test_construct_presentations(capsys):
    assert main(["construct", "knmr", "--present", "q1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["verdicts"]["relators"]) == 6
    assert main(["construct", "knmr", "--present", "q2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["verdicts"]["relators"]) == 7


def test_construct_cyclic_builtin(capsys):
    assert main(["construct", "cyclic", "--index-bound", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["members"]


def test_bb_present_and_families(k3, capsys):
    assert main(["bb", "--complex", k3, "present"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["verdicts"]["generators"]) == 6
    assert len(report["verdicts"]["relators"]) == 18
    assert main(["bb", "--complex", k3, "families", "--index-bound", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["members"]


@pytest.mark.parametrize("bound", ["0", "5"])
def test_bb_present_rejects_an_index_bound(k3, capsys, bound):
    # present builds no family, and used to ignore the flag with exit 0
    assert main(["bb", "--complex", k3, "present", "--index-bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bb present takes no --index-bound" in captured.err


def test_bb_families_and_rarea_read_a_missing_index_bound_as_zero(k3, capsys):
    for action in ("families", "rarea"):
        assert main(["bb", "--complex", k3, action]) == 0
        without = capsys.readouterr().out
        assert main(["bb", "--complex", k3, action, "--index-bound", "0"]) == 0
        assert capsys.readouterr().out == without


def test_bb_rarea(k3, tmp_path):
    out = tmp_path / "r.json"
    assert main(
        ["--json", str(out), "bb", "--complex", k3, "rarea", "--index-bound", "1"]
    ) == 0
    rows = json.loads(out.read_text())["verdicts"]["table"]
    assert all(r["upper"] <= r["bound"] for r in rows)


def test_bb_rejects_underscore_vertex(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["a_1", "b"], "edges": [["a_1", "b"]]}))
    assert main(["bb", "--complex", str(path), "present"]) == 2
    assert "'a_1'" in capsys.readouterr().err


def test_fixtures_internal_check_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(pulldown, "_fill_case_both_high", lambda ctx, k, editor: None)
    assert main(["fixtures", "run", "--only", "pulldown-pipeline"]) == 4
    assert "left residue" in capsys.readouterr().err


@pytest.mark.parametrize("name,detail", [
    ("bounded-noise", "x y x' y': boundary boundary mismatch"),
    ("pulldown-pipeline", "trial 0: boundary boundary mismatch"),
])
def test_fixtures_boundary_mismatch_fails_with_a_report(monkeypatch, capsys, name,
                                                         detail):
    # a mismatch escaped bounded-noise as a ValueError: exit 2 and no report
    def mismatch(pres, expr, w, theta=None):
        raise rewriting.BoundaryMismatchError(word("x"))

    monkeypatch.setattr(acceptance, "validate_expression", mismatch)
    assert main(["fixtures", "run", "--only", name]) == 1
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdict["name"] == name and not verdict["passed"]
    assert verdict["detail"].startswith(detail)


def test_depth(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text(
        json.dumps(
            {
                "rank": 1,
                "charges": {
                    "x1": [1], "y1": [0], "x2": [1], "y2": [0], "x3": [1], "y3": [0]
                },
            }
        )
    )
    code = main(
        ["depth", "--theta", str(theta), "--factors", "x1 y1,x2 y2,x3 y3"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["depth"] == 1


def test_distort(tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text(
        json.dumps(
            {"rank": 1, "charges": {"x1": [1], "y1": [0], "x2": [1], "y2": [0]}}
        )
    )
    out = tmp_path / "r.json"
    code = main(
        [
            "--json", str(out),
            "distort", "--theta", str(theta), "--factors", "x1 y1,x2 y2",
            "--sub-gens", "x1 x2',y1,y2", "--length", "3",
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["verdicts"]["kind"] == "value"


def test_bounds(capsys):
    assert main(
        ["bounds", "--kind", "area-radius", "--alpha", "l^2", "--rho", "l",
         "--r", "1"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["canonical"] == "l^4"
    assert main(["bounds", "--kind", "split", "--beta1", "l^2", "--beta2", "l^2"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["canonical"] == "l^5"


def test_bounds_usage_error(capsys):
    assert main(["bounds", "--kind", "split", "--beta1", "l^2"]) == 2
    assert "--kind split takes exactly --beta1, --beta2" in capsys.readouterr().err


def test_bounds_binds_each_flag_by_name(capsys):
    # split-distortion takes (beta1, distortion, beta2); binding the flags
    # in their declaration order swapped distortion and beta2 (2*l^3)
    assert main(["bounds", "--kind", "split-distortion", "--beta1", "l",
                 "--distortion", "l^3", "--beta2", "l^2"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    want = pulldown.compose_bounds(
        "split-distortion", *(pulldown.parse_bound(t) for t in ("l", "l^3", "l^2"))
    )
    assert verdicts == {"canonical": want.canonical(), "expanded": repr(want)}
    assert verdicts["expanded"] == "l^4 + l^2"


@pytest.mark.parametrize("argv", [
    ["--kind", "split", "--alpha", "l^2", "--rho", "l"],
    ["--kind", "split", "--beta1", "l^2", "--beta2", "l^2", "--rho", "l"],
    ["--kind", "penetration", "--alpha", "l^2", "--pi", "l", "--rarea", "l^2",
     "--beta1", "l"],
], ids=["other-kinds-flags", "one-extra-flag", "extra-beta1"])
def test_bounds_rejects_a_flag_its_kind_does_not_take(argv, capsys):
    assert main(["bounds"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    kind = argv[1]
    flags = {"split": "--beta1, --beta2", "penetration": "--alpha, --pi, --rarea"}
    assert f"--kind {kind} takes exactly {flags[kind]}" in captured.err


@pytest.mark.parametrize("kind, argv", [
    ("split", ["--beta1", "l^2", "--beta2", "l^2"]),
    ("penetration", ["--alpha", "l^2", "--pi", "l", "--rarea", "l^2"]),
    ("split-distortion", ["--beta1", "l", "--distortion", "l^3", "--beta2", "l^2"]),
])
def test_bounds_takes_r_only_for_area_radius(kind, argv, capsys):
    assert main(["bounds", "--kind", kind] + argv + ["--r", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--r is read only by --kind area-radius" in captured.err


def test_bounds_area_radius_r_defaults_to_one(capsys):
    area_radius = ["bounds", "--kind", "area-radius", "--alpha", "l^2", "--rho", "l"]
    for r, want in ([], "l^4"), (["--r", "1"], "l^4"), (["--r", "2"], "l^6"):
        assert main(area_radius + r) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["canonical"] == want


@pytest.mark.parametrize("argv, message", [
    (["--kind", "split", "--beta1", "l +", "--beta2", "l"],
     "--beta1: unexpected end of input"),
    (["--kind", "split", "--beta1", "2 * (l", "--beta2", "l"],
     "--beta1: expected ')', found end of input"),
    (["--kind", "split", "--beta1", "l", "--beta2", "l)"],
     "--beta2: expected end of input, found ')'"),
    (["--kind", "area-radius", "--alpha", "l", "--rho", "l", "--r", "-1"],
     "--r: must be nonnegative, not -1"),
    (["--kind", "split", "--beta1", "l^", "--beta2", "l"],
     "--beta1: exponent must be an integer literal"),
    (["--kind", "split", "--beta1", "l", "--beta2", "max(l)"],
     "--beta2: expected ',', found ')'"),
    (["--kind", "penetration", "--alpha", "l", "--pi", "l % 2", "--rarea", "l"],
     "--pi: bad bound syntax at ' % 2'"),
    (["--kind", "area-radius", "--alpha", "l", "--rho", "l^-1"],
     "--rho: bad bound syntax at '-1'"),
    (["--kind", "split", "--beta1", "l^2^3", "--beta2", "l"],
     "--beta1: chained '^' needs parentheses, as in (l^2)^3"),
    (["--kind", "split", "--beta1", "(l+1)^1000", "--beta2", "l"],
     "--beta1: bound has degree above 256"),
    (["--kind", "split", "--beta1", "l", "--beta2", "2^999999999"],
     "--beta2: bound has a coefficient longer than 1024 bits"),
    (["--kind", "split", "--beta1", "(" * 3000 + "l" + ")" * 3000, "--beta2", "l"],
     "--beta1: bound nests parentheses deeper than 64"),
], ids=["trailing-plus", "open-paren", "extra-paren", "negative-r", "bare-caret",
        "one-argument-max", "percent", "negative-exponent", "chained-caret",
        "degree-too-high", "coefficient-too-long", "nested-too-deep"])
def test_a_malformed_bound_names_its_flag(argv, message, capsys):
    assert main(["bounds"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fixtures_single(capsys):
    assert main(["fixtures", "run", "--only", "bound-calculators"]) == 0
    captured = capsys.readouterr()
    (verdict,) = json.loads(captured.out)["verdicts"]
    assert verdict["name"] == "bound-calculators" and verdict["passed"]
    # progress lines go to stderr, so stdout holds the report alone
    assert "[pass] bound-calculators" in captured.err


@pytest.mark.parametrize("argv", [
    ["reduce", "--word", "x x' y"],
    ["area", "--presentation", "{z2}", "--word", "x y x' y'"],
    ["dehn", "--presentation", "{z2}", "--length", "2"],
    ["verify-scheme", "--presentation", "{z2}", "--scheme", "{scheme}"],
    ["pulldown", "--k", "1", "--h", "0", "--word", "e1_2"],
    ["flatten", "--word", "e1_2 e1_2'"],
    ["construct", "knmr", "--present", "q1"],
    ["bb", "--complex", "{k3}", "present"],
    ["distort", "--theta", "{theta}", "--factors", "x1 y1,x2 y2",
     "--sub-gens", "x1 x2',y1,y2", "--length", "1"],
    ["depth", "--theta", "{theta}", "--factors", "x1 y1,x2 y2"],
    ["bounds", "--kind", "split", "--beta1", "l^2", "--beta2", "l^2"],
    ["fixtures", "run", "--only", "bound-calculators"],
], ids=lambda argv: argv[0])
def test_stdout_is_one_json_report(argv, z2, k3, tmp_path, capsys):
    theta, scheme = tmp_path / "theta.json", tmp_path / "scheme.json"
    theta.write_text(json.dumps(
        {"rank": 1, "charges": {"x1": [1], "y1": [0], "x2": [1], "y2": [0]}}
    ))
    scheme.write_text(json.dumps(ONE_ROW))
    paths = {"{z2}": z2, "{k3}": k3, "{theta}": str(theta), "{scheme}": str(scheme)}
    assert main([paths.get(arg, arg) for arg in argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == argv[0]
    assert report["version"] == 2
    assert "seed" not in report


def test_seed_flag_is_gone(capsys):
    assert main(["--seed", "3", "bounds", "--kind", "split", "--beta1", "l^2",
                 "--beta2", "l^2"]) == 2
    assert capsys.readouterr().err.startswith("usage: fillcalc")


def test_report_determinism(z2, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["area", "--presentation", z2, "--word", "x y x' y'"]
    assert main(["--json", str(a)] + argv) == 0
    assert main(["--json", str(b)] + argv) == 0
    assert a.read_text() == b.read_text()


def test_usage_error_exit_code():
    assert main(["area", "--presentation", "/nonexistent.json", "--word", "x"]) == 2


def test_json_nested_too_deeply_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["area", "--presentation", str(path), "--word", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


def test_any_other_exception_is_an_internal_error(monkeypatch, capsys):
    def defective(args, report):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "_cmd_reduce", defective)
    assert main(["reduce", "--word", "x"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: TypeError: unsupported operand\n"


@pytest.mark.parametrize("exc,code,err", [
    # a lookup that fails inside fillcalc is a defect, not bad input
    (KeyError("missing"), 4, "internal error: KeyError: 'missing'\n"),
    (UnknownGeneratorError("q"), 2, "error: 'q'\n"),
], ids=["KeyError", "UnknownGeneratorError"])
def test_only_an_unknown_generator_lookup_is_a_usage_error(monkeypatch, capsys, exc, code,
                                                           err):
    def lookup(args, report):
        raise exc

    monkeypatch.setattr(cli, "_cmd_reduce", lookup)
    assert main(["reduce", "--word", "x"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_construct_fiber(tmp_path, capsys):
    spec = tmp_path / "fiber.json"
    spec.write_text(
        json.dumps(
            {
                "a1": ["a", "b"],
                "x1": ["x"],
                "r1": ["x a x' a'"],
                "r2": ["x x a'"],
                "r3": [],
                "a2": ["c"],
                "x2": ["z"],
                "r4": ["z c z' c'"],
                "w_r4": ["a"],
            }
        )
    )
    assert main(["construct", "fiber", "--spec", str(spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["complete"] is False
    assert report["verdicts"]["generators"]


FIBER = {"a1": ["a"], "x1": ["x"], "r1": ["x a x' a'"], "r2": [], "r3": [],
         "a2": ["c"], "x2": ["z"], "r4": []}
PNF = {"base": {"generators": ["a"]}, "stable": "t", "w_plus": {"a": "a"}}


@pytest.mark.parametrize("command,data,field", [
    pytest.param("fiber", dict(FIBER, r1=[5]), "'r1' must be a list of strings",
                 id="fiber-relator-number"),
    pytest.param("fiber", {k: v for k, v in FIBER.items() if k != "x1"},
                 "fiber spec field 'x1' is missing", id="fiber-no-x1"),
    pytest.param("fiber", dict(FIBER, a2="c"), "'a2' must be a list of strings",
                 id="fiber-names-string"),
    pytest.param("fiber", dict(FIBER, w_r4=["a!"]), "'w_r4': bad generator token",
                 id="fiber-bad-choice-word"),
    pytest.param("cyclic", dict(PNF, w_plus={"a": 7}),
                 "'w_plus' must be an object mapping generators to word strings",
                 id="cyclic-word-number"),
    pytest.param("cyclic", dict(PNF, w_minus=["a"]),
                 "'w_minus' must be an object", id="cyclic-minus-list"),
    pytest.param("cyclic", {k: v for k, v in PNF.items() if k != "stable"},
                 "'stable' is missing", id="cyclic-no-stable"),
    pytest.param("cyclic", dict(PNF, base={"relators": []}),
                 "base presentation field 'generators' is missing",
                 id="cyclic-base-no-generators"),
    pytest.param("fiber", dict(FIBER, r4=["z c", "z"], w_r4=["a"]),
                 "fields 'r4' and 'w_r4' need one choice word per relator, "
                 "not 2 relators and 1 words", id="fiber-short-w_r4"),
    pytest.param("fiber", dict(FIBER, r4=["z c"], w_r4=["a", "a"]),
                 "not 1 relators and 2 words", id="fiber-short-r4"),
    pytest.param("fiber", dict(FIBER, r4=["z c"], w_r4=[]),
                 "not 1 relators and 0 words", id="fiber-empty-w_r4"),
    pytest.param("fiber", dict(FIBER, r1=["a q a'"]),
                 "field 'r1': generator 'q' is not in a1 + x1", id="fiber-r1-undeclared"),
    pytest.param("fiber", dict(FIBER, r2=["z"]),
                 "field 'r2': generator 'z' is not in a1 + x1", id="fiber-r2-undeclared"),
    pytest.param("fiber", dict(FIBER, r3=["x"]),
                 "field 'r3': generator 'x' is not in a1", id="fiber-r3-undeclared"),
    pytest.param("fiber", dict(FIBER, r4=["z a"], w_r4=["a"]),
                 "field 'r4': generator 'a' is not in a2 + x2", id="fiber-r4-undeclared"),
    pytest.param("fiber", dict(FIBER, r4=["z"], w_r4=["q"]),
                 "field 'w_r4': generator 'q' is not in a1", id="fiber-w_r4-undeclared"),
    pytest.param("cyclic", dict(PNF, w_plus={"a": "a q"}),
                 "field 'w_plus' image of 'a': generator 'q' is not in the base "
                 "generators",
                 id="cyclic-w_plus-undeclared"),
    pytest.param("cyclic", dict(PNF, w_minus={"a": "t"}),
                 "field 'w_minus' image of 'a': generator 't' is not in the base "
                 "generators",
                 id="cyclic-w_minus-undeclared"),
])
def test_malformed_construct_input_is_a_usage_error(tmp_path, capsys, command, data,
                                                    field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    flag = "--spec" if command == "fiber" else "--data"
    assert main(["construct", command, flag, str(path)]) == 2
    assert field in capsys.readouterr().err


def test_well_formed_construct_input_still_passes(tmp_path):
    fiber, pnf = tmp_path / "fiber.json", tmp_path / "pnf.json"
    fiber.write_text(json.dumps(FIBER))
    pnf.write_text(json.dumps(dict(PNF, w_minus={"a": "a"})))
    assert main(["construct", "fiber", "--spec", str(fiber)]) == 0
    assert main(["construct", "cyclic", "--data", str(pnf)]) == 0


def test_construct_fiber_needs_spec(capsys):
    # read as the file None: a TypeError traceback and exit 1
    assert main(["construct", "fiber"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construct fiber needs --spec" in captured.err


@pytest.mark.parametrize("flags", [["--n", "5"], ["--m", "3"], ["--r", "4"],
                                   ["--n", "5", "--r", "4"]])
def test_construct_knmr_present_excludes_the_knmr_sizes(capsys, flags):
    # --present builds a k32 presentation and ignored the sizes
    assert main(["construct", "knmr", "--present", "p1"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construct knmr --present excludes --n, --m, --r" in captured.err


@pytest.mark.parametrize("argv, takes", [
    (["cyclic", "--spec", "{fiber}"], "--data, --index-bound"),
    (["cyclic", "--present", "q1", "--spec", "{fiber}"], "--data, --index-bound"),
    (["cyclic", "--r", "2"], "--data, --index-bound"),
    (["knmr", "--data", "{pnf}"], "--n, --m, --r, --present"),
    (["knmr", "--index-bound", "1"], "--n, --m, --r, --present"),
    (["fiber", "--spec", "{fiber}", "--n", "3"], "--spec"),
], ids=["cyclic-spec", "cyclic-present-spec", "cyclic-r", "knmr-data",
        "knmr-index-bound", "fiber-n"])
def test_construct_rejects_a_flag_of_another_target(tmp_path, capsys, argv, takes):
    fiber, pnf = tmp_path / "fiber.json", tmp_path / "pnf.json"
    fiber.write_text(json.dumps(FIBER))
    pnf.write_text(json.dumps(PNF))
    argv = [a.format(fiber=fiber, pnf=pnf) for a in argv]
    assert main(["construct"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"construct {argv[0]} takes only {takes}" in captured.err


@pytest.mark.parametrize("data,field", [
    pytest.param({"relators": ["x y x' y'"]}, "'generators' is missing",
                 id="no-generators"),
    pytest.param({"generators": "x y"}, "'generators' must be a list of strings",
                 id="generators-string"),
    pytest.param({"generators": ["x", 2]}, "'generators' must be a list of strings",
                 id="generator-number"),
    pytest.param({"generators": ["x"], "relators": [5]},
                 "'relators' must be a list of strings", id="relator-number"),
    pytest.param({"generators": ["x"], "relators": "x x"},
                 "'relators' must be a list of strings", id="relators-string"),
    pytest.param({"generators": ["x"], "relators": ["x!"]},
                 "'relators': bad generator token", id="relator-bad-token"),
    pytest.param(["x"], "must be a JSON object", id="not-an-object"),
    pytest.param({"generators": ["x'"]}, "'generators': \"x'\" is not a generator name",
                 id="generator-primed"),
    pytest.param({"generators": ["x y"]}, "'generators': 'x y' is not a generator name",
                 id="generator-with-space"),
    pytest.param({"generators": [""]}, "'generators': '' is not a generator name",
                 id="generator-empty"),
    pytest.param({"generators": ["1"]}, "'generators': '1' is not a generator name",
                 id="generator-empty-word-token"),
    pytest.param({"generators": ["x", "x"], "relators": ["x x"]},
                 "'generators': 'x' is repeated", id="generator-repeated"),
])
@pytest.mark.parametrize("command", [["dehn", "--length", "2"], ["area", "--word", "x"]],
                         ids=["dehn", "area"])
def test_malformed_presentation_is_a_usage_error(tmp_path, capsys, data, field,
                                                 command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(command[:1] + ["--presentation", str(path)] + command[1:]) == 2
    assert field in capsys.readouterr().err


def test_dehn_rejects_negative_length(z2, capsys):
    assert main(["dehn", "--presentation", z2, "--length", "-3"]) == 2
    assert "length must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("data,field", [
    pytest.param({"vertices": ["a", "b"], "edges": [5]},
                 "'edges' must be a list of vertex pairs", id="edge-number"),
    pytest.param({"vertices": ["a", "b"], "edges": [["a", "b", "a"]]},
                 "'edges' must be a list of vertex pairs", id="edge-triple"),
    pytest.param({"vertices": ["a", "b"]}, "'edges' is missing", id="no-edges"),
    pytest.param({"edges": []}, "'vertices' is missing", id="no-vertices"),
    pytest.param({"vertices": "a b", "edges": []},
                 "'vertices' must be a list of strings", id="vertices-string"),
    pytest.param({"vertices": ["a"], "edges": [], "base": 1},
                 "'base' must be a vertex name", id="base-number"),
    pytest.param({"vertices": [], "edges": []}, "needs at least one vertex",
                 id="no-vertex"),
    pytest.param({"vertices": ["a b", "c"], "edges": [["a b", "c"]]},
                 "'vertices': 'a b' is not a generator name", id="vertex-with-space"),
    pytest.param({"vertices": ["a", "b", "a"], "edges": [["a", "b"]]},
                 "'vertices': 'a' is repeated", id="vertex-repeated"),
])
def test_malformed_flag_complex_is_a_usage_error(tmp_path, capsys, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["bb", "--complex", str(path), "present"]) == 2
    assert field in capsys.readouterr().err


def _verify_with_sequences(tmp_path, scheme, sequences):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps(scheme))
    seq_path = tmp_path / "sequences.json"
    seq_path.write_text(json.dumps(sequences))
    presentation = tmp_path / "z2.json"
    presentation.write_text(
        json.dumps({"generators": ["x", "y"], "relators": ["x y x' y'"]})
    )
    return main(["verify-scheme", "--presentation", str(presentation),
                 "--scheme", str(scheme_path), "--sequences", str(seq_path)])


ONE_ROW = {"rows": [{"word": "x y x' y'", "area": 1}]}
FILL = {"op": "relator", "pos": 0, "rel": 0, "sign": 1, "rot": 0, "split": 4}


@pytest.mark.parametrize("moves,field", [
    pytest.param([{"op": "expand", "pos": 0, "letter": "1"}, FILL],
                 "'letter' must be a single letter", id="expand-empty-letter"),
    pytest.param([{"op": "expand", "pos": 0, "letter": "x y"}, FILL],
                 "'letter' must be a single letter", id="expand-two-letters"),
    pytest.param([{"op": "expand", "pos": 0, "letter": "x!"}, FILL],
                 "'letter': bad generator token", id="expand-bad-token"),
    pytest.param([dict(FILL, split=1.5)], "'split' must be an integer",
                 id="split-float"),
    pytest.param([dict(FILL, rel="0")], "'rel' must be an integer", id="rel-string"),
    pytest.param([dict(FILL, sign=True)], "'sign' must be an integer",
                 id="sign-bool"),
    pytest.param([{"op": "contract"}], "'pos' is missing", id="no-pos"),
    pytest.param([{"op": "swap", "pos": 0}], "'op' must be", id="unknown-op"),
    pytest.param([5], "sequence move 0 must be a JSON object", id="move-number"),
])
def test_malformed_sequence_is_a_usage_error(tmp_path, capsys, moves, field):
    # the expand and split cases were accepted, or crashed with exit 1, before
    # the sequence loader checked its fields
    sequences = [{"start": "x y x' y'", "moves": moves}]
    assert _verify_with_sequences(tmp_path, ONE_ROW, sequences) == 2
    assert field in capsys.readouterr().err


def test_a_move_that_does_not_apply_in_a_sequence_file_is_a_usage_error(
        tmp_path, capsys):
    moves = [{"op": "expand", "pos": 0, "letter": "x"}, {"op": "contract", "pos": 2}]
    sequences = [{"start": "x y x' y'", "moves": moves}]
    assert _verify_with_sequences(tmp_path, ONE_ROW, sequences) == 2
    assert "move 1: letters x, y do not cancel" in capsys.readouterr().err


def test_a_move_an_emitter_cannot_apply_is_an_internal_error(k3, monkeypatch, capsys):
    # the emitter's own move, not the input, is at fault
    def collapse_pair_power(self, editor, pos, k):
        editor.contract(len(editor.letters))

    monkeypatch.setattr(bestvina_brady.BBModel, "collapse_pair_power",
                        collapse_pair_power)
    assert main(["bb", "--complex", k3, "rarea", "--index-bound", "0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: emitted move 2: position out of range")


@pytest.mark.parametrize("scheme,sequences,field", [
    pytest.param({"rows": [{"word": "x y x' y'"}]}, None, "'area' is missing",
                 id="no-area"),
    pytest.param({"rows": [{"word": "x y x' y'", "area": 1.5}]}, None,
                 "'area' must be an integer", id="area-float"),
    pytest.param({"rows": [{"word": "x y x' y'", "area": -1}]}, None,
                 "scheme row 0 field 'area' must be a nonnegative integer",
                 id="area-negative"),
    pytest.param({"rows": [{"word": "x y x' y'", "area": 1, "heights": [1]}]},
                 None, "scheme row 0 field 'heights' is not checked", id="heights-given"),
    pytest.param({"rows": [{"word": 5, "area": 1}]}, None,
                 "scheme row 0 field 'word' must be a word string", id="word-number"),
    pytest.param({"row": []}, None, "scheme field 'rows' is missing", id="no-rows"),
    pytest.param(ONE_ROW, [{"moves": [FILL]}], "sequence field 'start' is missing",
                 id="no-start"),
    pytest.param({"rows": ONE_ROW["rows"] * 2}, None, "2 rows", id="too-few-sequences"),
])
def test_malformed_scheme_is_a_usage_error(tmp_path, capsys, scheme, sequences, field):
    if sequences is None:
        sequences = [{"start": "x y x' y'", "moves": [FILL]}]
    assert _verify_with_sequences(tmp_path, scheme, sequences) == 2
    assert field in capsys.readouterr().err


def test_well_formed_sequence_still_passes(tmp_path):
    sequences = [{"start": "x y x' y'",
                  "moves": [{"op": "expand", "pos": 0, "letter": "x'"},
                            {"op": "contract", "pos": 0}, FILL]}]
    assert _verify_with_sequences(tmp_path, ONE_ROW, sequences) == 0


def test_a_sequence_that_misses_its_row_fails_verification(tmp_path, capsys):
    # [x, y] has area 1, but this sequence starts at x x', not at the row
    sequences = [{"start": "x x'", "moves": [{"op": "contract", "pos": 0}]}]
    assert _verify_with_sequences(tmp_path, ONE_ROW, sequences) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts == {"rows": [{"index": 0, "verdict": "sequence-mismatch",
                                  "area": None}], "total_area": None}


def test_a_sequence_over_its_claim_fails_verification(tmp_path, capsys):
    w = word("x y x' y'")
    presentation = rewriting.GroupPresentation(("x", "y"), (w,))
    witness = oracle.area_exact(presentation, w).witness
    scheme = {"rows": [{"word": "x y x' y'", "area": 0}]}
    assert _verify_with_sequences(tmp_path, scheme, [fileio.dump_sequence(witness)]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts == {"rows": [{"index": 0, "verdict": "area-exceeds-claim",
                                  "area": 1}], "total_area": None}


def test_timing_adds_only_an_integer_timing_ms(z2, tmp_path):
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    argv = ["dehn", "--presentation", z2, "--length", "4"]
    assert main(["--json", str(plain)] + argv) == 0
    assert main(["--json", str(timed), "--timing"] + argv) == 0
    report = json.loads(timed.read_text())
    timing = report.pop("timing_ms")
    assert type(timing) is int and timing >= 0
    assert report == json.loads(plain.read_text())


def test_a_sequence_round_trips_through_its_file_form():
    seq = DerivationSequence(word("x y x' y'"), (
        FreeExpand(0, Letter("x", -1)), FreeContract(0), ApplyRelator(0, 0, 1, 0, 4)))
    data = json.loads(json.dumps(fileio.dump_sequence(seq)))
    assert data["moves"][0] == {"op": "expand", "pos": 0, "letter": "x'"}
    assert fileio.load_sequence(data) == seq


@pytest.mark.parametrize("data,field", [
    pytest.param({"rank": 1}, "'charges' is missing", id="no-charges"),
    pytest.param({"charges": {"x1": [1]}}, "'rank' is missing", id="no-rank"),
    pytest.param({"rank": 1.5, "charges": {"x1": [1]}}, "'rank' must be an integer",
                 id="rank-float"),
    pytest.param({"rank": 1, "charges": {"x1": [0.5]}},
                 "'charges' must be an object", id="charge-float"),
    pytest.param({"rank": 1, "charges": [[1]]}, "'charges' must be an object",
                 id="charges-list"),
])
def test_malformed_charge_map_is_a_usage_error(tmp_path, capsys, data, field):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(data))
    assert main(["depth", "--theta", str(theta), "--factors", "x1 y1,x2 y2"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    pytest.param(["depth"], id="depth"),
    pytest.param(["distort", "--sub-gens", "a", "--length", "2"], id="distort"),
])
def test_a_factor_generator_without_a_charge_is_a_usage_error(tmp_path, capsys, command):
    # the charge map used to be indexed unchecked, printing only "error: 'c'"
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"rank": 1, "charges": {"a": [1], "b": [0]}}))
    assert main(command + ["--theta", str(theta), "--factors", "a b,c"]) == 2
    assert "generator 'c' of factor 2 has no charge" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["pulldown", "--word", "q", "--k", "1", "--h", "1"], id="pulldown"),
    pytest.param(["flatten", "--word", "e1_1 q"], id="flatten"),
])
def test_a_word_outside_the_context_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --word: generator 'q' is not in the context\n"
