import hashlib
import json

import pytest

from mvmt import harness, loads_structure, make_lukasiewicz, save_structure
from mvmt.cli import main

from support import build


@pytest.fixture()
def two_point_file(tmp_path):
    s = build(
        make_lukasiewicz(3),
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 2, ("b",): 1}), "Q": (1, 0, {("a",): 2})},
    )
    path = tmp_path / "m.json"
    save_structure(s, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys, two_point_file):
    code, out, _ = run(capsys, "eval", "--structure", two_point_file, "--formula", "E x . P(x)")
    assert code == 0
    assert out == "value 2 (2/2)\n"


def test_eval_with_assignment_and_json(capsys, two_point_file):
    code, out, _ = run(
        capsys,
        "eval",
        "--structure",
        two_point_file,
        "--formula",
        "P(x)",
        "--assign",
        "x=b",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"value": 1, "label": "1/2"}


def test_solve(capsys, two_point_file):
    code, out, _ = run(
        capsys, "solve", "--structure", two_point_file, "--formula", "E x . P(x) & Q(x)", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2 and data["witness"] == {"x": "a"} and data["decided_top"]


def test_classify_without_structure(capsys):
    code, out, _ = run(capsys, "classify", "--formula", "E x . P(x) \\/ Q(x)")
    assert code == 0
    assert out == "tags existential_positive sentence\nfree -\n"


def test_classify_and_normalize_read_the_structure_language(capsys, tmp_path):
    # with --structure, c is the structure's constant; without, a variable
    s = build(make_lukasiewicz(3), ("a",), preds={"P": (1, 0, {}), "Q": (1, 0, {})}, consts={"c": "a"})
    path = str(tmp_path / "s.json")
    save_structure(s, path)
    code, out, _ = run(capsys, "classify", "--formula", "P(c)", "--structure", path)
    assert code == 0 and out.splitlines()[1] == "free -"
    assert "sentence" in out.splitlines()[0].split()
    code, out, _ = run(capsys, "classify", "--formula", "P(c)")
    assert code == 0 and out.splitlines()[1] == "free c"
    text = "E x . P(x) & (Q(x) \\/ P(x))"
    code, out, _ = run(capsys, "normalize", "--formula", text, "--structure", path)
    assert code == 0
    assert out == run(capsys, "normalize", "--formula", text)[1] == "E x . P(x) & Q(x)\nE x . P(x) & P(x)\n"


def test_normalize_pp_and_ep(capsys):
    code, out, _ = run(capsys, "normalize", "--formula", "E x . P(x) & (Q(x) /\\ R(x))")
    assert code == 0
    assert out == "E x . P(x) & Q(x) /\\ P(x) & R(x)\n"
    code, out, _ = run(capsys, "normalize", "--formula", "E x . P(x) \\/ Q(x)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["formulas"] == ["E x . P(x)", "E x . Q(x)"]
    # machine output feeds back through the parser
    from mvmt import infer_formula

    for text in data["formulas"]:
        infer_formula(text)


def test_normalize_rejects_other_fragments(capsys):
    code, out, err = run(capsys, "normalize", "--formula", "P(x) -> Q(x)")
    assert code == 1 and out == ""
    assert err == "error: not an existential positive formula: P(x) -> Q(x)\n"


def test_normalize_deduplicates_disjuncts(capsys):
    clause = "(P(x) \\/ P(f(y)) \\/ x = y)"
    code, out, _ = run(capsys, "normalize", "--formula", "E x y . " + " /\\ ".join([clause] * 14))
    assert code == 0
    assert len(out.splitlines()) == 7


def test_hom_listing_deterministic(capsys, two_point_file):
    code, out, _ = run(
        capsys, "hom", "--from", two_point_file, "--to", two_point_file, "--all"
    )
    assert code == 0
    assert out == "a->a,b->a\na->a,b->b\n"
    code2, out2, _ = run(
        capsys, "hom", "--from", two_point_file, "--to", two_point_file, "--all", "--json"
    )
    assert code2 == 0
    data = json.loads(out2)
    assert data["homomorphisms"] == [{"map": {"a": "a", "b": "a"}}, {"map": {"a": "a", "b": "b"}}]
    none = run(capsys, "hom", "--from", two_point_file, "--to", two_point_file, "--limit", "0")
    assert none == (0, "", "")


def test_hom_all_and_limit_are_exclusive(capsys, two_point_file):
    for options in (("--all", "--limit", "1"), ("--limit", "0", "--all")):
        code, out, err = run(capsys, "hom", "--from", two_point_file, "--to", two_point_file, *options)
        assert code == 1 and out == "" and _one_error_line(err)
        assert "not allowed with argument" in err


def test_product_emits_loadable_structure(capsys, two_point_file, tmp_path):
    code, out, _ = run(capsys, "product", two_point_file, two_point_file)
    assert code == 0
    prod = loads_structure(out)
    assert prod.domain == ("(a|a)", "(a|b)", "(b|a)", "(b|b)")
    out_path = tmp_path / "p.json"
    code, _, _ = run(
        capsys,
        "product",
        two_point_file,
        two_point_file,
        "--weak",
        "scrambled",
        "--seed",
        "4",
        "--out",
        str(out_path),
    )
    assert code == 0
    scrambled = loads_structure(out_path.read_text())
    top = scrambled.chain.top
    assert {k for k, v in scrambled.predicates["P"].entries.items() if v == top} == {
        k for k, v in prod.predicates["P"].entries.items() if v == top
    }


# sha256 of the stdout of `mvmt product` on copies of the fixture file, per
# (factor count, options); it changes only when a product's elements, tables
# or scrambled values do.
PINNED_PRODUCT_OUTPUT = [
    (2, ("--weak", "min"), "d1eddeffbf93077ef7bd0cd207a21448de65712dc79c9f3b270f9a44bce84194"),
    (2, ("--weak", "min", "--seed", "4"), "d1eddeffbf93077ef7bd0cd207a21448de65712dc79c9f3b270f9a44bce84194"),
    (2, ("--weak", "scrambled", "--seed", "4"), "92887198ff7d7cb7f0fd3e855c0afd04c51c2b7d6b9226efeb28343535357d75"),
    (3, ("--weak", "scrambled", "--seed", "11"), "31ae9d7b16a3768dcca8525ba5ab050b8d230b265bc4b8d845f5353fa8209fd4"),
]


def test_product_output_bytes_are_pinned(capsys, two_point_file):
    for count, options, digest in PINNED_PRODUCT_OUTPUT:
        code, out, _ = run(capsys, "product", *[two_point_file] * count, *options)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, options


def test_diagram(capsys, two_point_file):
    code, out, _ = run(capsys, "diagram", "--structure", two_point_file)
    assert code == 0
    lines = out.splitlines()
    assert "P(c_a)" in lines and "Q(c_a)" in lines and "c_b = c_b" in lines
    assert "P(c_b)" not in lines


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_diagram_of_a_product_file_is_a_usage_error(capsys, two_point_file, tmp_path):
    out_path = tmp_path / "p.json"
    assert run(capsys, "product", two_point_file, two_point_file, "--out", str(out_path))[0] == 0
    code, out, err = run(capsys, "diagram", "--structure", str(out_path))
    assert code == 1 and out == "" and _one_error_line(err)
    assert "'(a|a)' does not yield a usable constant name" in err


def test_product_out_into_a_missing_directory(capsys, two_point_file, tmp_path):
    missing = tmp_path / "missing" / "p.json"
    code, out, err = run(capsys, "product", two_point_file, "--out", str(missing))
    assert code == 1 and out == "" and _one_error_line(err)
    assert err.startswith(f"error: cannot write {missing}:")


def test_check_report_into_a_missing_directory(capsys, tmp_path):
    missing = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "check", "--suite", "hom", "--trials", "5", "--report", str(missing))
    assert code == 1 and out == "" and _one_error_line(err)
    assert err.startswith(f"error: cannot write {missing}:")


@pytest.mark.parametrize("suite", ["hom", "closure"])
def test_check_report_path_is_checked_before_any_trial(capsys, tmp_path, monkeypatch, suite):
    def trials(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(harness.SUITES, "hom", trials)
    monkeypatch.setattr(harness, "check_pp_theory_closure", trials)
    missing = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "check", "--suite", suite, "--report", str(missing))
    assert code == 1 and out == "" and _one_error_line(err)
    assert err.startswith(f"error: cannot write {missing}:")


def test_check_report_replaces_an_existing_file(capsys, tmp_path):
    report = tmp_path / "report.json"
    report.write_text("x" * 10000)
    code, _, _ = run(capsys, "check", "--suite", "hom", "--trials", "5", "--report", str(report))
    assert code == 0
    fresh = tmp_path / "fresh.json"
    run(capsys, "check", "--suite", "hom", "--trials", "5", "--report", str(fresh))
    assert report.read_bytes() == fresh.read_bytes()
    assert json.loads(report.read_text())["trials"] == 5


def test_check_pass_and_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "check",
        "--suite",
        "hom",
        "--trials",
        "120",
        "--seed",
        "5",
        "--report",
        str(report),
    )
    assert code == 0
    assert "verdict pass" in out
    data = json.loads(report.read_text())
    assert data["suite"] == "hom" and data["verdict"] == "pass"


def test_check_bounds_default_to_gen_config(capsys, tmp_path):
    bounds = ("--seed", "0", "--trials", "200", "--max-domain", "3", "--max-chain", "4", "--max-depth", "4")
    runs = []
    for name, extra in (("r1.json", ()), ("r2.json", bounds)):
        report = tmp_path / name
        code, out, err = run(capsys, "check", "--suite", "hom", "--report", str(report), *extra)
        runs.append((code, out, err, report.read_bytes()))
    assert runs[0] == runs[1]
    assert "trials 200" in runs[0][1].splitlines()


def test_check_violation_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--suite",
        "ep",
        "--seed",
        "42",
        "--trials",
        "130",
        "--allow-implication",
    )
    assert code == 2
    assert "verdict fail" in out


def test_check_inconclusive_exit_code(capsys, tmp_path):
    axioms = tmp_path / "axioms.txt"
    axioms.write_text("0\n")
    code, out, _ = run(
        capsys,
        "check",
        "--suite",
        "closure",
        "--trials",
        "40",
        "--axioms",
        str(axioms),
    )
    assert code == 3
    assert "verdict inconclusive" in out


def test_check_closure_default_axioms(capsys):
    code, out, _ = run(capsys, "check", "--suite", "closure", "--trials", "60")
    assert code == 0
    assert "verdict pass" in out


def test_check_product_and_ep_suites(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "product", "--trials", "60", "--max-domain", "2"
    )
    assert code == 0 and "suite product" in out
    code, out, _ = run(capsys, "check", "--suite", "ep", "--trials", "80", "--seed", "5")
    assert code == 0 and "suite ep" in out


def test_check_rejects_bounds_the_generators_cannot_honour(capsys):
    for bound in (
        ["--max-domain", "9"], ["--max-chain", "1"], ["--max-chain", "257"], ["--max-depth", "17"],
    ):
        code, out, err = run(capsys, "check", "--suite", "hom", "--trials", "5", *bound)
        assert code == 1 and out == "" and "error" in err


def test_solve_ep_sentence_reports_value_and_witness(capsys, two_point_file):
    args = ("solve", "--structure", two_point_file, "--formula", "E x . Q(x) /\\ (P(x) \\/ Q(x))")
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    assert json.loads(out) == {"value": 2, "label": "2/2", "decided_top": True, "witness": {"x": "a"}}
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == "value 2 (2/2)\ndecided_top true\nwitness x=a\n"


def test_usage_errors(capsys, two_point_file):
    code, _, err = run(capsys, "eval", "--structure", two_point_file, "--formula", "P(x, y)")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "eval", "--structure", two_point_file, "--formula", "E x . P(x")
    assert code == 1
    code, _, err = run(capsys, "solve", "--structure", two_point_file, "--formula", "A x . P(x)")
    assert code == 1
    assert err == "error: not an existential positive formula: A x . P(x)\n"
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys, "eval", "--structure", two_point_file, "--formula", "P(x)", "--assign", "xa")
    assert code == 1
    assert err == "error: --assign expects var=element, got 'xa'\n"


def test_input_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--structure", "/definitely/missing.json", "--formula", "1")
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run(capsys, "eval", "--structure", str(bad), "--formula", "1")
    assert code == 4
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, "check", "--suite", "closure", "--axioms", missing)
    assert code == 4 and out == ""
    assert err.startswith(f"error: cannot read {missing}: ")


def test_oversized_chain_is_rejected(capsys, tmp_path, two_point_file):
    with open(two_point_file, encoding="utf-8") as fh:
        data = json.load(fh)
    data["algebra"] = {"kind": "lukasiewicz", "size": 100000}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    code, out, err = run(capsys, "eval", "--structure", str(big), "--formula", "1")
    assert code == 4 and out == ""
    assert "chain size 100000 exceeds the limit" in err


def test_byte_determinism(capsys, two_point_file):
    args = ("solve", "--structure", two_point_file, "--formula", "E x . P(x)", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_eval_unbound_variable(capsys, two_point_file):
    code, _, err = run(capsys, "eval", "--structure", two_point_file, "--formula", "P(x)")
    assert code == 1 and "unbound" in err


def test_eval_rejects_assignment_outside_the_domain(capsys, tmp_path, two_point_file):
    code, out, err = run(
        capsys, "eval", "--structure", two_point_file, "--formula", "P(x)", "--assign", "x=zzz"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'zzz'" in err
    # with a function term the element used to surface as a false arity error
    s = build(
        make_lukasiewicz(3),
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 2})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
    )
    path = tmp_path / "f.json"
    save_structure(s, path)
    code, out, err = run(
        capsys, "eval", "--structure", str(path), "--formula", "P(f(x))", "--assign", "x=zzz"
    )
    assert code == 1 and out == ""
    assert "'zzz'" in err and "argument" not in err


def test_deep_formulas_are_usage_errors(capsys, two_point_file):
    for text in (" & ".join(["P(x)"] * 3000), "(" * 1200 + "P(x)" + ")" * 1200):
        code, out, err = run(
            capsys, "eval", "--structure", two_point_file, "--formula", text, "--assign", "x=a"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nested deeper" in err
