import json
from itertools import product

import pytest

from mvmt import (
    EvaluationError,
    Language,
    PredTable,
    Structure,
    StructureError,
    diagram,
    dumps_structure,
    eval_term,
    evaluate,
    expand_with_names,
    expand_with_truth_constants,
    is_model,
    loads_structure,
    make_godel,
    make_lukasiewicz,
    named_constant,
    parse_formula,
    solve_pp,
    structure_from_dict,
    structure_to_dict,
    to_text,
    truth_constant_name,
)
from mvmt.algebra import ElementRangeError
from mvmt.harness import gen_chain, gen_language, gen_structure, trial_rng
from mvmt.syntax import App, Atom, Equals, Exists, Var

from support import build, ref_evaluate

CHAIN3 = make_lukasiewicz(3)


def two_point():
    return build(CHAIN3, ("a", "b"), preds={"P": (1, 0, {("a",): 2, ("b",): 1})})


def test_eval_term_cases():
    s = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
        consts={"c": "a"},
    )
    assert eval_term(s, Var("x"), {"x": "a"}) == "a"
    assert eval_term(s, App("c"), {}) == "a"
    assert eval_term(s, App("f", (App("c"),)), {}) == "b"
    with pytest.raises(EvaluationError):
        eval_term(s, Var("x"), {})
    with pytest.raises(EvaluationError, match=r"^unknown function symbol 'g'$"):
        eval_term(s, App("g", (Var("x"),)), {"x": "a"})
    with pytest.raises(EvaluationError, match=r"applied to 2 argument\(s\), expected 1$"):
        eval_term(s, App("f", (Var("x"), Var("x"))), {"x": "a"})
    with pytest.raises(EvaluationError, match=r"^variable 'x' is assigned 'zz', outside the domain$"):
        eval_term(s, App("f", (Var("x"),)), {"x": "zz"})
    # the parser rejects c(x); built in code, its argument was ignored
    constant = r"^function 'c' applied to 1 argument\(s\), expected 0$"
    with pytest.raises(EvaluationError, match=constant):
        eval_term(s, App("c", (Var("x"),)), {"x": "b"})
    with pytest.raises(EvaluationError, match=constant):
        solve_pp(s, Exists("x", Equals(App("c", (Var("x"),)), Var("x"))))
    with pytest.raises(EvaluationError, match=r"^unknown predicate symbol 'Z'$"):
        evaluate(s, Atom("Z", (Var("x"),)), {"x": "a"})
    with pytest.raises(EvaluationError, match=r"^cannot evaluate node str$"):
        evaluate(s, "P(x)")


def test_an_assignment_outside_the_domain_is_an_evaluation_error():
    # an element outside the domain is in no table, so a lookup alone would
    # give it the default, here top
    s = build(CHAIN3, ("a", "b"), preds={"P": (1, 2, {("a",): 1})})
    phi = parse_formula("P(x)", s.lang)
    assert evaluate(s, phi, {"x": "a"}) == 1
    outside = r"^variable 'x' is assigned 'zz', outside the domain$"
    with pytest.raises(EvaluationError, match=outside):
        evaluate(s, phi, {"x": "zz"})
    with pytest.raises(EvaluationError, match="variable 'y' is assigned 'zz'"):
        evaluate(s, parse_formula("E x . P(x)", s.lang), {"y": "zz"})


def test_quantifier_values():
    s = two_point()
    assert evaluate(s, parse_formula("E x . P(x)", s.lang)) == 2
    assert evaluate(s, parse_formula("A x . P(x)", s.lang)) == 1


def test_connective_values():
    s = two_point()
    lang = s.lang
    assert evaluate(s, parse_formula("P(x) & P(y)", lang), {"x": "a", "y": "b"}) == 1
    assert evaluate(s, parse_formula("P(x) & P(x)", lang), {"x": "b"}) == 0
    assert evaluate(s, parse_formula("P(x) /\\ P(y)", lang), {"x": "a", "y": "b"}) == 1
    assert evaluate(s, parse_formula("P(x) \\/ P(y)", lang), {"x": "a", "y": "b"}) == 2
    assert evaluate(s, parse_formula("P(x) -> P(y)", lang), {"x": "a", "y": "b"}) == 1
    assert evaluate(s, parse_formula("@1", lang)) == 1
    assert evaluate(s, parse_formula("1", lang)) == 2
    assert evaluate(s, parse_formula("0", lang)) == 0
    with pytest.raises(EvaluationError):
        evaluate(s, parse_formula("@7", lang))


def test_crisp_equality_law():
    s = build(CHAIN3, ("a", "b", "c"), preds={"P": (1, 0, {})})
    law = parse_formula("x = y \\/ (x = y -> 0)", s.lang)
    for x in s.domain:
        for y in s.domain:
            assert evaluate(s, law, {"x": x, "y": y}) == s.chain.top


def test_is_model():
    s = two_point()
    assert is_model(s, [])
    assert is_model(s, [parse_formula("E x . P(x)", s.lang)])
    assert not is_model(s, [parse_formula("A x . P(x)", s.lang)])
    with pytest.raises(EvaluationError):
        is_model(s, [parse_formula("P(x)", s.lang)])


def test_expand_with_names():
    s = two_point()
    ms = expand_with_names(s)
    assert ms.constants == {"c_a": "a", "c_b": "b"}
    assert named_constant("a") in ms.lang.functions
    assert evaluate(ms, parse_formula("P(c_a)", ms.lang)) == 2
    assert expand_with_names(ms) == ms


def test_expand_with_names_clash():
    s = build(CHAIN3, ("a",), preds={"P": (1, 0, {})}, consts={"c_a": "a"})
    # existing constant with the right interpretation is absorbed
    assert expand_with_names(s).constants == {"c_a": "a"}
    t = build(CHAIN3, ("a", "b"), preds={"P": (1, 0, {})}, consts={"c_a": "b"})
    with pytest.raises(StructureError, match=r"^cannot add constant 'c_a': name already in use$"):
        expand_with_names(t)
    u = build(CHAIN3, ("a",), preds={"P": (1, 0, {})}, funcs={"c_a": {("a",): "a"}})
    with pytest.raises(StructureError, match=r"^cannot add constant 'c_a': name already in use$"):
        expand_with_names(u)


def test_expand_with_truth_constants():
    chain = make_lukasiewicz(4)
    s = build(chain, ("a",), preds={"P": (1, 0, {})})
    st = expand_with_truth_constants(s)
    for k in range(4):
        assert evaluate(st, parse_formula(truth_constant_name(k), st.lang)) == k
    assert evaluate(st, parse_formula("d_3", st.lang)) == chain.top
    assert evaluate(st, parse_formula("d_0 -> P(x)", st.lang), {"x": "a"}) == chain.top
    assert expand_with_truth_constants(st) == st
    assert st.lang.algebra_constants == {f"d_{k}": k for k in range(4)}


def test_diagram_examples():
    s = two_point()  # P(a)=top, P(b)=coatom
    sentences = {to_text(f) for f in diagram(s)}
    assert sentences == {"P(c_a)", "c_a = c_a", "c_b = c_b"}

    t = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {})},
        funcs={"f": {("a",): "b", ("b",): "b"}},
    )
    got = {to_text(f) for f in diagram(t)}
    assert "f(c_a) = c_b" in got
    assert "f(c_b) = c_b" in got
    assert "P(c_a)" not in got

    bottoms = build(CHAIN3, ("a", "b"), preds={"P": (1, 0, {}), "Q": (2, 0, {})})
    got = {to_text(f) for f in diagram(bottoms)}
    assert got == {"c_a = c_a", "c_b = c_b"}


def test_expand_with_truth_constants_clash():
    s = build(CHAIN3, ("a",), preds={"d_0": (1, 0, {})})
    with pytest.raises(StructureError):
        expand_with_truth_constants(s)
    t = build(CHAIN3, ("a",), preds={"P": (1, 0, {})}, algebra_consts={"d_1": 2})
    with pytest.raises(StructureError, match=r"^cannot add truth constant 'd_1': name already in use$"):
        expand_with_truth_constants(t)


def test_diagram_includes_top_algebra_constant():
    s = expand_with_truth_constants(two_point())
    got = {to_text(f) for f in diagram(s)}
    assert "d_2" in got
    assert "d_1" not in got and "d_0" not in got


def test_diagram_constants_covered():
    s = build(CHAIN3, ("a", "b"), preds={"P": (1, 0, {})}, consts={"k": "b"})
    got = {to_text(f) for f in diagram(s)}
    assert "k = c_b" in got
    assert "c_b = k" in got
    assert "k = c_a" not in got


def test_diagram_complete_and_sound():
    # Membership in the diagram must coincide with evaluating to top, over
    # the full finite slice of closed atomic sentences.
    for t in range(30):
        rng = trial_rng(17, "diag", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        s = gen_structure(rng, chain, lang, 3)
        ms = expand_with_names(s)
        listed = {to_text(f) for f in diagram(s)}
        # independently enumerate candidate atomic sentences
        base = [App(c) for c in sorted(ms.constants)]
        terms = list(base)
        for fname in sorted(ms.functions):
            ar = ms.lang.functions[fname]
            for combo in product(base, repeat=ar):
                terms.append(App(fname, tuple(combo)))
        candidates = []
        for pname in sorted(ms.lang.predicates):
            ar = ms.lang.predicates[pname]
            for combo in product(terms, repeat=ar):
                candidates.append(Atom(pname, tuple(combo)))
        for t1 in terms:
            for t2 in terms:
                candidates.append(Equals(t1, t2))
        for sigma in candidates:
            holds = ref_evaluate(ms, sigma) == chain.top
            assert (to_text(sigma) in listed) == holds, to_text(sigma)


def test_monotone_raising_without_implication():
    for t in range(60):
        rng = trial_rng(41, "mono", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        s = gen_structure(rng, chain, lang, 3)
        from mvmt.harness import gen_ep_formula

        phi = gen_ep_formula(rng, lang, ["u"], 3)
        raised = Structure(
            chain=s.chain,
            lang=s.lang,
            domain=s.domain,
            predicates={
                p: PredTable(
                    tbl.arity,
                    min(chain.top, tbl.default + rng.randint(0, 1)),
                    {
                        args: min(chain.top, v + rng.randint(0, 1))
                        for args, v in tbl.entries.items()
                    },
                )
                for p, tbl in s.predicates.items()
            },
            functions={f: dict(tb) for f, tb in s.functions.items()},
            constants=dict(s.constants),
        )
        # raising entries can only raise values of implication-free formulas
        for e in s.domain:
            v = {"u": e}
            assert evaluate(raised, phi, v) >= evaluate(s, phi, v)


def test_quantifier_witness_attained():
    for t in range(40):
        rng = trial_rng(43, "witness", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        s = gen_structure(rng, chain, lang, 3)
        from mvmt.harness import gen_pp_formula

        body = gen_pp_formula(rng, lang, ["u"], 3)
        from mvmt.syntax import Exists

        phi = Exists("u", body)
        value = evaluate(s, phi)
        assert value in [evaluate(s, body, {"u": e}) for e in s.domain]


def test_structure_validation_errors():
    lang = Language(predicates={"P": 1})
    with pytest.raises(StructureError):
        Structure(chain=CHAIN3, lang=lang, domain=(), predicates={"P": PredTable(1)})
    with pytest.raises(StructureError):
        Structure(chain=CHAIN3, lang=lang, domain=("a,b",), predicates={"P": PredTable(1)})
    with pytest.raises(StructureError):
        Structure(chain=CHAIN3, lang=lang, domain=("a", "a"), predicates={"P": PredTable(1)})
    with pytest.raises(StructureError):
        Structure(chain=CHAIN3, lang=lang, domain=("a",), predicates={})
    with pytest.raises(StructureError):
        Structure(chain=CHAIN3, lang=lang, domain=("a",), predicates={"P": PredTable(2)})
    with pytest.raises(StructureError):
        Structure(
            chain=CHAIN3,
            lang=lang,
            domain=("a",),
            predicates={"P": PredTable(1, 0, {("z",): 1})},
        )
    lang_f = Language(predicates={"P": 1}, functions={"f": 1})
    with pytest.raises(StructureError):
        Structure(
            chain=CHAIN3,
            lang=lang_f,
            domain=("a", "b"),
            predicates={"P": PredTable(1)},
            functions={"f": {("a",): "b"}},
        )
    with pytest.raises(StructureError, match=r"^function tables do not match the language$"):
        Structure(chain=CHAIN3, lang=lang_f, domain=("a",), predicates={"P": PredTable(1)})
    with pytest.raises(StructureError, match=r"^function 'f' maps \('a',\) outside the domain$"):
        Structure(
            chain=CHAIN3,
            lang=lang_f,
            domain=("a",),
            predicates={"P": PredTable(1)},
            functions={"f": {("a",): "z"}},
        )
    lang_c = Language(predicates={"P": 1}, functions={"c": 0})
    with pytest.raises(StructureError, match=r"^constant interpretations do not match the language$"):
        Structure(chain=CHAIN3, lang=lang_c, domain=("a",), predicates={"P": PredTable(1)})
    with pytest.raises(StructureError):
        Structure(
            chain=CHAIN3,
            lang=lang_c,
            domain=("a",),
            predicates={"P": PredTable(1)},
            constants={"c": "z"},
        )


def test_table_entry_validation_messages():
    lang = Language(predicates={"P": 1, "R": 0})

    def with_p(entries, default=0):
        return Structure(
            chain=CHAIN3,
            lang=lang,
            domain=("a", "b"),
            predicates={"P": PredTable(1, default, entries), "R": PredTable(0)},
        )

    with pytest.raises(ElementRangeError, match=r"^element 5 out of range 0\.\.2$"):
        with_p({("a",): 5})
    with pytest.raises(ElementRangeError, match=r"^element -1 out of range 0\.\.2$"):
        with_p({("a",): 1, ("b",): -1})
    with pytest.raises(ElementRangeError, match=r"^element True out of range 0\.\.2$"):
        with_p({("a",): True})
    with pytest.raises(ElementRangeError, match=r"^element 3 out of range 0\.\.2$"):
        with_p({}, default=3)
    with pytest.raises(StructureError, match=r"^bad entry key \('a', 'a'\) for predicate 'P'$"):
        with_p({("a", "a"): 1})
    with pytest.raises(StructureError, match=r"^bad entry key \(\) for predicate 'P'$"):
        with_p({(): 1})
    # the key is checked before the value, entry by entry in table order
    with pytest.raises(StructureError, match=r"^bad entry key \('z',\) for predicate 'P'$"):
        with_p({("a",): 1, ("z",): 7})
    with pytest.raises(ElementRangeError, match=r"^element 7 out of range 0\.\.2$"):
        with_p({("a",): 7, ("z",): 1})
    with pytest.raises(ElementRangeError, match=r"^element 1\.0 out of range 0\.\.2$"):
        with_p({("a",): 1.0})


def test_json_round_trip_bit_exact():
    s = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 2}), "Z": (0, 1, {})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
        consts={"c": "a"},
    )
    text = dumps_structure(s)
    s2 = loads_structure(text)
    assert s2 == s
    assert dumps_structure(s2) == text
    # loading non-canonical text and saving canonicalizes deterministically
    data = json.loads(text)
    data["predicates"]["P"]["entries"]["b"] = 0  # equals the default, pruned
    recovered = structure_from_dict(data)
    assert recovered == s
    assert dumps_structure(recovered) == text


def test_json_matches_documented_shape():
    s = two_point()
    data = structure_to_dict(s)
    assert data["algebra"] == {"kind": "lukasiewicz", "size": 3}
    assert data["domain"] == ["a", "b"]
    assert data["predicates"]["P"] == {"arity": 1, "default": 0, "entries": {"a": 2, "b": 1}}
    assert data["functions"] == {} and data["constants"] == {}


def test_json_algebra_constants_persist():
    s = expand_with_truth_constants(two_point())
    text = dumps_structure(s)
    s2 = loads_structure(text)
    assert s2 == s
    assert s2.lang.algebra_constants == s.lang.algebra_constants


def test_json_malformed_inputs():
    with pytest.raises(StructureError):
        loads_structure("{not json")
    with pytest.raises(StructureError):
        loads_structure("{}")
    good = structure_to_dict(two_point())
    bad = json.loads(json.dumps(good))
    bad["predicates"]["P"]["entries"] = {"a,b": 1}
    with pytest.raises(StructureError):
        structure_from_dict(bad)
    bad2 = json.loads(json.dumps(good))
    bad2["algebra"] = {"kind": "mystery", "size": 3}
    with pytest.raises(StructureError):
        structure_from_dict(bad2)
    # a 0-ary table has one entry, under the empty key, which loads as its default
    zero = structure_to_dict(build(CHAIN3, ("a",), preds={"R": (0, 0, {})}))
    zero["predicates"]["R"]["entries"] = {"": 2}
    assert structure_from_dict(zero).predicates["R"] == PredTable(0, 2, {})
    zero["predicates"]["R"]["entries"] = {"a": 2}
    with pytest.raises(StructureError, match=r"^0-ary entry key must be empty, got 'a'$"):
        structure_from_dict(zero)


def test_godel_chain_serialization_in_structure():
    s = build(make_godel(4), ("a",), preds={"P": (1, 0, {})})
    assert loads_structure(dumps_structure(s)) == s
