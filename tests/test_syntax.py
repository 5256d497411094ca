import re
from itertools import product

import pytest

from mvmt import (
    ArityError,
    FragmentError,
    Language,
    LanguageError,
    ParseError,
    UnknownSymbolError,
    alpha_equal,
    classify,
    ep_to_pp_disjunction,
    evaluate,
    free_vars,
    infer_formula,
    is_pp_normal_shape,
    make_lukasiewicz,
    parse_formula,
    pp_normal_form,
    substitute,
    to_text,
)
from mvmt.harness import gen_ep_formula, gen_full_formula, gen_language, gen_pp_formula, trial_rng
from mvmt.syntax import (
    MAX_NESTING,
    App,
    Atom,
    Equals,
    Exists,
    Forall,
    Implies,
    Or,
    StrongAnd,
    TruthConst,
    Var,
    WeakAnd,
)

from support import build, ref_evaluate

LANG = Language(predicates={"P": 1, "Q": 1, "R": 1, "S": 1, "T": 2, "Z": 0})
LANG_F = Language(predicates={"P": 1}, functions={"f": 1, "c": 0})


def test_parse_quantified_strong_conjunction():
    f = parse_formula("E x . P(x) & Q(x)", LANG)
    assert f == Exists("x", StrongAnd(Atom("P", (Var("x"),)), Atom("Q", (Var("x"),))))


def test_arity_mismatch():
    with pytest.raises(ArityError, match=re.escape("predicate 'P' expects 1 argument(s), got 2")):
        parse_formula("P(x, y)", LANG)
    with pytest.raises(ArityError, match=re.escape("predicate 'Z' expects 0 argument(s), got 1")):
        parse_formula("Z(x)", LANG)
    with pytest.raises(ArityError, match=re.escape("function 'f' expects 1 argument(s), got 2")):
        parse_formula("P(f(x, y))", LANG_F)


def test_precedence_strong_over_weak_over_or():
    f = parse_formula("P(x) & Q(x) \\/ R(x)", LANG)
    assert isinstance(f, Or)
    assert isinstance(f.left, StrongAnd)
    g = parse_formula("P(x) /\\ Q(x) & R(x)", LANG)
    assert isinstance(g, WeakAnd)
    assert isinstance(g.right, StrongAnd)
    h = parse_formula("P(x) \\/ Q(x) -> R(x)", LANG)
    assert isinstance(h, Implies)


def test_implication_right_associative():
    f = parse_formula("P(x) -> Q(x) -> R(x)", LANG)
    assert isinstance(f, Implies) and isinstance(f.right, Implies)


def test_quantifier_scopes_to_end():
    f = parse_formula("E x . P(x) & Q(x) \\/ R(x)", LANG)
    assert isinstance(f, Exists) and isinstance(f.body, Or)
    g = parse_formula("P(y) & E x . Q(x) & R(x)", LANG)
    assert isinstance(g, StrongAnd) and isinstance(g.right, Exists)
    assert isinstance(g.right.body, StrongAnd)


def test_multi_variable_quantifier_and_universal():
    f = parse_formula("E x y . T(x, y)", LANG)
    assert isinstance(f, Exists) and isinstance(f.body, Exists)
    g = parse_formula("A x . P(x)", LANG)
    assert isinstance(g, Forall)


def test_truth_constants_and_equality():
    assert parse_formula("0", LANG) == TruthConst(0)
    assert parse_formula("1", LANG) == TruthConst(None)
    assert parse_formula("@2", LANG) == TruthConst(2)
    f = parse_formula("x = y", LANG)
    assert f == Equals(Var("x"), Var("y"))
    g = parse_formula("f(c) = x", LANG_F)
    assert g == Equals(App("f", (App("c"),)), Var("x"))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("P(x", LANG)
    with pytest.raises(ParseError):
        parse_formula("P(x) &", LANG)
    with pytest.raises(ParseError):
        parse_formula("2", LANG)
    with pytest.raises(ParseError):
        parse_formula("P(x) Q(x)", LANG)
    with pytest.raises(ParseError):
        parse_formula("E . P(x)", LANG)
    with pytest.raises(ParseError):
        parse_formula("x", LANG)
    with pytest.raises(UnknownSymbolError):
        parse_formula("P(g(x))", LANG)
    with pytest.raises(ParseError):
        parse_formula("P(Q)", LANG)
    with pytest.raises(ParseError):
        parse_formula("P(x) # Q(x)", LANG)
    with pytest.raises(ParseError, match="@ must be followed by an element index"):
        parse_formula("@ x", LANG)
    with pytest.raises(ParseError, match="'E' is reserved for quantifiers"):
        parse_formula("P(E)", LANG)
    with pytest.raises(ParseError, match="expected a term, found '1'"):
        parse_formula("P(1)", LANG)


def _conjunction_chain(k):
    # k atoms of the 0-ary Z joined by '&': a left-deep tree k levels deep
    return " & ".join(["Z"] * k)


def _parenthesized(k):
    return "(" * k + "Z" + ")" * k


def _quantified_nest(k):
    # E x . (P(x) & (P(x) & ... (P(f(x))))) with k parenthesized levels:
    # k + 3 open groups while parsing (the quantifier body, the parentheses
    # and the two argument lists) and k + 4 tree levels (the quantifier, k
    # conjunctions, the innermost atom and its two term levels).
    text = "P(f(x))"
    for _ in range(k):
        text = f"(P(x) & {text})"
    return f"E x . {text}"


def test_nesting_just_over_the_limit_is_a_parse_error():
    lang_zf = Language(predicates={"Z": 0, "P": 1}, functions={"f": 1})
    for text in (_conjunction_chain(MAX_NESTING + 1), _parenthesized(MAX_NESTING + 1)):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_formula(text, LANG)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_formula(_quantified_nest(MAX_NESTING - 3), lang_zf)
    # the shapes that used to exhaust the interpreter stack
    for text in (_conjunction_chain(3000), _parenthesized(1200)):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_formula(text, LANG)
        with pytest.raises(ParseError, match="nested deeper"):
            infer_formula(text)


def test_nesting_at_the_limit_works_end_to_end():
    chain = make_lukasiewicz(3)
    s = build(
        chain,
        ("a", "b"),
        preds={"Z": (0, 2, {}), "P": (1, 0, {("a",): 2, ("b",): 1})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
    )
    cases = [_conjunction_chain(MAX_NESTING), _parenthesized(MAX_NESTING), _quantified_nest(MAX_NESTING - 4)]
    for text in cases:
        phi = parse_formula(text, s.lang)
        assert classify(phi) >= {"pp", "sentence"}
        assert alpha_equal(parse_formula(to_text(phi), s.lang), phi)
        value = evaluate(s, phi)
        assert value == ref_evaluate(s, phi)
        assert evaluate(s, pp_normal_form(phi)) == value


def test_positions_reported():
    with pytest.raises(ParseError) as err:
        parse_formula("P(x) & ?", LANG)
    assert err.value.position == 7


def test_reserved_names():
    with pytest.raises(LanguageError):
        Language(predicates={"E": 1})
    with pytest.raises(LanguageError):
        Language(predicates={"P": 1}, functions={"P": 0})
    with pytest.raises(LanguageError, match=r"^arity of 'P' must be a natural number, got 1\.5$"):
        Language(predicates={"P": 1.5})


def test_rename_apart_nested_shadowing():
    f = parse_formula("E x . P(x) & (E x . Q(x))", LANG)
    assert isinstance(f, Exists)
    inner = f.body.right
    assert isinstance(inner, Exists)
    assert inner.var != f.var
    assert inner.body == Atom("Q", (Var(inner.var),))


def test_rename_apart_avoids_free_names():
    f = parse_formula("P(x) /\\ (E x . Q(x))", LANG)
    assert free_vars(f) == {"x"}
    binder = f.right
    assert isinstance(binder, Exists)
    assert binder.var != "x"
    # nor a constant's name: the two atoms would print alike and the normal
    # form, which keys atoms by their printed form, would merge them
    g = parse_formula("E x . E x . Q(x, x_2) /\\ Q(x_2, x)", Language({"Q": 2}, {"x_2": 0}))
    assert g.body.var not in {"x", "x_2"}
    assert to_text(pp_normal_form(g)) == "E x x_3 . Q(x_2, x_3) /\\ Q(x_3, x_2)"


def test_classify_fragment_examples():
    wedge = parse_formula("E x . P(x) /\\ Q(x)", LANG)
    assert classify(wedge) == frozenset(
        {"wedge_primitive", "pp", "existential_positive", "sentence"}
    )
    disj = parse_formula("E x . P(x) \\/ Q(x)", LANG)
    assert classify(disj) == frozenset({"existential_positive", "sentence"})
    imp = parse_formula("P(x) -> Q(x)", LANG)
    assert classify(imp) == frozenset()


def test_classify_more_cases():
    amp = parse_formula("E x . P(x) & Q(x)", LANG)
    assert classify(amp) == frozenset({"amp_primitive", "pp", "existential_positive", "sentence"})
    atom = parse_formula("P(x)", LANG)
    assert classify(atom) == frozenset(
        {"wedge_primitive", "amp_primitive", "pp", "existential_positive"}
    )
    # a quantifier below a connective leaves the prefix fragments
    inner = parse_formula("P(x) /\\ (E y . Q(y))", LANG)
    assert classify(inner) == frozenset()
    forall = parse_formula("A x . P(x)", LANG)
    assert classify(forall) == frozenset({"sentence"})


def test_classify_containments_on_random_formulas():
    for t in range(200):
        rng = trial_rng(11, "containment", t)
        lang = gen_language(rng)
        phi = gen_ep_formula(rng, lang, ["u"], 4)
        tags = classify(phi)
        if "wedge_primitive" in tags or "amp_primitive" in tags:
            assert "pp" in tags
        if "pp" in tags:
            assert "existential_positive" in tags


def test_free_vars_and_substitute():
    f = parse_formula("E x . T(x, y)", LANG)
    assert free_vars(f) == {"y"}
    p = parse_formula("P(x)", LANG)
    assert substitute(p, "x", App("c")) == Atom("P", (App("c"),))
    bound = parse_formula("E x . P(x)", LANG)
    assert substitute(bound, "x", App("c")) == bound


def test_substitute_capture_avoiding():
    f = Exists("y", Atom("T", (Var("x"), Var("y"))))
    g = substitute(f, "x", Var("y"))
    assert isinstance(g, Exists)
    assert g.var != "y"
    assert g.body == Atom("T", (Var("y"), Var(g.var)))


def test_substitute_avoids_constant_names():
    # a binder renamed onto a constant's name would print, and parse back,
    # as that constant
    s = build(
        make_lukasiewicz(3),
        ("a", "b", "c"),
        preds={"Q": (3, 0, {("a", "b", "c"): 2, ("b", "c", "c"): 1})},
        consts={"y_2": "c"},
    )
    phi = parse_formula("E y . Q(x, y, y_2)", s.lang)
    result = substitute(phi, "x", Var("y"))
    assert result.var not in {"y", "y_2"}
    for a in s.domain:
        expected = ref_evaluate(s, phi, {"x": a})
        assert ref_evaluate(s, result, {"y": a}) == expected
        assert ref_evaluate(s, parse_formula(to_text(result), s.lang), {"y": a}) == expected


def test_pp_normal_form_distributes():
    f = parse_formula("E x . P(x) & (Q(x) /\\ R(x))", LANG)
    nf = pp_normal_form(f)
    expected = parse_formula("E x . (P(x) & Q(x)) /\\ (P(x) & R(x))", LANG)
    assert nf == expected
    assert is_pp_normal_shape(nf)


def test_is_pp_normal_shape_rejects_other_layerings():
    layered = ["E x y . (P(x) & Q(y)) /\\ R(x) /\\ x = y", "P(x)", "1", "E x . T(x, x) & Z"]
    for text in layered:
        assert is_pp_normal_shape(parse_formula(text, LANG)), text
    unlayered = [
        "E x . P(x) & (Q(x) /\\ R(x))",  # a min below a strong conjunction
        "E x . P(x) \\/ Q(x)",
        "E x . P(x) -> Q(x)",
        "E x . P(x) /\\ (E y . Q(y))",  # a quantifier inside the matrix
    ]
    for text in unlayered:
        assert not is_pp_normal_shape(parse_formula(text, LANG)), text


def test_pp_normal_form_fixpoint():
    f = parse_formula("E x . (P(x) & Q(x)) /\\ R(x)", LANG)
    assert pp_normal_form(f) == f
    assert pp_normal_form(pp_normal_form(f)) == pp_normal_form(f)


def test_pp_normal_form_rejects_non_pp():
    with pytest.raises(FragmentError):
        pp_normal_form(parse_formula("E x . P(x) \\/ Q(x)", LANG))
    with pytest.raises(FragmentError):
        ep_to_pp_disjunction(parse_formula("P(x) -> Q(x)", LANG))


def all_unary_structures(chain, preds, domain):
    """Every structure interpreting the given unary predicates over the
    domain (defaults fixed at 0), for exhaustive oracle checks."""
    tuples = [(e,) for e in domain]
    assignments = product(range(chain.size), repeat=len(preds) * len(tuples))
    for values in assignments:
        spec = {}
        it = iter(values)
        for p in preds:
            spec[p] = (1, 0, {t: next(it) for t in tuples})
        yield build(chain, domain, preds=spec)


def test_pp_normal_form_value_preserving_exhaustive():
    # Deep strong/weak nesting, checked on every structure with domain
    # size 1 and 2 over the three-element chain.
    chain = make_lukasiewicz(3)
    lang = Language(predicates={"P": 1, "Q": 1, "R": 1, "S": 1})
    f = parse_formula("E x . P(x) & ((Q(x) /\\ R(x)) & S(x))", lang)
    nf = pp_normal_form(f)
    assert is_pp_normal_shape(nf)
    for domain in (("a",), ("a", "b")):
        for s in all_unary_structures(chain, ["P", "Q", "R", "S"], domain):
            assert ref_evaluate(s, f) == ref_evaluate(s, nf)


def test_ep_disjunction_examples():
    f = parse_formula("E x . P(x) \\/ Q(x)", LANG)
    parts = ep_to_pp_disjunction(f)
    assert parts == [parse_formula("E x . P(x)", LANG), parse_formula("E x . Q(x)", LANG)]

    g = parse_formula("E x . P(x) & (Q(x) \\/ R(x))", LANG)
    parts = ep_to_pp_disjunction(g)
    assert parts == [
        parse_formula("E x . P(x) & Q(x)", LANG),
        parse_formula("E x . P(x) & R(x)", LANG),
    ]

    # disjuncts keep the order of their first appearance, duplicates dropped
    h = parse_formula("E x . (Q(x) \\/ P(x)) /\\ (P(x) \\/ Q(x))", LANG)
    assert [to_text(d) for d in ep_to_pp_disjunction(h)] == [
        "E x . P(x) /\\ Q(x)",
        "E x . Q(x)",
        "E x . P(x)",
    ]

    pp = parse_formula("E x . P(x) & (Q(x) /\\ R(x))", LANG)
    assert ep_to_pp_disjunction(pp) == [pp_normal_form(pp)]


def test_ep_disjunction_max_equality_exhaustive():
    chain = make_lukasiewicz(3)
    lang = Language(predicates={"P": 1, "Q": 1, "R": 1, "S": 1})
    f = parse_formula("E x . P(x) & (Q(x) \\/ R(x))", lang)
    parts = ep_to_pp_disjunction(f)
    for domain in (("a",), ("a", "b")):
        for s in all_unary_structures(chain, ["P", "Q", "R", "S"], domain):
            assert ref_evaluate(s, f) == max(ref_evaluate(s, d) for d in parts)
            assert all(is_pp_normal_shape(d) for d in parts)


def test_ep_disjunction_deduplicates_while_expanding():
    # 14 clauses have 3^14 raw disjuncts but only 7 (/\) or 120 (&) distinct
    # ones; the expansion drops duplicates at every level instead of at the end
    s = build(
        make_lukasiewicz(3),
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 1, ("b",): 2})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
    )
    clause = "(P(x) \\/ P(f(y)) \\/ x = y)"
    for join, count in ((" /\\ ", 7), (" & ", 120)):
        phi = parse_formula("E x y . " + join.join([clause] * 14), s.lang)
        parts = ep_to_pp_disjunction(phi)
        assert len(parts) == count
        assert max(ref_evaluate(s, d) for d in parts) == ref_evaluate(s, phi)


def test_normal_forms_value_preserving_randomized():
    violations = 0
    for t in range(500):
        rng = trial_rng(23, "nf", t)
        lang = gen_language(rng)
        from mvmt.harness import gen_chain, gen_structure

        chain = gen_chain(rng, 4)
        s = gen_structure(rng, chain, lang, 3)
        free = ["u", "w"][: rng.randint(0, 2)]
        phi = gen_pp_formula(rng, lang, free, 4)
        nf = pp_normal_form(phi)
        assert is_pp_normal_shape(nf)
        ep = gen_ep_formula(rng, lang, free, 4)
        parts = ep_to_pp_disjunction(ep)
        for tup in product(s.domain, repeat=len(free)):
            v = dict(zip(free, tup))
            if ref_evaluate(s, phi, v) != ref_evaluate(s, nf, v):
                violations += 1
            if ref_evaluate(s, ep, v) != max(ref_evaluate(s, d, v) for d in parts):
                violations += 1
    assert violations == 0


def test_print_parse_round_trip_randomized():
    for t in range(300):
        rng = trial_rng(31, "roundtrip", t)
        lang = gen_language(rng)
        phi = gen_full_formula(rng, lang, ["u"], 4)
        again = parse_formula(to_text(phi), lang)
        assert alpha_equal(phi, again), to_text(phi)


def test_print_parse_round_trip_edge_cases():
    cases = [
        "(E x . P(x)) & Q(y)",
        "(P(x) \\/ Q(x)) /\\ R(x)",
        "(P(x) -> Q(x)) -> R(x)",
        "A x . (E y . T(x, y)) & P(x)",
        "T(f(c), c) & x = f(x)",
        "@2 \\/ 0 -> 1",
    ]
    lang = Language(predicates={"P": 1, "Q": 1, "R": 1, "T": 2}, functions={"f": 1, "c": 0})
    for text in cases:
        phi = parse_formula(text, lang)
        assert alpha_equal(phi, parse_formula(to_text(phi), lang)), text


def test_alpha_equal_false_side():
    lang = Language(predicates={"P": 1, "R": 2})

    def parse(text):
        return parse_formula(text, lang)

    px = Atom("P", (Var("x"),))
    # the parser renames binders apart, so the shadowing pair is built in code
    assert alpha_equal(Exists("x", Exists("x", px)), Exists("y", Exists("z", Atom("P", (Var("z"),)))))
    assert not alpha_equal(Exists("x", Exists("x", px)), Exists("x", Exists("y", px)))
    assert alpha_equal(parse("E x y . R(x, y)"), parse("E y x . R(y, x)"))
    unequal = [
        ("P(x)", "P(y)"),  # different free variables
        ("E x . E y . R(x, y)", "E y . E x . R(x, y)"),  # swapped binders
        ("E x . P(x)", "E y . P(x)"),  # captured vs free
        ("E x . P(x)", "A x . P(x)"),
        ("E x . R(x, y)", "E y . R(y, x)"),  # a free name that is bound on the other side
    ]
    for left, right in unequal:
        assert not alpha_equal(parse(left), parse(right)), (left, right)
        assert not alpha_equal(parse(right), parse(left)), (right, left)


def test_infer_formula():
    phi, lang = infer_formula("E x . P(x) & Q(x, f(x))")
    assert lang.predicates == {"P": 1, "Q": 2}
    assert lang.functions == {"f": 1}
    assert classify(phi) >= {"pp", "sentence"}
    phi2, lang2 = infer_formula("R(y)", lang)
    assert lang2.predicates["R"] == 1
    with pytest.raises(ArityError, match="predicate 'P' used with arities 1 and 2"):
        infer_formula("P(x) & P(x, y)")
    with pytest.raises(ArityError, match="function 'f' used with arities 1 and 2"):
        infer_formula("P(f(x)) & P(f(x, y))")
    with pytest.raises(ParseError, match="'P' used both as predicate and function"):
        infer_formula("P(x) & Q(P(x))")
    with pytest.raises(ParseError, match="'f' used both as predicate and function"):
        infer_formula("P(f(x)) & f(x)")
