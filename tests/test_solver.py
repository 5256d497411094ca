from itertools import product

import pytest

from mvmt import (
    App,
    Atom,
    Equals,
    EvaluationError,
    Exists,
    FragmentError,
    Language,
    Var,
    WeakAnd,
    decide_pp_top,
    evaluate,
    make_lukasiewicz,
    parse_formula,
    solve_ep,
    solve_pp,
)
from mvmt import harness
from mvmt.harness import (
    SMALL_SPACE,
    gen_chain,
    gen_ep_formula,
    gen_language,
    gen_pp_formula,
    gen_structure,
    trial_rng,
)
from mvmt.solver import SolveResult, _query, top_decider
from mvmt.syntax import Implies, Or, _levels, free_vars, strip_exists_prefix, to_text

from support import build, ref_evaluate

CHAIN3 = make_lukasiewicz(3)


def two_point():
    return build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 2, ("b",): 1}), "Q": (1, 0, {("b",): 2})},
    )


def test_simple_existential():
    s = two_point()
    r = solve_pp(s, parse_formula("E x . P(x)", s.lang))
    assert r.value == 2 and r.witness == {"x": "a"} and r.decided_top
    assert decide_pp_top(s, parse_formula("E x . P(x)", s.lang)) == {"x": "a"}


def test_disjoint_top_supports():
    s = two_point()
    phi = parse_formula("E x . P(x) & Q(x)", s.lang)
    r = solve_pp(s, phi)
    assert not r.decided_top
    assert r.value == evaluate(s, phi)
    assert decide_pp_top(s, phi) is None


def test_closed_matrix_and_empty_prefix():
    s = build(CHAIN3, ("a",), preds={"P": (1, 0, {("a",): 2})}, consts={"c": "a"})
    phi = parse_formula("P(c)", s.lang)
    r = solve_pp(s, phi)
    assert r.value == 2 and r.witness == {} and r.decided_top
    assert decide_pp_top(s, phi) == {}


def test_fragment_and_sentence_preconditions():
    s = two_point()
    with pytest.raises(FragmentError):
        solve_pp(s, parse_formula("E x . P(x) \\/ Q(x)", s.lang))
    with pytest.raises(FragmentError):
        solve_pp(s, parse_formula("P(x)", s.lang))
    with pytest.raises(FragmentError):
        solve_ep(s, parse_formula("A x . P(x)", s.lang))
    with pytest.raises(FragmentError):
        solve_ep(s, parse_formula("P(x) \\/ Q(y)", s.lang))


def test_solve_pp_matches_evaluation_randomized():
    for t in range(200):
        rng = trial_rng(61, "solve", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        s = gen_structure(rng, chain, lang, 3)
        phi = gen_pp_formula(rng, lang, [], 4)
        r = solve_pp(s, phi)
        expected = ref_evaluate(s, phi)
        assert r.value == expected
        assert r.decided_top == (expected == chain.top)
        # witness soundness: the quantifier-free matrix reproduces the value
        prefix, matrix = strip_exists_prefix(phi)
        if prefix:
            assert set(r.witness) == set(prefix)
            assert evaluate(s, matrix, r.witness) == r.value
        # pruned top decision agrees with the exact value
        w = decide_pp_top(s, phi)
        assert (w is not None) == r.decided_top
        if w is not None:
            assert evaluate(s, matrix, w) == chain.top
        # both witnesses are the first qualifying assignment in search order:
        # variables in _query's order, each running through the domain
        order = _query(s, phi)[1]
        assignments = [dict(zip(order, image)) for image in product(s.domain, repeat=len(order))]
        values = [ref_evaluate(s, matrix, a) for a in assignments]
        first = assignments[values.index(r.value)]
        assert r.witness == {v: first[v] for v in prefix}
        tops = [a for a, value in zip(assignments, values) if value == chain.top]
        assert w == ({v: tops[0][v] for v in prefix} if tops else None)


def test_solve_ep_basic_cases():
    s = two_point()
    phi = parse_formula("E x . P(x) \\/ Q(x)", s.lang)
    r = solve_ep(s, phi)
    assert r == SolveResult(value=2, witness={"x": "a"}, decided_top=True)
    assert evaluate(s, phi) == 2

    for text in ("E x . P(x) & Q(x)", "E x y . P(x) /\\ (Q(y) & P(y))"):
        pp = parse_formula(text, s.lang)
        assert solve_ep(s, pp) == solve_pp(s, pp)


def test_solve_ep_witness_from_second_disjunct():
    s = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 1}), "Q": (1, 0, {("b",): 2})},
    )
    phi = parse_formula("E x . P(x) \\/ Q(x)", s.lang)
    r = solve_ep(s, phi)
    assert r == SolveResult(value=2, witness={"x": "b"}, decided_top=True)
    assert not hasattr(r, "disjunct")


def test_solve_ep_matches_evaluation_randomized():
    for t in range(200):
        rng = trial_rng(67, "solve-ep", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        s = gen_structure(rng, chain, lang, 3)
        phi = gen_ep_formula(rng, lang, [], 4)
        r = solve_ep(s, phi)
        assert r.value == ref_evaluate(s, phi)
        assert r.decided_top == (r.value == chain.top)
        # the witness is the first assignment attaining the value, with the
        # variables in _query's order, each running through the domain
        prefix, matrix = strip_exists_prefix(phi)
        order = _query(s, phi)[1]
        assignments = [dict(zip(order, image)) for image in product(s.domain, repeat=len(order))]
        values = [ref_evaluate(s, matrix, a) for a in assignments]
        first = assignments[values.index(r.value)]
        assert r.witness == {v: first[v] for v in prefix}


def test_solve_ep_needs_no_disjunct_expansion():
    # 14 clauses would expand into 3^14 pp disjuncts; the search runs on the
    # matrix itself
    s = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 1, ("b",): 2})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
    )
    clause = "(P(x) \\/ P(f(y)) \\/ x = y)"
    phi = parse_formula("E x y . " + " & ".join([clause] * 14), s.lang)
    assert solve_ep(s, phi).value == evaluate(s, phi)


def test_deterministic_witness():
    s = build(CHAIN3, ("a", "b", "c"), preds={"P": (1, 2, {})})
    phi = parse_formula("E x y . P(x) & P(y)", s.lang)
    r1 = solve_pp(s, phi)
    r2 = solve_pp(s, phi)
    assert r1 == r2
    assert r1.witness == {"x": "a", "y": "a"}


def test_top_decider_matches_reference_randomized():
    # Every tuple of every drawn (structure, formula) pair, over the four
    # prefix-form mixes, with zero to two free variables.
    triples, below, seen = 0, 0, set()
    for t in range(500):
        rng = trial_rng(71, "decider", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        s = gen_structure(rng, chain, lang, 3)
        free = ["u", "w"][: rng.randint(0, 2)]
        mode = ("pp", "ep", "pp_imp", "ep_imp")[t % 4]
        phi = gen_pp_formula(rng, lang, free, 4, mode)
        prefix, matrix = strip_exists_prefix(phi)
        seen |= {type(node) for level in _levels(matrix) for node in level} & {Or, Implies}
        decide = top_decider(s, phi, free)
        for args in product(s.domain, repeat=len(free)):
            valuation = dict(zip(free, args))
            expected = ref_evaluate(s, phi, valuation)
            witness = decide(args)
            assert (witness is not None) == (expected == chain.top), (to_text(phi), valuation)
            if witness is not None:
                assert set(witness) == set(prefix)
                assert ref_evaluate(s, matrix, {**valuation, **witness}) == chain.top
            triples += 1
            below += expected == chain.top - 1
            seen.add(len(free))
    assert triples >= 1000 and below >= 100
    assert seen >= {Or, Implies, 0, 1, 2}


def test_top_decider_rejects_a_prefix_variable_shadowing_a_free_one():
    s = two_point()
    phi = parse_formula("E u . P(u) & Q(w)", s.lang)
    assert free_vars(phi) == {"w"}
    with pytest.raises(FragmentError, match="shadow"):
        top_decider(s, phi, ["u", "w"])
    assert top_decider(s, phi, ["w"])(("a",)) is None
    assert top_decider(s, phi, ["w"])(("b",)) == {"u": "a"}


def test_top_decider_rejects_an_unbound_variable():
    # Table atoms read the assignment directly, so the decider checks the
    # free variables up front, also where the search would cut before the
    # leaf that reads w (no x makes both P(x) and Q(x) top).
    s = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 2}), "Q": (1, 0, {("b",): 2}), "S": (2, 2, {})},
    )
    for text in ("E x . P(x) & Q(w)", "E x . Q(x) & P(x) & S(x, w)"):
        with pytest.raises(EvaluationError, match="unbound variable 'w'"):
            top_decider(s, parse_formula(text, s.lang))


def test_top_decider_rejects_an_element_outside_the_domain():
    # A table lookup gives 'zz' the default, here top, so the search alone
    # would find the witness y = b.
    s = build(CHAIN3, ("a", "b"), preds={"P": (1, 2, {("a",): 1})})
    decide = top_decider(s, parse_formula("E y . P(x) & P(y)", s.lang), ["x"])
    assert decide(("a",)) is None and decide(("b",)) == {"y": "b"}
    outside = r"^variable 'x' is assigned 'zz', outside the domain$"
    with pytest.raises(EvaluationError, match=outside):
        decide(("zz",))


def test_top_decider_rejects_a_tuple_of_the_wrong_length():
    # Short, the table lookup of Q(x, z) would find no z; long, the extra
    # element would be dropped and a witness returned.
    s = build(CHAIN3, ("a", "b"), preds={"P": (1, 0, {("a",): 2}), "Q": (2, 2, {})})
    decide = top_decider(s, parse_formula("E y . Q(x, z) & P(y)", s.lang), ["x", "z"])
    assert decide(("a", "b")) == {"y": "a"}
    for args in (("a",), ("a", "b", "b")):
        wrong = rf"^expected 2 element\(s\) for \['x', 'z'\], got {len(args)}$"
        with pytest.raises(EvaluationError, match=wrong):
            decide(args)


def test_top_decider_rejects_a_name_given_twice():
    # zip would pair u with both elements and keep only the last one.
    s = build(CHAIN3, ("a", "b"), preds={"Q": (2, 0, {("b", "b"): 2})})
    phi = parse_formula("Q(u, u)", s.lang)
    assert top_decider(s, phi, ("u",))(("b",)) == {}
    twice = r"^free variables \['u', 'u'\] name a variable twice$"
    with pytest.raises(EvaluationError, match=twice):
        top_decider(s, phi, ("u", "u"))


def test_an_algebra_constant_with_arguments_is_an_evaluation_error():
    # The parser builds no such atom. Built in code, its arguments were
    # ignored: evaluate gave the constant with x unbound, and the search a
    # witness for x.
    s = build(CHAIN3, ("a", "b"), algebra_consts={"one": 1})
    leaf = Atom("one", (Var("x"),))
    assert evaluate(s, Atom("one", ())) == 1
    calls = [
        lambda: evaluate(s, leaf),
        lambda: evaluate(s, leaf, {"x": "a"}),
        lambda: solve_pp(s, Exists("x", leaf)),
        lambda: decide_pp_top(s, Exists("x", leaf)),
        lambda: top_decider(s, leaf, ["x"])(("a",)),
    ]
    wrong = r"^algebra constant 'one' takes no arguments$"
    for call in calls:
        with pytest.raises(EvaluationError, match=wrong):
            call()
    with pytest.raises(ValueError, match=wrong):  # the reference evaluator agrees
        ref_evaluate(s, leaf, {"x": "a"})


def test_a_malformed_atom_is_rejected_when_the_query_is_built():
    # P is nowhere top, so forward checking cut every branch before the
    # search reached the malformed leaf, and the decider returned None.
    s = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 1, {}), "Q": (1, 2, {})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
        algebra_consts={"one": 2},
    )
    x = Var("x")
    unknown = r"^unknown function symbol 'g'$"
    cases = [
        (Atom("one", (x,)), r"^algebra constant 'one' takes no arguments$"),
        (Atom("Q", (x, x)), r"^predicate 'Q' applied to 2 argument\(s\), expected 1$"),
        (Equals(App("g", (x,)), x), unknown),
        (Atom("P", (App("g", (x,)),)), unknown),
        (Equals(App("f", (x, x)), x), r"^function 'f' applied to 2 argument\(s\), expected 1$"),
    ]
    for leaf, message in cases:
        phi = Exists("x", WeakAnd(Atom("P", (x,)), leaf))
        for call in (decide_pp_top, solve_pp, lambda m, f: top_decider(m, f)):
            with pytest.raises(EvaluationError, match=message):
                call(s, phi)


def test_unknown_predicate_is_an_evaluation_error():
    s = two_point()
    wide = Language(predicates={"P": 1, "Q": 1, "Z": 1})
    calls = [
        (solve_pp, "E x . P(x) & Z(x)"),
        (solve_ep, "E x . Q(x) \\/ Z(x)"),
        (decide_pp_top, "E x . Z(x)"),
        (lambda m, phi: top_decider(m, phi, ["y"]), "E x . P(x) & Z(y)"),
    ]
    for call, text in calls:
        with pytest.raises(EvaluationError, match=r"^unknown predicate symbol 'Z'$"):
            call(s, parse_formula(text, wide))


def test_check_suites_search_above_the_small_space(monkeypatch):
    # With two elements, a 3-variable prefix has 8 assignments and a
    # 4-variable prefix 16: the first is evaluated, the second searched.
    s = build(CHAIN3, ("a", "b"), preds={"R": (2, 2, {("a", "b"): 1, ("b", "b"): 0})})
    small = parse_formula("E x y z . R(u, x) & R(x, y) & R(y, z) & R(z, u)", s.lang)
    large = parse_formula("E x y z v . R(u, x) & R(x, y) & R(y, z) & R(z, v) & R(v, u)", s.lang)
    assert 2 ** 3 <= SMALL_SPACE < 2 ** 4

    def refuse(*args):
        raise AssertionError("wrong path")

    for phi, patched in ((small, "top_decider"), (large, "evaluate")):
        with monkeypatch.context() as m:
            m.setattr(harness, patched, refuse)
            tops = harness._tops(s, phi, ["u"])
        assert tops == {(e,): ref_evaluate(s, phi, {"u": e}) == 2 for e in s.domain}
