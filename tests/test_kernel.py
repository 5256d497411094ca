"""Outputs of the search kernel pinned by digest, and forward checking.

The digests were computed before the kernel filtered domains ahead of the
search.  Each mapping and witness is hashed as its list of items, so the key
order of returned dictionaries is pinned along with their contents.
"""

import hashlib
import random
from itertools import product, zip_longest

import pytest

from mvmt import (
    EvaluationError,
    Language,
    PredTable,
    Structure,
    find_homomorphisms,
    make_godel,
    make_lukasiewicz,
    parse_formula,
    solve_ep,
    solve_pp,
)
from mvmt import morphisms, solver
from mvmt.algebra import chain_kind
from mvmt.harness import (
    gen_chain,
    gen_ep_formula,
    gen_pp_formula,
    gen_structure,
    random_custom_chain,
    trial_rng,
)
from mvmt.solver import decide_pp_top, top_decider
from mvmt.syntax import (
    EXISTENTIAL_POSITIVE,
    PP,
    Atom,
    Exists,
    Var,
    classify,
    strip_exists_prefix,
    to_text,
)

from support import build, ref_evaluate

GRAPH_LANG = Language(predicates={"Adj": 2})
# 0-ary, unary and binary predicates; a unary function and a constant
LANGS = (
    Language(predicates={"P": 1, "Q": 2, "R": 0}, functions={"c": 0, "f": 1}),
    Language(predicates={"P": 1, "Q": 2, "R": 0}),
    Language(predicates={"P": 1, "Q": 2}, functions={"c": 0}),
)

PINNED_GRAPH_MAPS = "a6e291c55b68e27baf3942efb8c35736b8d52ab1417ed21cd7f7b59915acb381"
PINNED_PAIR_MAPS = "5a92adade02fa0daec0b023795156fe26f6c1e925b5cc4af8cb19e4c88f84914"
PINNED_SOLVES = "7ece51b7ef2107d9f22d0b4ef6ffec3342dffcdb562f070335a46565e8589f22"
PINNED_DECIDERS = "6b3c60d16bd06cfb01d134e3c803213fc558b5ab801afd44c7593305fafb657f"


def graph(domain, edges):
    entries = {}
    for u, v in edges:
        entries[(u, v)] = entries[(v, u)] = 1
    return Structure(make_godel(2), GRAPH_LANG, domain, {"Adj": PredTable(2, 0, entries)})


def complete_graph(n):
    domain = tuple(f"k{i}" for i in range(n))
    return graph(domain, [(u, v) for i, u in enumerate(domain) for v in domain[i + 1:]])


def random_graph(rng, n, edges):
    domain = tuple(f"v{i}" for i in range(n))
    pairs = [(u, v) for i, u in enumerate(domain) for v in domain[i + 1:]]
    return graph(domain, rng.sample(pairs, edges))


def top_default(s, names):
    """``s`` with the tables of ``names`` stored with default top."""
    top = s.chain.top
    tables = {
        name: PredTable(t.arity, top, {a: t.value(a) for a in product(s.domain, repeat=t.arity)})
        if name in names else t
        for name, t in s.predicates.items()
    }
    return Structure(s.chain, s.lang, s.domain, tables, dict(s.functions), dict(s.constants))


def drawn_structure(rng, chain, lang, max_domain):
    s = gen_structure(rng, chain, lang, max_domain)
    return top_default(s, [name for name in lang.predicates if rng.random() < 0.3])


def maps_digest(pairs):
    digest = hashlib.sha256()
    for m, n in pairs:
        found = find_homomorphisms(m, n)
        assert all(list(g) == list(m.domain) for g in found)
        digest.update(repr([list(g.items()) for g in found]).encode())
        for limit in (1, 2):
            digest.update(repr([list(g.items()) for g in find_homomorphisms(m, n, limit)]).encode())
    return digest.hexdigest()


def counted(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is counted in the returned list."""
    calls = [0]
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_graph_colourings_are_pinned():
    rng = random.Random("kernel-graphs")
    k3 = complete_graph(3)
    pairs = [(random_graph(rng, 7 + t % 4, 8 + t % 7), k3) for t in range(40)]
    assert maps_digest(pairs) == PINNED_GRAPH_MAPS


def test_structure_homomorphisms_are_pinned():
    pairs = []
    for t in range(80):
        rng = trial_rng(43, "kernel-pairs", t)
        chain, lang = gen_chain(rng, 3), LANGS[t % 3]
        pairs.append((drawn_structure(rng, chain, lang, 4), drawn_structure(rng, chain, lang, 4)))
    assert maps_digest(pairs) == PINNED_PAIR_MAPS
    # the top tuples the canonical query is built from, against a scan of
    # every tuple, for tables stored with default 0 and with default top
    defaults = set()
    for s in (s for pair in pairs for s in pair):
        top = s.chain.top
        for t in s.predicates.values():
            scan = [a for a in product(s.domain, repeat=t.arity) if t.value(a) == top]
            assert sorted(t.top_tuples(s.domain, top)) == sorted(scan)
            defaults.add("top" if t.default == top else t.default)
    assert {0, "top"} <= defaults


def test_solver_values_and_witnesses_are_pinned():
    digest = hashlib.sha256()
    for t in range(300):
        rng = trial_rng(47, "kernel-solve", t)
        chain, lang = gen_chain(rng, 4), LANGS[t % 3]
        s = drawn_structure(rng, chain, lang, 3)
        for solve, draw in ((solve_pp, gen_pp_formula), (solve_ep, gen_ep_formula)):
            r = solve(s, draw(rng, lang, [], 4))
            digest.update(repr((r.value, list(r.witness.items()), r.decided_top)).encode())
    assert digest.hexdigest() == PINNED_SOLVES


def test_top_decider_witnesses_are_pinned():
    digest = hashlib.sha256()
    for t in range(400):
        rng = trial_rng(53, "kernel-decide", t)
        chain, lang = gen_chain(rng, 4), LANGS[t % 3]
        s = drawn_structure(rng, chain, lang, 4)
        free = ["u", "w"][: rng.randint(0, 2)]
        phi = gen_pp_formula(rng, lang, free, 4, ("pp", "ep", "pp_imp", "ep_imp")[t % 4])
        decide = top_decider(s, phi, free)
        for args in product(s.domain, repeat=len(free)):
            w = decide(args)
            digest.update(repr(None if w is None else list(w.items())).encode())
    assert digest.hexdigest() == PINNED_DECIDERS


def test_solve_decides_top_first(monkeypatch):
    # A top sentence is found by the search from just below top alone; a
    # non-top one is refuted there and then solved by branch and bound.
    floors = []
    plan = solver._kernel

    def recording(order, constraints, top, floor, bound=None):
        floors.append(floor)
        return plan(order, constraints, top, floor, bound)

    monkeypatch.setattr(solver, "_kernel", recording)
    s = build(make_lukasiewicz(3), ("a", "b"), preds={"P": (1, 1, {("b",): 2}), "Q": (1, 1, {})})
    cases = [
        (solve_pp, "E x y . P(x) & P(y)", 2),
        (solve_pp, "E x . P(x) & Q(x)", 1),
        (solve_ep, "E x . Q(x) \\/ P(x)", 2),
        (solve_ep, "E x . Q(x) \\/ (P(x) & Q(x))", 1),
    ]
    for solve, text, value in cases:
        floors.clear()
        r = solve(s, parse_formula(text, s.lang))
        assert (r.value, r.decided_top) == (value, value == 2)
        assert floors == ([1] if value == 2 else [1, -1]), text


def branch_and_bound(s, phi):
    """The value, witness items and top flag that branch and bound from the
    floor -1 alone gives, through the same query and kernel."""
    prefix, order, constraints, bound = solver._query(s, phi)
    best, witness = -1, {}
    for env, values in solver._kernel(order, constraints, s.chain.top, -1, bound)(s.domain, {}):
        best, witness = bound(values), {v: env[v] for v in prefix}
    return best, list(witness.items()), best == s.chain.top


def test_solving_top_first_keeps_the_branch_and_bound_answers():
    # Gödel, Łukasiewicz and drawn custom chains in turn; a drawn table may
    # be a stock one, so the kinds met are counted.
    kinds = set()
    tops = non_tops = 0
    for t in range(360):
        rng = trial_rng(61, "kernel-top-first", t)
        makers = (make_godel, make_lukasiewicz, lambda n: random_custom_chain(rng, n))
        chain, lang = makers[t % 3](rng.randint(2, 4)), LANGS[t // 3 % 3]
        s = drawn_structure(rng, chain, lang, 3)
        for solve, draw in ((solve_pp, gen_pp_formula), (solve_ep, gen_ep_formula)):
            phi = draw(rng, lang, [], 4)
            r = solve(s, phi)
            assert (r.value, list(r.witness.items()), r.decided_top) == branch_and_bound(s, phi), to_text(phi)
            assert ref_evaluate(s, strip_exists_prefix(phi)[1], r.witness) == r.value
            tops += r.decided_top
            non_tops += not r.decided_top
        kinds.add(chain_kind(chain))
    assert non_tops >= 50 and tops >= 50, (tops, non_tops)
    assert kinds == {"godel", "lukasiewicz", "custom"}


def test_forward_checking_prunes(monkeypatch):
    # K4 has no 3-colouring.  Its last vertex comes after eight isolated ones,
    # so a search that tests the edges of c only once c is assigned colours
    # the isolated vertices 3^8 times for each colouring of a, b and d.
    domain = ("a", "b", "d", *(f"x{i}" for i in range(8)), "c")
    k4 = graph(domain, [(u, v) for i, u in enumerate("abdc") for v in "abdc"[i + 1:]])
    calls = counted(monkeypatch, morphisms, "_atom_value")
    assert find_homomorphisms(k4, complete_graph(3)) == []
    assert calls[0] <= 1000, calls


def colour_query(disjunction):
    """A query with the free a, b, d adjacent to c in K3, eight more
    variables of scarcer support, and an optional ``\\/`` that makes the
    decider branch and bound."""
    lang = Language(predicates={"Adj": 2, "Q": 1})
    k3 = complete_graph(3)
    s = Structure(k3.chain, lang, k3.domain, {**k3.predicates, "Q": PredTable(1, 1, {})})
    xs = [f"x{i}" for i in range(8)]
    middle = "(Q(x0) \\/ Q(x1))" if disjunction else "Q(x0) & Q(x1)"
    phi = parse_formula(
        f"E {' '.join(xs)} c . Adj(a, c) & Adj(b, c) & Adj(d, c) & {middle} & "
        + " & ".join(f"Q({x})" for x in xs[2:]),
        lang,
    )
    return s, phi


def test_forward_checking_prunes_under_a_bound(monkeypatch):
    # A matrix with a \/ is searched with its bound.  The free a, b, d take
    # three colours of K3, so no colour is left for c; c comes after eight
    # variables of scarcer support, which a search that tests the edges of c
    # only once c is assigned would assign 3^8 times.
    s, phi = colour_query(disjunction=True)
    calls = counted(monkeypatch, solver, "_atom_value")
    decide = top_decider(s, phi, ("a", "b", "d"))
    assert decide(("k0", "k1", "k2")) is None
    assert calls[0] <= 1000, calls
    witness = decide(("k0", "k1", "k1"))
    assert list(witness.items()) == [*((f"x{i}", "k0") for i in range(8)), ("c", "k2")]


def test_table_atoms_value_as_evaluate_does():
    s = build(
        make_lukasiewicz(3),
        ("a", "b"),
        preds={"P": (1, 0, {("a",): 2, ("b",): 1}), "R": (2, 2, {("a", "b"): 0})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
        consts={"c": "b"},
        algebra_consts={"half": 1},
    )
    for text in (
        "E x . P(x) & half",
        "E x y . R(x, y) /\\ P(y)",
        "E x y . R(x, f(y)) & P(c) /\\ R(y, y)",
        "E x . (P(x) \\/ half) & R(x, c)",
    ):
        phi = parse_formula(text, s.lang)
        solve = solve_ep if "\\/" in text else solve_pp
        assert solve(s, phi).value == ref_evaluate(s, phi), text
        if solve is solve_pp:
            assert (decide_pp_top(s, phi) is not None) == (ref_evaluate(s, phi) == 2), text
    # an atom of the wrong arity is left to evaluate, which rejects it
    wrong = Exists("x", Exists("y", Atom("P", (Var("x"), Var("y")))))
    with pytest.raises(EvaluationError, match="expected 1"):
        solve_pp(s, wrong)
    with pytest.raises(EvaluationError, match="expected 1"):
        decide_pp_top(s, wrong)


@pytest.mark.parametrize("disjunction", [False, True])
def test_a_decider_plans_once(monkeypatch, disjunction):
    plans = counted(monkeypatch, solver, "_kernel")
    s, phi = colour_query(disjunction)
    decide = top_decider(s, phi, ("a", "b", "d"))
    found = [decide(args) for args in product(s.domain, repeat=3)]
    assert plans == [1]
    assert sum(w is not None for w in found) == 21  # the 27 - 6 tuples with a colour left


def test_fixed_floor_searches_read_nothing_back(monkeypatch):
    # From the floor top - 1 a kept element has passed its test ahead with
    # the value top, so the kernel does not read the value back at the
    # constraint's last variable, with a bound (the decider on the \/ query)
    # or without.  A kernel that reads it back there too makes 18 reads on
    # K4 -> K3 below, 78 on C5 -> K3, 10 in the decider without the \/ and 9
    # in the one with it.
    reads = counted(monkeypatch, solver, "_read")
    domain = ("a", "b", "d", *(f"x{i}" for i in range(8)), "c")
    k4 = graph(domain, [(u, v) for i, u in enumerate("abdc") for v in "abdc"[i + 1:]])
    c5 = graph(tuple("12345"), [(str(i), str(i % 5 + 1)) for i in range(1, 6)])
    assert find_homomorphisms(k4, complete_graph(3)) == []
    assert len(find_homomorphisms(c5, complete_graph(3))) == 30
    for disjunction in (False, True):
        s, phi = colour_query(disjunction)
        decide = top_decider(s, phi, ("a", "b", "d"))
        assert decide(("k0", "k1", "k2")) is None
        assert list(decide(("k0", "k1", "k1")).values()) == ["k0"] * 8 + ["k2"]
        assert reads == [0]


def test_a_reused_decider_gives_fresh_witnesses(monkeypatch):
    # One decider runs over its tuples shuffled and repeated; each witness,
    # with its key order, is the one a fresh decider finds for that tuple.
    # Drawn EP matrices with a \/ keep their bound, with leaves that do not
    # cut.  Closed over their free variables, the pp and EP cases are also
    # solved by branch and bound, which reads back the values it tested
    # ahead from state its plan keeps.
    reads = counted(monkeypatch, solver, "_read")
    cases = [(*colour_query(disjunction), ("a", "b", "d")) for disjunction in (False, True)]
    for t in range(200):
        rng = trial_rng(59, "kernel-reuse", t)
        chain, lang = gen_chain(rng, 4), LANGS[t % 3]
        s = drawn_structure(rng, chain, lang, 4)
        free = ["u", "w"][: rng.randint(1, 2)]
        modes = ("pp", "ep", "pp_imp", "ep", "ep_imp")
        cases.append((s, gen_pp_formula(rng, lang, free, 5, modes[t % 5]), free))
    assert sum(any(not c[3] for c in solver._query(s, phi)[2]) for s, phi, _ in cases) >= 30
    rng = random.Random("kernel-reuse")
    for s, phi, free in cases:
        tuples = list(product(s.domain, repeat=len(free)))
        tuples += rng.choices(tuples, k=len(tuples))
        rng.shuffle(tuples)
        decide = top_decider(s, phi, free)
        for args in tuples:
            w, fresh = decide(args), top_decider(s, phi, free)(args)
            assert (w and list(w.items())) == (fresh and list(fresh.items())), (to_text(phi), args)
    assert reads == [0]
    for s, phi, free in cases:
        for name in reversed(free):
            phi = Exists(name, phi)
        tags = classify(phi)
        if PP in tags:
            solve_pp(s, phi)
        elif EXISTENTIAL_POSITIVE in tags:
            solve_ep(s, phi)
    assert reads[0] > 100, reads


def snapshots(search):
    """Copies of what a search yields, taken as it yields them."""
    for env, values in search:
        yield list(env.items()), list(values)


@pytest.mark.parametrize("query", ["C5 -> K3", "colours with an or"])
def test_searches_of_one_plan_interleave(monkeypatch, query):
    # Two searches of one plan from the floor top - 1, from different starts
    # and advanced in turn, each yield what they yield when run alone: the
    # plan keeps no state that a search changes.
    plans, kernel = [], solver._kernel

    def planning(*args):
        plans.append(kernel(*args))
        return plans[-1]

    if query == "C5 -> K3":
        monkeypatch.setattr(morphisms, "_kernel", planning)
        c5 = graph(tuple("12345"), [(str(i), str(i % 5 + 1)) for i in range(1, 6)])
        k3 = complete_graph(3)
        assert len(find_homomorphisms(c5, k3)) == 30
        starts = [(k3.domain, {}), (k3.domain[::-1], {})]
    else:
        monkeypatch.setattr(solver, "_kernel", planning)
        s, phi = colour_query(disjunction=True)
        top_decider(s, phi, ("a", "b", "d"))
        starts = [(s.domain, dict(a="k0", b="k1", d="k1"))]
        starts.append((s.domain[::-1], dict(a="k1", b="k1", d="k2")))
    (search,) = plans
    alone = [list(snapshots(search(domain, dict(env)))) for domain, env in starts]
    together = zip_longest(*[snapshots(search(domain, dict(env))) for domain, env in starts])
    assert list(together) == list(zip_longest(*alone))
    assert alone[0] != alone[1]
    assert len(alone[0]) == len(alone[1]) == (30 if query == "C5 -> K3" else 1)
