import hashlib
import random
import zlib
from itertools import product

import pytest

from mvmt import (
    Language,
    PredTable,
    ProductError,
    Structure,
    classify_morphism,
    direct_product,
    dumps_structure,
    evaluate,
    is_homomorphism,
    make_godel,
    make_lukasiewicz,
    projection,
    split_product_name,
    weak_product,
)
from mvmt.harness import gen_chain, gen_language, gen_pp_formula, gen_structure, trial_rng
from mvmt.morphisms import ISOMORPHISM

from support import build

CHAIN3 = make_lukasiewicz(3)


def factor_pair():
    m = build(CHAIN3, ("a", "b"), preds={"P": (1, 0, {("a",): 2, ("b",): 1})})
    n = build(CHAIN3, ("c", "d"), preds={"P": (1, 0, {("c",): 1, ("d",): 2})})
    return m, n


def test_min_clause():
    m, n = factor_pair()
    p = direct_product([m, n])
    assert p.domain == ("(a|c)", "(a|d)", "(b|c)", "(b|d)")
    table = p.predicates["P"]
    assert table.value(("(a|c)",)) == 1
    assert table.value(("(a|d)",)) == 2
    assert table.value(("(b|c)",)) == 1
    assert table.value(("(b|d)",)) == 1


def test_functions_and_constants_componentwise():
    m = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {})},
        funcs={"f": {("a",): "b", ("b",): "a"}},
        consts={"k": "a"},
    )
    n = build(
        CHAIN3,
        ("c", "d"),
        preds={"P": (1, 0, {})},
        funcs={"f": {("c",): "c", ("d",): "c"}},
        consts={"k": "d"},
    )
    p = direct_product([m, n])
    assert p.functions["f"][("(a|c)",)] == "(b|c)"
    assert p.functions["f"][("(b|d)",)] == "(a|c)"
    assert p.constants["k"] == "(a|d)"


def test_single_factor_isomorphic():
    m, _ = factor_pair()
    p = direct_product([m])
    assert p.domain == ("(a)", "(b)")
    assert classify_morphism(projection(p, 0), p, m) == ISOMORPHISM


def test_weak_min_equals_direct():
    m, n = factor_pair()
    assert weak_product([m, n], policy="min") == direct_product([m, n])


def test_scrambled_top_pattern_and_determinism():
    m, n = factor_pair()
    canonical = direct_product([m, n])
    s1 = weak_product([m, n], policy="scrambled", seed=5)
    s2 = weak_product([m, n], policy="scrambled", seed=5)
    assert s1 == s2
    top = CHAIN3.top
    for args in product(canonical.domain, repeat=1):
        assert (canonical.predicates["P"].value(args) == top) == (
            s1.predicates["P"].value(args) == top
        )
        if s1.predicates["P"].value(args) != canonical.predicates["P"].value(args):
            assert s1.predicates["P"].value(args) < top


def test_projections_are_homomorphisms():
    m, n = factor_pair()
    for p in (direct_product([m, n]), weak_product([m, n], "scrambled", seed=9)):
        assert is_homomorphism(projection(p, 0), p, m)
        assert is_homomorphism(projection(p, 1), p, n)


def test_projection_errors():
    m, n = factor_pair()
    p = direct_product([m, n])
    with pytest.raises(ProductError):
        projection(p, 2)
    with pytest.raises(ProductError):
        projection(p, -1)
    with pytest.raises(ProductError):
        projection(m, 0)


def test_nested_products():
    m, n = factor_pair()
    p = direct_product([m, n])
    q = direct_product([p, m])
    assert split_product_name(q.domain[0]) == ["(a|c)", "a"]
    for name in ("(a|)", "((a)", "(a))", "(a|b", "()"):
        assert split_product_name(name) is None, name
    assert is_homomorphism(projection(q, 0), q, p)
    assert is_homomorphism(projection(q, 1), q, m)


def test_factor_validation():
    m, n = factor_pair()
    with pytest.raises(ProductError):
        direct_product([])
    other = build(make_godel(3), ("a",), preds={"P": (1, 0, {})})
    with pytest.raises(ProductError):
        direct_product([m, other])
    renamed = build(CHAIN3, ("a", "b"), preds={"Q": (1, 0, {})})
    with pytest.raises(ProductError):
        direct_product([m, renamed])
    reserved = build(CHAIN3, ("a|b",), preds={"P": (1, 0, {})})
    with pytest.raises(ProductError):
        direct_product([m, reserved])
    with pytest.raises(ProductError):
        weak_product([m, n], policy="sideways")


def test_product_preservation_spot_checks():
    for t in range(40):
        rng = trial_rng(37, "prodspot", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        count = rng.randint(2, 3)
        factors = [gen_structure(rng, chain, lang, 2) for _ in range(count)]
        phi = gen_pp_formula(rng, lang, [], 3)
        for prod in (direct_product(factors), weak_product(factors, "scrambled", seed=t)):
            left = evaluate(prod, phi) == chain.top
            right = all(evaluate(f, phi) == chain.top for f in factors)
            assert left == right


def test_model_of_pp_axioms_closed_under_product():
    for t in range(30):
        rng = trial_rng(53, "prodmodel", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, 3)
        n = gen_structure(rng, chain, lang, 3)
        phi = gen_pp_formula(rng, lang, [], 3)
        if evaluate(m, phi) == chain.top and evaluate(n, phi) == chain.top:
            assert evaluate(direct_product([m, n]), phi) == chain.top


# Digest of the serialized weak products of 40 seeded factor sets, both
# policies, plus one nested product; it changes only when a product's
# elements, tables or scrambled values do.
PINNED_PRODUCTS = "7255eba9f63eada7dfee90d6eb2c330da700708d6ef4c9640f8948d905870855"


def test_product_bytes_are_pinned():
    lang = Language(predicates={"P": 1, "Q": 2, "R": 0}, functions={"c": 0, "f": 1})
    digest = hashlib.sha256()
    for t in range(40):
        rng = trial_rng(41, "prodbytes", t)
        chain = gen_chain(rng, 5)
        factors = [gen_structure(rng, chain, lang, 3) for _ in range(1 + t % 3)]
        for policy in ("min", "scrambled"):
            digest.update(dumps_structure(weak_product(factors, policy, seed=t)).encode())
    m, n = factor_pair()
    nested = weak_product([weak_product([m, n], "scrambled", seed=3), m], "scrambled", seed=4)
    digest.update(dumps_structure(nested).encode())
    assert digest.hexdigest() == PINNED_PRODUCTS


def ref_weak_product(factors, policy, seed):
    """The weak product cell by cell from the definition: each cell's
    coordinatewise minimum through ``PredTable.value``, replaced below top
    under "scrambled" by the CRC-32 of a key naming the seed, the symbol and
    the cell, modulo top."""
    first = factors[0]
    top = first.chain.top
    coords = list(product(*(s.domain for s in factors)))
    name = {t: "(" + "|".join(t) + ")" for t in coords}
    predicates = {}
    for p, arity in first.lang.predicates.items():
        entries = {}
        for cell in product(coords, repeat=arity):
            args = tuple(name[t] for t in cell)
            value = min(s.predicates[p].value(tuple(t[i] for t in cell)) for i, s in enumerate(factors))
            if policy == "scrambled" and value != top:
                value = zlib.crc32(f"{seed}:{p}:{','.join(args)}".encode()) % top
            entries[args] = value
        predicates[p] = PredTable(arity, 0, entries)
    functions = {}
    for f, arity in first.lang.functions.items():
        if arity:
            functions[f] = {
                tuple(name[t] for t in cell): name[
                    tuple(s.functions[f][tuple(t[i] for t in cell)] for i, s in enumerate(factors))
                ]
                for cell in product(coords, repeat=arity)
            }
    return Structure(
        chain=first.chain,
        lang=first.lang,
        domain=tuple(name[t] for t in coords),
        predicates=predicates,
        functions=functions,
        constants={c: name[tuple(s.constants[c] for s in factors)] for c in first.constants},
    )


def random_factors(rng):
    """1-3 factors of 1-3 elements over a chain of 2-4 elements (top 1 at 2),
    with unary, binary and 0-ary predicates whose tables list some tuples
    and default to 0, top or a random element, a unary function and a
    constant."""
    size = rng.randint(2, 4)
    chain = make_lukasiewicz(size) if rng.random() < 0.5 else make_godel(size)
    lang = Language(predicates={"P": 1, "Q": 2, "R": 0}, functions={"c": 0, "f": 1})
    factors = []
    for _ in range(rng.randint(1, 3)):
        domain = ("a", "b", "c")[: rng.randint(1, 3)]
        predicates = {}
        for p, arity in lang.predicates.items():
            default = rng.choice((0, chain.top, rng.randrange(chain.size)))
            entries = {
                args: rng.randrange(chain.size)
                for args in product(domain, repeat=arity)
                if rng.random() < 0.6
            }
            predicates[p] = PredTable(arity, default, entries)
        factors.append(
            Structure(
                chain=chain,
                lang=lang,
                domain=domain,
                predicates=predicates,
                functions={"f": {(e,): rng.choice(domain) for e in domain}},
                constants={"c": rng.choice(domain)},
            )
        )
    return factors


def test_weak_product_matches_reference():
    kinds = set()
    for t in range(60):
        rng = random.Random(f"prodref:{t}")
        factors = random_factors(rng)
        kinds.add((factors[0].chain.top == 1, min(len(s.domain) for s in factors) == 1))
        kinds.update(
            ("default", table.default == s.chain.top) for s in factors for table in s.predicates.values()
        )
        for policy in ("min", "scrambled"):
            got = weak_product(factors, policy, seed=t)
            assert dumps_structure(got) == dumps_structure(ref_weak_product(factors, policy, t))
    # the draws cover top 1 and larger chains, 1-element factors and
    # tables with a top default
    assert {(True, True), (False, True), (True, False), (False, False), ("default", True)} <= kinds
    inner = random_factors(random.Random("prodref:nested:6"))
    assert len(inner) == 2 and inner[0].chain.top == 2
    got = weak_product([weak_product(inner, "scrambled", seed=3), inner[0]], "scrambled", seed=4)
    ref = ref_weak_product([ref_weak_product(inner, "scrambled", 3), inner[0]], "scrambled", 4)
    assert dumps_structure(got) == dumps_structure(ref)
