from itertools import product

import pytest

from mvmt import (
    MorphismError,
    check_diagram_lemma,
    check_homomorphism,
    classify_morphism,
    compose,
    find_homomorphisms,
    identity_mapping,
    is_homomorphism,
    load_mapping,
    make_godel,
    make_lukasiewicz,
    mapping_from_dict,
    mapping_to_dict,
    save_mapping,
)
from mvmt.harness import gen_chain, gen_language, gen_structure, trial_rng
from mvmt.morphisms import EMBEDDING, HOMOMORPHISM, ISOMORPHISM, NONE

from support import build

CHAIN3 = make_lukasiewicz(3)


def test_predicate_condition_with_witness():
    m = build(CHAIN3, ("a",), preds={"P": (1, 0, {("a",): 2})})
    n = build(CHAIN3, ("c", "d"), preds={"P": (1, 0, {("c",): 2})})
    assert is_homomorphism({"a": "c"}, m, n)
    violation = check_homomorphism({"a": "d"}, m, n)
    assert violation is not None
    assert (violation.kind, violation.symbol, violation.args) == ("predicate", "P", ("a",))


def test_identity_and_composition():
    for t in range(25):
        rng = trial_rng(5, "comp", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, 3)
        n = gen_structure(rng, chain, lang, 3)
        k = gen_structure(rng, chain, lang, 3)
        assert is_homomorphism(identity_mapping(m), m, m)
        for g in find_homomorphisms(m, n, limit=2):
            for h in find_homomorphisms(n, k, limit=2):
                assert is_homomorphism(compose(g, h), m, k)


def test_below_top_values_impose_nothing():
    m = build(CHAIN3, ("a",), preds={"P": (1, 0, {("a",): 1})})
    n = build(CHAIN3, ("c",), preds={"P": (1, 0, {})})
    assert is_homomorphism({"a": "c"}, m, n)


def test_function_and_constant_conditions():
    m = build(
        CHAIN3,
        ("a", "b"),
        preds={"P": (1, 0, {})},
        funcs={"f": {("a",): "b", ("b",): "b"}},
        consts={"c": "a"},
    )
    n = build(
        CHAIN3,
        ("x", "y"),
        preds={"P": (1, 0, {})},
        funcs={"f": {("x",): "y", ("y",): "y"}},
        consts={"c": "x"},
    )
    assert is_homomorphism({"a": "x", "b": "y"}, m, n)
    bad = check_homomorphism({"a": "y", "b": "y"}, m, n)
    assert bad is not None and bad.kind == "constant"
    n2 = build(
        CHAIN3,
        ("x", "y"),
        preds={"P": (1, 0, {})},
        funcs={"f": {("x",): "x", ("y",): "y"}},
        consts={"c": "x"},
    )
    bad2 = check_homomorphism({"a": "x", "b": "y"}, m, n2)
    assert bad2 is not None and bad2.kind == "function" and bad2.args == ("a",)


def test_find_all_against_exhaustive_enumeration():
    for t in range(30):
        rng = trial_rng(13, "exhaustive", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, 3)
        n = gen_structure(rng, chain, lang, 3)
        found = find_homomorphisms(m, n)
        brute = [
            dict(zip(m.domain, image))
            for image in product(n.domain, repeat=len(m.domain))
            if check_homomorphism(dict(zip(m.domain, image)), m, n) is None
        ]
        assert found == brute
        for k in (1, 2):
            assert find_homomorphisms(m, n, limit=k) == found[:k]


def test_all_four_maps_on_all_top_predicates():
    m = build(CHAIN3, ("a", "b"), preds={"P": (1, 2, {})})
    n = build(CHAIN3, ("c", "d"), preds={"P": (1, 2, {})})
    found = find_homomorphisms(m, n)
    assert len(found) == 4


def test_no_homomorphism_when_top_unreachable():
    m = build(CHAIN3, ("a",), preds={"P": (1, 0, {("a",): 2})})
    n = build(CHAIN3, ("c", "d"), preds={"P": (1, 1, {})})
    assert find_homomorphisms(m, n) == []


def test_limit_is_prefix_of_all():
    m = build(CHAIN3, ("a", "b"), preds={"P": (1, 2, {})})
    n = build(CHAIN3, ("c", "d"), preds={"P": (1, 2, {})})
    every = find_homomorphisms(m, n)
    assert find_homomorphisms(m, n, limit=2) == every[:2]
    assert find_homomorphisms(m, n, limit=10) == every
    assert find_homomorphisms(m, n, limit=0) == find_homomorphisms(m, n, limit=-1) == []


def test_self_homomorphisms_include_identity():
    for t in range(20):
        rng = trial_rng(19, "self", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, 3)
        assert identity_mapping(m) in find_homomorphisms(m, m)


def test_classify_morphism():
    m = build(CHAIN3, ("a", "b"), preds={"P": (1, 2, {})})
    assert classify_morphism(identity_mapping(m), m, m) == ISOMORPHISM
    assert classify_morphism({"a": "a", "b": "a"}, m, m) == HOMOMORPHISM
    bigger = build(CHAIN3, ("x", "y", "z"), preds={"P": (1, 2, {})})
    assert classify_morphism({"a": "x", "b": "y"}, m, bigger) == EMBEDDING
    strict = build(CHAIN3, ("a", "b"), preds={"P": (1, 0, {("a",): 2})})
    assert classify_morphism({"a": "b", "b": "b"}, strict, strict) == NONE


def test_compatibility_errors():
    m = build(CHAIN3, ("a",), preds={"P": (1, 0, {})})
    other_chain = build(make_godel(3), ("a",), preds={"P": (1, 0, {})})
    with pytest.raises(MorphismError):
        is_homomorphism({"a": "a"}, m, other_chain)
    other_lang = build(CHAIN3, ("a",), preds={"Q": (1, 0, {})})
    with pytest.raises(MorphismError):
        is_homomorphism({"a": "a"}, m, other_lang)
    with pytest.raises(MorphismError):
        is_homomorphism({}, m, m)
    with pytest.raises(MorphismError):
        is_homomorphism({"a": "zzz"}, m, m)


def test_diagram_lemma_trivial_cases():
    m = build(CHAIN3, ("a",), preds={"P": (1, 0, {("a",): 2})})
    yes = build(CHAIN3, ("c",), preds={"P": (1, 0, {("c",): 2})})
    no = build(CHAIN3, ("c",), preds={"P": (1, 0, {("c",): 1})})
    assert check_diagram_lemma(m, yes) is True
    assert check_diagram_lemma(m, no) is False


def test_diagram_lemma_randomized():
    agreements = 0
    for t in range(60):
        rng = trial_rng(29, "lemma", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, 3)
        n = gen_structure(rng, chain, lang, 3)
        check_diagram_lemma(m, n)
        agreements += 1
    assert agreements == 60


def xor_table(dom):
    return {args: dom[0] if args[0] == args[1] else dom[1] for args in product(dom, repeat=2)}


def test_binary_function_symbols():
    m = build(CHAIN3, ("a", "b"), preds={"P": (1, 0, {("a",): 2})}, funcs={"g": xor_table(("a", "b"))})
    n = build(CHAIN3, ("x", "y"), preds={"P": (1, 0, {("x",): 2})}, funcs={"g": xor_table(("x", "y"))})
    assert find_homomorphisms(m, n) == [{"a": "x", "b": "x"}, {"a": "x", "b": "y"}]
    assert check_diagram_lemma(m, n) is True
    collapsed = build(
        CHAIN3,
        ("x", "y"),
        preds={"P": (1, 0, {("x",): 2})},
        funcs={"g": {args: "y" for args in product(("x", "y"), repeat=2)}},
    )
    assert find_homomorphisms(m, collapsed) == []
    assert check_diagram_lemma(m, collapsed) is False


def test_mapping_file_round_trip(tmp_path):
    g = {"a": "c", "b": "d"}
    path = tmp_path / "map.json"
    save_mapping(g, path)
    assert load_mapping(path) == g
    assert mapping_from_dict(mapping_to_dict(g)) == g
    with pytest.raises(MorphismError):
        mapping_from_dict({"nope": 1})
