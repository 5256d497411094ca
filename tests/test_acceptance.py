"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either computed by an independent oracle inside the
test (the reference evaluator, exhaustive enumeration) or asserted at the
zero-tolerance level the checked law demands.  Counts and bounds are fixed
here, not tunable.
"""

import time
from contextlib import contextmanager
from itertools import product

from mvmt import (
    GenConfig,
    Language,
    check_diagram_lemma,
    check_hom_preservation,
    check_pp_theory_closure,
    check_product_preservation,
    decide_pp_top,
    direct_product,
    enumerate_tnorm_tables,
    ep_to_pp_disjunction,
    evaluate,
    is_homomorphism,
    is_pp_normal_shape,
    make_custom,
    make_godel,
    make_lukasiewicz,
    parse_formula,
    pp_normal_form,
    projection,
    solve_pp,
    weak_product,
)
from mvmt.harness import (
    gen_chain,
    gen_ep_formula,
    gen_full_formula,
    gen_language,
    gen_pp_formula,
    gen_structure,
    trial_rng,
)
from mvmt.syntax import strip_exists_prefix

from support import ref_evaluate


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def adjunction_holds_everywhere(chain):
    n = chain.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (chain.tnorm[x][z] <= y) != (z <= chain.residuum[x][y]):
                    return False
    return True


def test_criterion_1_algebra_soundness():
    with criterion(1, "adjunction law exhaustive on stock and custom chains"):
        rng = trial_rng(1, "acceptance-algebra", 0)
        chains = []
        for n in range(2, 7):
            chains.append(make_lukasiewicz(n))
            chains.append(make_godel(n))
        for _ in range(50):
            n = rng.randint(2, 6)
            chains.append(make_custom(n, rng.choice(enumerate_tnorm_tables(n))))
        start = time.perf_counter()
        assert all(adjunction_holds_everywhere(c) for c in chains)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"adjunction sweep took {elapsed:.3f}s"


def test_criterion_2_semantics_oracle():
    with criterion(2, "evaluator agrees with the by-the-definition reference on 1000 triples"):
        mismatches = 0
        for t in range(1000):
            rng = trial_rng(2, "acceptance-semantics", t)
            chain = gen_chain(rng, 4)
            lang = gen_language(rng)
            s = gen_structure(rng, chain, lang, 3)
            free = ["u", "w"][: rng.randint(0, 2)]
            phi = gen_full_formula(rng, lang, free, 4)
            valuation = {v: rng.choice(s.domain) for v in free}
            if evaluate(s, phi, valuation) != ref_evaluate(s, phi, valuation):
                mismatches += 1
        assert mismatches == 0


def test_criterion_3_normal_form_equivalence():
    with criterion(3, "pp normal form preserves exact values on 500 formulas"):
        chain = make_lukasiewicz(3)
        violations = 0
        for t in range(500):
            rng = trial_rng(3, "acceptance-nf", t)
            lang = gen_language(rng)
            free = ["u", "w"][: rng.randint(0, 2)]
            phi = gen_pp_formula(rng, lang, free, 4)
            nf = pp_normal_form(phi)
            assert is_pp_normal_shape(nf)
            for _ in range(3):
                s = gen_structure(rng, chain, lang, 2)
                for tup in product(s.domain, repeat=len(free)):
                    valuation = dict(zip(free, tup))
                    if evaluate(s, phi, valuation) != evaluate(s, nf, valuation):
                        violations += 1
        assert violations == 0


def test_criterion_4_ep_decomposition():
    with criterion(4, "EP sentences equal the max of their pp disjuncts on 500 cases"):
        violations = 0
        for t in range(500):
            rng = trial_rng(4, "acceptance-ep", t)
            chain = gen_chain(rng, 4)
            lang = gen_language(rng)
            s = gen_structure(rng, chain, lang, 3)
            phi = gen_ep_formula(rng, lang, [], 4)
            parts = ep_to_pp_disjunction(phi)
            direct = evaluate(s, phi)
            if direct != max(evaluate(s, d) for d in parts):
                violations += 1
            if not all(is_pp_normal_shape(d) for d in parts):
                violations += 1
        assert violations == 0


def test_criterion_5_hom_preservation():
    with criterion(5, "homomorphisms preserve top-valued pp formulas; mutation caught"):
        report = check_hom_preservation(GenConfig(seed=2026, trials=2800))
        assert report.effective >= 1000, f"only {report.effective} effective trials"
        assert report.violations == []
        assert report.verdict == "pass"
        mutated = check_hom_preservation(
            GenConfig(seed=42, trials=1000, allow_implication=True)
        )
        assert len(mutated.violations) >= 1
        assert mutated.verdict == "fail"


def test_criterion_6_product_preservation():
    with criterion(6, "weak products satisfy the top-value biconditional both ways"):
        report = check_product_preservation(
            GenConfig(seed=2026, trials=1300, max_domain=2, max_depth=3)
        )
        assert report.effective >= 500, f"only {report.effective} effective trials"
        assert report.violations == []
        assert report.verdict == "pass"


def test_criterion_7_projections_are_homomorphisms():
    with criterion(7, "every projection of 200 random products is a homomorphism"):
        failures = 0
        for t in range(200):
            rng = trial_rng(7, "acceptance-proj", t)
            chain = gen_chain(rng, 4)
            lang = gen_language(rng)
            count = rng.randint(1, 3)
            factors = [gen_structure(rng, chain, lang, 2) for _ in range(count)]
            if t % 2 == 0:
                prod = direct_product(factors)
            else:
                prod = weak_product(factors, policy="scrambled", seed=t)
            for i, factor in enumerate(factors):
                if not is_homomorphism(projection(prod, i), prod, factor):
                    failures += 1
        assert failures == 0


def test_criterion_8_diagram_lemma():
    with criterion(8, "diagram modeling and homomorphism existence agree on 300 pairs"):
        for t in range(300):
            rng = trial_rng(8, "acceptance-diagram", t)
            chain = gen_chain(rng, 4)
            lang = gen_language(rng)
            m = gen_structure(rng, chain, lang, 3)
            n = gen_structure(rng, chain, lang, 3)
            check_diagram_lemma(m, n)  # raises on any disagreement


AXIOM_SETS = [
    ({"P": 1}, {}, ["E x . P(x)"]),
    ({"P": 1, "Q": 1}, {}, ["E x . P(x) & Q(x)"]),
    ({"P": 1, "Q": 1}, {}, ["E x y . P(x) /\\ Q(y)"]),
    ({"P": 1}, {"c": 0}, ["P(c)"]),
    ({"P": 1, "Q": 1}, {}, ["E x . P(x) & P(x)", "E y . Q(y)"]),
]


def test_criterion_9_pp_theory_closure():
    with criterion(9, "models of pp axiom sets closed under images and products"):
        for preds, funcs, texts in AXIOM_SETS:
            lang = Language(predicates=preds, functions=funcs)
            axioms = [parse_formula(t, lang) for t in texts]
            report = check_pp_theory_closure(GenConfig(seed=2026, trials=200), axioms, lang)
            assert report.violations == [], texts
            assert report.verdict == "pass", (texts, report.verdict)


def test_criterion_10_solver_equivalence():
    with criterion(10, "solver value, witness and pruned top decision agree on 500 instances"):
        for t in range(500):
            rng = trial_rng(10, "acceptance-solver", t)
            chain = gen_chain(rng, 4)
            lang = gen_language(rng)
            s = gen_structure(rng, chain, lang, 3)
            phi = gen_pp_formula(rng, lang, [], 4)
            result = solve_pp(s, phi)
            assert result.value == ref_evaluate(s, phi)
            prefix, matrix = strip_exists_prefix(phi)
            assert set(result.witness) == set(prefix)
            assert evaluate(s, matrix, result.witness) == result.value
            witness = decide_pp_top(s, phi)
            assert (witness is not None) == result.decided_top
            if witness is not None:
                assert evaluate(s, matrix, witness) == chain.top
