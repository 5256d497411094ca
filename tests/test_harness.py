import hashlib
import json
from itertools import product

import pytest

import mvmt.solver
from mvmt import (
    GenConfig,
    HarnessError,
    Language,
    chain_to_dict,
    check_ep_preservation,
    check_hom_preservation,
    check_pp_theory_closure,
    check_product_preservation,
    enumerate_tnorm_tables,
    evaluate,
    find_below_top_counterexample,
    find_homomorphisms,
    identity_mapping,
    infer_formula,
    make_custom,
    parse_formula,
    random_custom_chain,
    structure_from_dict,
    structure_to_dict,
    to_text,
)
from mvmt.harness import (
    FAIL,
    INCONCLUSIVE,
    MAX_DEPTH,
    PASS,
    gen_chain,
    gen_ep_formula,
    gen_full_formula,
    gen_language,
    gen_pp_formula,
    gen_structure,
    trial_rng,
)
from mvmt.syntax import classify

from support import ref_evaluate


def test_gen_config_bounds():
    # constructing a config builds nothing, so the large bounds are cheap here
    for bad in (
        {"trials": 0},
        {"max_domain": 0},
        {"max_domain": 9},
        {"max_chain": 0},
        {"max_chain": 1},
        {"max_chain": 257},
        {"max_depth": 0},
        {"max_depth": MAX_DEPTH + 1},
    ):
        with pytest.raises(HarnessError):
            GenConfig(**bad)
    assert MAX_DEPTH == 16
    GenConfig(max_domain=8, max_chain=2, max_depth=MAX_DEPTH)
    GenConfig(max_domain=1, max_chain=256, max_depth=1)


def test_generators_respect_bounds_and_fragments():
    for t in range(150):
        rng = trial_rng(3, "bounds", t)
        chain = gen_chain(rng, 4)
        assert 2 <= chain.size <= 4
        lang = gen_language(rng)
        assert all(0 <= ar <= 2 for ar in lang.predicates.values())
        s = gen_structure(rng, chain, lang, 3)
        assert 1 <= len(s.domain) <= 3
        assert all(t.default <= chain.top for t in s.predicates.values())
        pp = gen_pp_formula(rng, lang, ["u"], 4)
        assert "pp" in classify(pp)
        ep = gen_ep_formula(rng, lang, ["u"], 4)
        assert "existential_positive" in classify(ep)


def test_reports_are_deterministic():
    cfg = GenConfig(seed=11, trials=120)
    assert check_hom_preservation(cfg).to_dict() == check_hom_preservation(cfg).to_dict()
    cfgp = GenConfig(seed=11, trials=60, max_domain=2)
    assert check_product_preservation(cfgp).to_dict() == check_product_preservation(cfgp).to_dict()


def test_trial_accounting():
    report = check_hom_preservation(GenConfig(seed=2, trials=150))
    assert report.trials == 150
    assert report.effective + report.skipped == report.trials
    assert report.verdict in (PASS, INCONCLUSIVE)
    assert report.violations == []


def test_suites_pass_at_desk_bounds():
    assert check_hom_preservation(GenConfig(seed=5, trials=250)).verdict == PASS
    assert check_ep_preservation(GenConfig(seed=5, trials=250)).verdict == PASS
    assert (
        check_product_preservation(GenConfig(seed=5, trials=120, max_domain=2)).verdict == PASS
    )


def test_mutated_suites_find_counterexamples():
    mutated = GenConfig(seed=7, trials=1000, allow_implication=True)
    assert check_hom_preservation(mutated).verdict == FAIL
    assert check_ep_preservation(mutated).verdict == FAIL
    product = GenConfig(seed=7, trials=150, max_domain=2, allow_implication=True)
    assert check_product_preservation(product).verdict == FAIL


def test_violations_are_replayable():
    mutated = GenConfig(seed=7, trials=1000, allow_implication=True)
    report = check_hom_preservation(mutated)
    assert report.violations
    v = report.violations[0]
    m = structure_from_dict(v["m"])
    n = structure_from_dict(v["n"])
    phi = parse_formula(v["formula"], m.lang)
    assert evaluate(m, phi, v["assignment"]) == m.chain.top
    mapped = {var: v["mapping"][e] for var, e in v["assignment"].items()}
    assert evaluate(n, phi, mapped) == v["target_value"] != n.chain.top


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# Digests of the reports' JSON; they change only when a suite's output does.
PINNED_REPORTS = {
    ("hom", False): "4003e79a27b575f1323a7fd8d2f1d0e9663da51817742bc73c0362300320d248",
    ("ep", False): "15b6cb44cbdbe5396b71d514efde4500c46ad3c5cbc84acd8f7f39e720ee006f",
    ("product", False): "07268708572ee84dac6f6b5047c4fe981cb0b1d39da2bf95165c7cbf50f64003",
    ("closure", False): "6950932740eaf7702dce9aaf02ef32261cf0e20b1ce9f02096b00eb1c2458ba0",
    ("hom", True): "a1a5d4cd8ca001c72da3e79b58be36f11892febb8dd1da3fc8ab01dab34ffa7a",
    ("ep", True): "b7fcedb56671375aa21cfcb5b131229f3f093f83da0a894e944b60a04a5f3015",
    ("product", True): "18f42940245a7a1f3dbf295d987779e4faa656f155546b28efdabb7f76456f62",
    ("closure", True): "6950932740eaf7702dce9aaf02ef32261cf0e20b1ce9f02096b00eb1c2458ba0",
}


@pytest.mark.parametrize("suite, implication", sorted(PINNED_REPORTS))
def test_report_digests_are_pinned(suite, implication):
    if suite == "closure":
        lang = Language(predicates={"P": 1})
        cfg = GenConfig(seed=7, trials=150, allow_implication=implication)
        report = check_pp_theory_closure(cfg, [parse_formula("E x . P(x)", lang)], lang)
    elif suite == "product":
        cfg = GenConfig(seed=7, trials=150, max_domain=2, allow_implication=implication)
        report = check_product_preservation(cfg)
    else:
        check = check_hom_preservation if suite == "hom" else check_ep_preservation
        report = check(GenConfig(seed=7, trials=1000, allow_implication=implication))
    assert _digest(report.to_dict()) == PINNED_REPORTS[suite, implication]


def test_closure_suite_does_not_classify_per_structure(monkeypatch):
    # The axioms are checked once up front; each structure is then decided
    # without the solver classifying the axiom again.
    def refuse(phi):
        raise AssertionError("classified inside the trial loop")

    monkeypatch.setattr(mvmt.solver, "classify", refuse)
    lang = Language(predicates={"P": 1})
    cfg = GenConfig(seed=7, trials=150)
    report = check_pp_theory_closure(cfg, [parse_formula("E x . P(x)", lang)], lang)
    assert _digest(report.to_dict()) == PINNED_REPORTS["closure", False]


# Digests of 300 drawn formulas per connective mix; they change only when a
# generator's draws do.
PINNED_DRAWS = {
    "pp": "a2d514147dfecad6cec0e92ff7069a26d90d79d4af44dfe713e35561f28f5279",
    "ep": "73501419930a46badf397a2ecb065966b42c0100b7d50c63618113751bca24f6",
    "pp_imp": "5e8cf42bb2b11d32d88854ed7d53a634c7de02418326a63b8f9e9c90f46ed1f1",
    "ep_imp": "cd45bf673e73265294adc7ad5d7d0227dffe320c576378bc2ac61edf5d3b3a95",
    "full": "e68369cb64ec2d2e944f6a22c6fe99191ee5361db1285a0fa21aea2df0a7b9e6",
}


@pytest.mark.parametrize("mix", sorted(PINNED_DRAWS))
def test_formula_draws_are_pinned(mix):
    texts = []
    for t in range(300):
        rng = trial_rng(9, f"draws-{mix}", t)
        lang = gen_language(rng)
        free = ["u", "w"][: rng.randint(0, 2)]
        if mix == "full":
            phi = gen_full_formula(rng, lang, free, 5)
        else:
            phi = gen_pp_formula(rng, lang, free, 5, mix)
        texts.append(to_text(phi))
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == PINNED_DRAWS[mix]


def test_below_top_record_digest_is_pinned():
    record = find_below_top_counterexample(GenConfig(seed=3, trials=500))
    assert _digest(record) == "87fb9919abf24873c994ea6fff66e381d4d1014a8097b98eaf041f8745300466"


@pytest.mark.parametrize("suite, mode", [("hom", "pp_imp"), ("ep", "ep_imp")])
def test_violations_match_reference_per_homomorphism(suite, mode):
    # Re-derive each trial and decide every (valuation, homomorphism) pair
    # with the reference evaluator, one call per pair.
    cfg = GenConfig(seed=7, trials=1000, allow_implication=True)
    expected = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, suite, trial)
        chain = gen_chain(rng, cfg.max_chain)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, cfg.max_domain)
        n = gen_structure(rng, chain, lang, cfg.max_domain)
        homs = find_homomorphisms(m, n)
        if not homs:
            continue
        free = ["u", "w"][: rng.randint(0, 2)]
        phi = gen_pp_formula(rng, lang, free, cfg.max_depth, mode)
        for args in product(m.domain, repeat=len(free)):
            valuation = dict(zip(free, args))
            if ref_evaluate(m, phi, valuation) != chain.top:
                continue
            for g in homs:
                got = ref_evaluate(n, phi, {v: g[e] for v, e in valuation.items()})
                if got != chain.top:
                    expected.append({
                        "trial": trial,
                        "seed": f"{cfg.seed}:{suite}:{trial}",
                        "chain": chain_to_dict(chain),
                        "m": structure_to_dict(m),
                        "n": structure_to_dict(n),
                        "mapping": g,
                        "formula": to_text(phi),
                        "assignment": valuation,
                        "target_value": got,
                    })
    check = check_hom_preservation if suite == "hom" else check_ep_preservation
    assert expected
    assert check(cfg).violations == expected


def test_below_top_counterexample_exists():
    record = find_below_top_counterexample(GenConfig(seed=3, trials=500))
    assert record is not None
    m = structure_from_dict(record["m"])
    n = structure_from_dict(record["n"])
    phi = parse_formula(record["formula"], m.lang)
    source = evaluate(m, phi, record["assignment"])
    mapped = {var: record["mapping"][e] for var, e in record["assignment"].items()}
    target = evaluate(n, phi, mapped)
    assert 0 < source < m.chain.top
    assert target < source


def test_identity_homomorphisms_trivially_preserve():
    for t in range(80):
        rng = trial_rng(31, "identity", t)
        chain = gen_chain(rng, 4)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, 3)
        phi = gen_pp_formula(rng, lang, ["u"], 4)
        g = identity_mapping(m)
        for e in m.domain:
            if evaluate(m, phi, {"u": e}) == chain.top:
                assert evaluate(m, phi, {"u": g[e]}) == chain.top


def test_closure_suite():
    lang = Language(predicates={"P": 1})
    axioms = [parse_formula("E x . P(x)", lang)]
    report = check_pp_theory_closure(GenConfig(seed=13, trials=200), axioms, lang)
    assert report.verdict == PASS
    assert report.violations == []


def test_closure_rejects_non_pp_axioms():
    lang = Language(predicates={"P": 1})
    from mvmt import FragmentError

    with pytest.raises(FragmentError):
        check_pp_theory_closure(
            GenConfig(seed=1, trials=5), [parse_formula("A x . P(x)", lang)], lang
        )
    with pytest.raises(FragmentError):
        check_pp_theory_closure(
            GenConfig(seed=1, trials=5), [parse_formula("P(x)", lang)], lang
        )


def test_closure_empty_axioms_vacuous_pass():
    lang = Language(predicates={"P": 1})
    report = check_pp_theory_closure(GenConfig(seed=13, trials=60), [], lang)
    assert report.verdict == PASS
    assert report.violations == []


def test_inconclusive_when_premises_never_fire():
    # nothing models the bottom constant, so no closure assertion ever runs
    phi, lang = infer_formula("0")
    report = check_pp_theory_closure(GenConfig(seed=13, trials=60), [phi], lang)
    assert report.verdict == INCONCLUSIVE
    assert report.effective == 0


def brute_force_tables(n):
    # the unit law pins the top row and column; try everything else
    cells = [(i, j) for i in range(n - 1) for j in range(i, n - 1)]
    out = set()
    for values in product(range(n), repeat=len(cells)):
        table = [[0] * n for _ in range(n)]
        for j in range(n):
            table[n - 1][j] = j
            table[j][n - 1] = j
        for (i, j), v in zip(cells, values):
            table[i][j] = v
            table[j][i] = v
        try:
            make_custom(n, table)
        except ValueError:
            continue
        out.add(tuple(tuple(row) for row in table))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_brute_force(n):
    assert set(enumerate_tnorm_tables(n)) == brute_force_tables(n)


def test_enumeration_counts_frozen():
    # regression freeze; 2..4 are independently cross-checked above
    assert [len(enumerate_tnorm_tables(n)) for n in (1, 2, 3, 4, 5, 6)] == [1, 1, 2, 6, 22, 94]


def test_random_custom_chain_valid():
    for t in range(20):
        rng = trial_rng(47, "chains", t)
        n = rng.randint(2, 6)
        chain = random_custom_chain(rng, n)
        assert make_custom(n, chain.tnorm) == chain
