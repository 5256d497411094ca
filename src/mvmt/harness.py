"""Seeded random generation and machine checks of the preservation laws.

Everything here is a pure function of the configured seed: each trial draws
its own generator from ``(seed, suite, trial index)``, so reports are
reproducible run to run and every violation record carries the serialized
inputs needed to re-check it by hand.

The four checks are zero-tolerance logical assertions, not statistics:

* homomorphisms preserve top-valued pp formulas,
* every member of the weak-product family satisfies the top-value
  biconditional against its factors,
* sampled models of a pp axiom set stay models under homomorphic images and
  canonical products,
* homomorphisms preserve top-valued existential positive formulas.

One recursive generator draws every random formula from a table of
connective mixes: pp and existential positive matrices, each optionally
with implication, and the unrestricted mix of every connective and both
quantifiers.

The hom, EP and product suites ask only whether the drawn formula is top at
a tuple of elements.  They decide that with the solver's search kernel, one
query per (structure, formula) reused for every tuple, and check the laws as
lookups in these top-ness tables; ``evaluate`` gives only the target values
of violation records and the values that the below-top search compares.
The closure suite decides each axiom in each structure the same way.

Trials whose premise cannot be set up (no homomorphism between the drawn
structures, or the drawn formula never reaches the top value in the source)
are skipped and counted; a report whose effective trials fall below 30% of
the attempts is inconclusive rather than a pass.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import count, product as iproduct

from .algebra import (
    MAX_LOADED_CHAIN_SIZE, Chain, chain_to_dict, make_custom, make_godel, make_lukasiewicz,
)
from .morphisms import find_homomorphisms
from .products import direct_product, split_product_name, weak_product
from .solver import top_decider
from .structures import PredTable, Structure, evaluate, structure_to_dict
from .syntax import (
    App,
    Atom,
    Equals,
    Exists,
    Forall,
    Formula,
    FragmentError,
    Implies,
    Language,
    Or,
    StrongAnd,
    TruthConst,
    Var,
    WeakAnd,
    classify,
    strip_exists_prefix,
    to_text,
    PP,
    SENTENCE,
)

MIN_EFFECTIVE_RATIO = 0.3
MAX_PRED_ARITY = 2  # largest predicate arity in generated languages
# Deepest formula the suites draw: the "ep_imp" mix draws an atom at a third
# of the nodes, so a drawn formula's size grows like (4/3)^depth.
MAX_DEPTH = 16
# Formulas whose prefix ranges over at most this many assignments are decided
# by one evaluate call per tuple: there, building the search costs more than
# it saves.
SMALL_SPACE = 8

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_DOMAIN_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")
_FREE_POOL = ("u", "w")


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class GenConfig:
    """Bounds and seed for the generators; generation is a pure function of
    ``seed``.  ``allow_implication`` opens the formula generator to the
    implication connective, which breaks preservation and serves as the
    negative control."""

    seed: int = 0
    max_chain: int = 4
    max_domain: int = 3
    max_depth: int = 4
    trials: int = 200
    allow_implication: bool = False

    def __post_init__(self):
        for name in ("max_domain", "max_depth", "trials"):
            if getattr(self, name) < 1:
                raise HarnessError(f"{name} must be at least 1")
        # The generators would silently reinterpret bounds outside these
        # ranges, and a huge chain's tables would not fit in memory.
        if self.max_domain > len(_DOMAIN_POOL):
            raise HarnessError(f"max_domain must be at most {len(_DOMAIN_POOL)}")
        if not 2 <= self.max_chain <= MAX_LOADED_CHAIN_SIZE:
            raise HarnessError(f"max_chain must be between 2 and {MAX_LOADED_CHAIN_SIZE}")
        if self.max_depth > MAX_DEPTH:
            raise HarnessError(f"max_depth must be at most {MAX_DEPTH}")


@dataclass
class CheckReport:
    """Outcome of one suite: attempted and effective trial counts, the
    violation records (each self-contained for replay), and the verdict."""

    suite: str
    trials: int
    effective: int
    skipped: int
    violations: list[dict] = field(default_factory=list)
    verdict: str = PASS

    def to_dict(self) -> dict:
        return asdict(self)


def _finish(suite: str, trials: int, effective: int, violations: list[dict]) -> CheckReport:
    if violations:
        verdict = FAIL
    elif trials == 0 or effective / trials < MIN_EFFECTIVE_RATIO:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return CheckReport(
        suite=suite,
        trials=trials,
        effective=effective,
        skipped=trials - effective,
        violations=violations,
        verdict=verdict,
    )


def trial_rng(seed: int, suite: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{suite}:{trial}")


def _record(cfg: GenConfig, suite: str, trial: int, chain: Chain, **fields) -> dict:
    """A self-contained violation record: the trial, the seed string that
    replays it, the serialized chain, and the suite's own fields."""
    seed = f"{cfg.seed}:{suite}:{trial}"
    return {"trial": trial, "seed": seed, "chain": chain_to_dict(chain), **fields}


# --- random algebras ------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_tnorm_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All valid conjunction tables on the n-element chain, n <= 6.

    Backtracks over the free upper-triangle cells with monotonicity bounds
    (a cell can never exceed min of its coordinates, nor drop below its
    neighbors), validating each completed table in full.
    """
    if n > 6:
        raise HarnessError("table enumeration is only intended for n <= 6")
    table = [[0] * n for _ in range(n)]
    for j in range(n):
        table[n - 1][j] = j
        table[j][n - 1] = j
    cells = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    found: list[tuple[tuple[int, ...], ...]] = []

    def fill(k: int) -> None:
        if k == len(cells):
            candidate = tuple(tuple(row) for row in table)
            try:
                make_custom(n, candidate)
            except ValueError:
                return
            found.append(candidate)
            return
        i, j = cells[k]
        lo = max(table[i - 1][j], table[i][j - 1])
        hi = min(i, j)
        for v in range(lo, hi + 1):
            table[i][j] = v
            table[j][i] = v
            fill(k + 1)

    fill(0)
    return tuple(found)


def random_custom_chain(rng: random.Random, n: int) -> Chain:
    """A uniformly drawn valid chain of size ``n`` (n <= 6)."""
    return make_custom(n, rng.choice(enumerate_tnorm_tables(n)))


def gen_chain(rng: random.Random, max_size: int) -> Chain:
    size = rng.randint(2, max(2, max_size))
    return make_lukasiewicz(size) if rng.random() < 0.5 else make_godel(size)


# --- random languages and structures ----------------------------------------------

def gen_language(rng: random.Random) -> Language:
    count = rng.randint(1, 3)
    names = ("P", "Q", "R")[:count]
    predicates = {}
    for i, name in enumerate(names):
        predicates[name] = rng.randint(1, MAX_PRED_ARITY) if i == 0 else rng.randint(0, MAX_PRED_ARITY)
    functions: dict[str, int] = {}
    if rng.random() < 0.3:
        functions["c"] = 0
    if rng.random() < 0.3:
        functions["f"] = 1
    return Language(predicates=predicates, functions=functions)


def _gen_value(rng: random.Random, chain: Chain) -> int:
    # Bias toward top so preservation premises fire often enough.
    if rng.random() < 0.4:
        return chain.top
    return rng.randrange(chain.size)


def gen_structure(rng: random.Random, chain: Chain, lang: Language, max_domain: int) -> Structure:
    size = rng.randint(1, max_domain)
    domain = _DOMAIN_POOL[:size]
    predicates = {}
    for name, arity in lang.predicates.items():
        entries = {}
        for args in iproduct(domain, repeat=arity):
            entries[args] = _gen_value(rng, chain)
        predicates[name] = PredTable(arity=arity, default=0, entries=entries)
    functions = {}
    constants = {}
    for name, arity in lang.functions.items():
        if arity == 0:
            constants[name] = rng.choice(domain)
        else:
            functions[name] = {
                args: rng.choice(domain) for args in iproduct(domain, repeat=arity)
            }
    return Structure(
        chain=chain,
        lang=lang,
        domain=domain,
        predicates=predicates,
        functions=functions,
        constants=constants,
    )


# --- random formulas ----------------------------------------------------------------

def _gen_term(rng: random.Random, lang: Language, scope: list[str]):
    constants = [f for f, ar in lang.functions.items() if ar == 0]
    unary = [f for f, ar in lang.functions.items() if ar == 1]
    roll = rng.random()
    if scope and (roll < 0.7 or not constants):
        base = Var(rng.choice(scope))
    else:
        base = App(rng.choice(constants))
    if unary and rng.random() < 0.2:
        return App(rng.choice(unary), (base,))
    return base


def _gen_atom(rng: random.Random, lang: Language, scope: list[str]) -> Formula:
    roll = rng.random()
    has_terms = bool(scope) or any(ar == 0 for ar in lang.functions.values())
    if roll < 0.15 and has_terms:
        return Equals(_gen_term(rng, lang, scope), _gen_term(rng, lang, scope))
    if roll < 0.2:
        return TruthConst(None)
    candidates = [(p, ar) for p, ar in lang.predicates.items() if ar == 0 or has_terms]
    if not candidates:
        return TruthConst(None)
    pred, arity = rng.choice(candidates)
    return Atom(pred, tuple(_gen_term(rng, lang, scope) for _ in range(arity)))


# Each mix lists the formula generator's nodes and weights in draw order.  The
# "_imp" mixes draw implication often enough for the negative control to fail
# quickly; "full" exercises every connective and both quantifiers.
_MIXES = {
    "pp": ((Atom, 0.4), (StrongAnd, 0.2), (WeakAnd, 0.2)),
    "ep": ((Atom, 0.4), (StrongAnd, 0.2), (WeakAnd, 0.2), (Or, 0.1)),
    "pp_imp": ((Atom, 0.4), (StrongAnd, 0.2), (WeakAnd, 0.2), (Implies, 0.3)),
    "ep_imp": ((Atom, 0.4), (StrongAnd, 0.2), (WeakAnd, 0.2), (Or, 0.1), (Implies, 0.3)),
    "full": (
        (Atom, 0.35), (StrongAnd, 0.15), (WeakAnd, 0.15), (Or, 0.10), (Implies, 0.10),
        (Exists, 0.075), (Forall, 0.075),
    ),
}


def _gen_formula(rng, lang: Language, scope: list[str], depth: int, mix, binders) -> Formula:
    """A formula of at most ``depth`` connective levels over the nodes of
    ``mix``; each quantifier binds the next ``b{k}`` from ``binders``."""
    if depth <= 0:
        return _gen_atom(rng, lang, scope)
    roll = rng.random() * sum(w for _, w in mix)
    for node, w in mix:
        roll -= w
        if roll <= 0:
            break
    if node is Atom:
        return _gen_atom(rng, lang, scope)
    if node in (Exists, Forall):
        name = f"b{next(binders)}"
        return node(name, _gen_formula(rng, lang, scope + [name], depth - 1, mix, binders))
    return node(
        _gen_formula(rng, lang, scope, depth - 1, mix, binders),
        _gen_formula(rng, lang, scope, depth - 1, mix, binders),
    )


def gen_pp_formula(
    rng: random.Random,
    lang: Language,
    free: list[str],
    max_depth: int,
    mode: str = "pp",
) -> Formula:
    """A prefix-form formula: an existential block over a matrix drawn with
    the configured connective mix.  ``mode`` is "pp", "ep", or either with
    an "_imp" suffix to admit implication (the negative control)."""
    bound_count = rng.choices((0, 1, 2, 3), weights=(0.2, 0.35, 0.3, 0.15))[0]
    has_constants = any(ar == 0 for ar in lang.functions.values())
    if bound_count == 0 and not free and not has_constants:
        bound_count = 1
    bound = [f"x{i}" for i in range(1, bound_count + 1)]
    matrix = _gen_formula(rng, lang, bound + list(free), max_depth, _MIXES[mode], None)
    for name in reversed(bound):
        matrix = Exists(name, matrix)
    return matrix


def gen_ep_formula(rng: random.Random, lang: Language, free: list[str], max_depth: int) -> Formula:
    return gen_pp_formula(rng, lang, free, max_depth, mode="ep")


def gen_full_formula(rng: random.Random, lang: Language, free: list[str], max_depth: int) -> Formula:
    """An unrestricted formula over every connective and both quantifiers,
    for exercising the evaluator itself."""
    return _gen_formula(rng, lang, list(free), max_depth, _MIXES["full"], count(1))


# --- check suites ---------------------------------------------------------------------

def _values(struct: Structure, phi: Formula, free: list[str]) -> dict[tuple, int]:
    """The value table of ``phi`` in ``struct``: each tuple of elements for
    ``free``, in domain order, mapped to the formula's value there."""
    return {
        args: evaluate(struct, phi, dict(zip(free, args)))
        for args in iproduct(struct.domain, repeat=len(free))
    }


def _top_test(struct: Structure, phi: Formula, free: list[str]):
    """A function from a tuple of elements for ``free`` to whether ``phi``
    takes the top value there: the solver's top decider, or ``evaluate``
    when the prefix ranges over at most ``SMALL_SPACE`` assignments."""
    top = struct.chain.top
    prefix, _ = strip_exists_prefix(phi)
    if len(struct.domain) ** len(prefix) <= SMALL_SPACE:
        return lambda args: evaluate(struct, phi, dict(zip(free, args))) == top
    decide = top_decider(struct, phi, free)
    return lambda args: decide(args) is not None


def _tops(struct: Structure, phi: Formula, free: list[str]) -> dict[tuple, bool]:
    """The top-ness table of ``phi`` in ``struct``: each tuple of elements
    for ``free``, in domain order, mapped to whether the formula is top."""
    is_top = _top_test(struct, phi, free)
    return {args: is_top(args) for args in iproduct(struct.domain, repeat=len(free))}


def _preservation_suite(cfg: GenConfig, suite: str, mode: str) -> CheckReport:
    """Shared core of the preservation suites: per trial, assert that every
    homomorphism between the drawn structures maps each tuple at which the
    drawn formula is top in the source to one at which it is top in the
    target.  Each image tuple is decided once, and evaluated only for the
    record of a violation.  A trial is effective when at least one premise
    tuple is top."""
    violations: list[dict] = []
    effective = 0
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, suite, trial)
        chain = gen_chain(rng, cfg.max_chain)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, cfg.max_domain)
        n = gen_structure(rng, chain, lang, cfg.max_domain)
        homs = find_homomorphisms(m, n)
        if not homs:
            continue
        free = list(_FREE_POOL[: rng.randint(0, 2)])
        phi = gen_pp_formula(rng, lang, free, cfg.max_depth, mode)
        premises = [args for args, top in _tops(m, phi, free).items() if top]
        if not premises:
            continue
        effective += 1
        is_top, decided = _top_test(n, phi, free), {}
        for args, g in iproduct(premises, homs):
            image = tuple(g[e] for e in args)
            if image not in decided:
                decided[image] = is_top(image)
            if not decided[image]:
                violations.append(_record(
                    cfg, suite, trial, chain,
                    m=structure_to_dict(m),
                    n=structure_to_dict(n),
                    mapping=g,
                    formula=to_text(phi),
                    assignment=dict(zip(free, args)),
                    target_value=evaluate(n, phi, dict(zip(free, image))),
                ))
    return _finish(suite, cfg.trials, effective, violations)


def check_hom_preservation(cfg: GenConfig) -> CheckReport:
    """Draw structure pairs and prefix-form formulas; assert that every
    homomorphism carries every top-valued instance to a top-valued one."""
    return _preservation_suite(cfg, "hom", "pp_imp" if cfg.allow_implication else "pp")


def check_ep_preservation(cfg: GenConfig) -> CheckReport:
    """The preservation suite over the existential positive mix."""
    return _preservation_suite(cfg, "ep", "ep_imp" if cfg.allow_implication else "ep")


def check_product_preservation(cfg: GenConfig) -> CheckReport:
    """Build the canonical and a scrambled weak product of 2 or 3 factors
    and assert, tuple by tuple, both directions of the top-value
    biconditional between the product and its coordinates."""
    violations: list[dict] = []
    effective, mode = 0, "pp_imp" if cfg.allow_implication else "pp"
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, "product", trial)
        chain = gen_chain(rng, cfg.max_chain)
        lang = gen_language(rng)
        count = rng.randint(2, 3)
        factors = [gen_structure(rng, chain, lang, cfg.max_domain) for _ in range(count)]
        free = list(_FREE_POOL[: rng.randint(0, 1)])
        phi = gen_pp_formula(rng, lang, free, cfg.max_depth, mode)
        products = {
            "min": direct_product(factors),
            "scrambled": weak_product(factors, policy="scrambled", seed=trial),
        }
        tables = [_tops(f, phi, free) for f in factors]
        fired = False
        for policy, prod in products.items():
            for args, in_product in _tops(prod, phi, free).items():
                coords = [split_product_name(e) for e in args]
                per_factor = all(
                    table[tuple(c[i] for c in coords)] for i, table in enumerate(tables)
                )
                if in_product or per_factor:
                    fired = True
                if in_product != per_factor:
                    violations.append(_record(
                        cfg, "product", trial, chain,
                        policy=policy,
                        factors=[structure_to_dict(s) for s in factors],
                        formula=to_text(phi),
                        assignment=dict(zip(free, args)),
                        product_top=in_product,
                        factors_top=per_factor,
                    ))
        if fired:
            effective += 1
    return _finish("product", cfg.trials, effective, violations)


def _models(struct: Structure, axioms: list[Formula]) -> bool:
    return all(_top_test(struct, phi, [])(()) for phi in axioms)


def check_pp_theory_closure(cfg: GenConfig, axioms: list[Formula], lang: Language) -> CheckReport:
    """Sample structures over ``lang``; whenever drawn models of the axioms
    admit a homomorphism to another drawn structure or a canonical product,
    assert the image and the product are models too."""
    for phi in axioms:
        tags = classify(phi)
        if PP not in tags:
            raise FragmentError(f"axiom is not a pp formula: {to_text(phi)}")
        if SENTENCE not in tags:
            raise FragmentError(f"axiom is not a sentence: {to_text(phi)}")
    violations: list[dict] = []
    effective = 0
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, "closure", trial)
        chain = gen_chain(rng, cfg.max_chain)
        first = gen_structure(rng, chain, lang, cfg.max_domain)
        second = gen_structure(rng, chain, lang, cfg.max_domain)
        fired = False
        drawn = [(first, _models(first, axioms)), (second, _models(second, axioms))]
        if all(model for _, model in drawn):
            prod = direct_product([first, second])
            fired = True
            if not _models(prod, axioms):
                violations.append(_record(
                    cfg, "closure", trial, chain,
                    kind="product",
                    factors=[structure_to_dict(first), structure_to_dict(second)],
                    axioms=[to_text(a) for a in axioms],
                ))
        for (source, source_model), (target, target_model) in (drawn, drawn[::-1]):
            if not source_model:
                continue
            homs = find_homomorphisms(source, target, limit=1)
            if not homs:
                continue
            fired = True
            if not target_model:
                violations.append(_record(
                    cfg, "closure", trial, chain,
                    kind="homomorphism",
                    m=structure_to_dict(source),
                    n=structure_to_dict(target),
                    mapping=homs[0],
                    axioms=[to_text(a) for a in axioms],
                ))
        if fired:
            effective += 1
    return _finish("closure", cfg.trials, effective, violations)


def find_below_top_counterexample(cfg: GenConfig) -> dict | None:
    """A concrete instance showing that preservation does not extend to
    values below the top: a homomorphism and a pp formula whose source value
    is positive but strictly above its target value."""
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, "below-top", trial)
        chain = gen_chain(rng, cfg.max_chain)
        lang = gen_language(rng)
        m = gen_structure(rng, chain, lang, cfg.max_domain)
        n = gen_structure(rng, chain, lang, cfg.max_domain)
        homs = find_homomorphisms(m, n, limit=1)
        if not homs:
            continue
        g = homs[0]
        free = list(_FREE_POOL[: rng.randint(0, 2)])
        phi = gen_pp_formula(rng, lang, free, cfg.max_depth)
        image = _values(n, phi, free)
        for args, source in _values(m, phi, free).items():
            if source == chain.top or source == 0:
                continue
            target = image[tuple(g[e] for e in args)]
            if target < source:
                return _record(
                    cfg, "below-top", trial, chain,
                    m=structure_to_dict(m),
                    n=structure_to_dict(n),
                    mapping=g,
                    formula=to_text(phi),
                    assignment=dict(zip(free, args)),
                    source_value=source,
                    target_value=target,
                )
    return None


SUITES = {
    "hom": check_hom_preservation,
    "product": check_product_preservation,
    "ep": check_ep_preservation,
}
