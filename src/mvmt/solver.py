"""Search-based evaluation of pp and existential positive sentences.

A pp sentence is a constraint instance: the existential prefix lists the
variables, the matrix atoms the constraints.  One backtracking kernel,
:func:`_backtrack`, searches such instances above a value floor:
:func:`solve_pp` as branch and bound, :func:`decide_pp_top` with the floor
just below top (a pp matrix is top exactly when every atom is), and
:func:`mvmt.morphisms.find_homomorphisms` on the canonical query of the
source structure, since finding a homomorphism is the same problem (Chandra
and Merlin).  Existential positive sentences reduce to the maximum over
their pp disjuncts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import itemgetter

from .structures import Structure, evaluate
from .syntax import (
    Atom,
    Equals,
    FragmentError,
    Formula,
    StrongAnd,
    TruthConst,
    WeakAnd,
    atoms_of,
    classify,
    free_vars,
    strip_exists_prefix,
    to_text,
    EXISTENTIAL_POSITIVE,
    PP,
    SENTENCE,
    ep_to_pp_disjunction,
)


@dataclass
class SolveResult:
    """Outcome of a solve: the exact value, a prefix assignment attaining
    it, whether that value is the top, and (for existential positive input)
    which pp disjunct attained the maximum."""

    value: int
    witness: dict[str, str]
    decided_top: bool
    disjunct: int | None = None


def _require_sentence(phi: Formula, fragment: str, described: str) -> None:
    tags = classify(phi)
    if fragment not in tags:
        raise FragmentError(f"not {described}: {to_text(phi)}")
    if SENTENCE not in tags:
        raise FragmentError(f"not a sentence: free variables {sorted(free_vars(phi))}")


def _top_tuple_count(struct: Structure, atom: Formula) -> int:
    """How many argument tuples give this atom the top value; the search
    assigns variables with the scarcest support first."""
    if isinstance(atom, Equals):
        return len(struct.domain)
    if isinstance(atom, TruthConst):
        return len(struct.domain) if atom.element in (None, struct.chain.top) else 0
    assert isinstance(atom, Atom)
    if atom.pred in struct.lang.algebra_constants:
        return 1 if struct.lang.algebra_constants[atom.pred] == struct.chain.top else 0
    table = struct.predicates[atom.pred]
    total = len(struct.domain) ** table.arity
    listed_top = sum(1 for v in table.entries.values() if v == struct.chain.top)
    if table.default == struct.chain.top:
        return total - len(table.entries) + listed_top
    return listed_top


def _variable_order(struct: Structure, prefix: list[str], matrix: Formula) -> list[str]:
    scores: dict[str, int] = {}
    for atom in atoms_of(matrix):
        support = _top_tuple_count(struct, atom)
        for name in free_vars(atom):
            scores[name] = min(scores.get(name, support), support)
    unconstrained = float("inf")
    return sorted(prefix, key=lambda v: (scores.get(v, unconstrained), v))


def _backtrack(domain, order, constraints, top: int, floor: int, bound=None):
    """Assign the variables in ``order`` to ``domain`` elements, both in
    order, depth first.  ``constraints`` holds ``(variables, test, data)``
    triples; ``test(env, data)`` is the constraint's chain value, called only
    at the depth where the last of its ``variables`` is assigned.  A branch
    is cut when a tested value is at most ``floor``, or when ``bound(values)``
    is; ``values`` holds the constraint values, top while untested.

    Yields ``(env, values)`` per surviving complete assignment; both are
    live, so copy what you keep.  With a bound, each solution raises the
    floor to its bound, so solutions come in strictly increasing value.
    """
    depth_of = {v: depth for depth, v in enumerate(order, 1)}
    checks: list[list] = [[] for _ in range(len(order) + 1)]
    for index, (variables, test, data) in enumerate(constraints):
        checks[max([depth_of[v] for v in variables], default=0)].append((index, test, data))
    values = [top] * len(constraints)
    env: dict = {}

    def admissible(depth: int) -> bool:
        for index, test, data in checks[depth]:
            value = test(env, data)
            if value <= floor:
                return False
            values[index] = value
        return bound is None or bound(values) > floor

    tried = [0] * len(order)  # per variable, how many domain elements were tried
    depth = 0 if admissible(0) else -1  # number of variables assigned
    while depth >= 0:
        if depth == len(order):
            yield env, values
            if bound is not None:
                floor = bound(values)
            depth -= 1
        elif tried[depth] == len(domain):
            tried[depth] = 0
            for index, _, _ in checks[depth + 1]:
                values[index] = top
            depth -= 1
        else:
            env[order[depth]] = domain[tried[depth]]
            tried[depth] += 1
            if admissible(depth + 1):
                depth += 1


def _evaluate_atom(env, data) -> int:
    struct, atom = data
    return evaluate(struct, atom, env)


def _matrix_bound(chain, matrix: Formula):
    """A pp matrix's value as a function of its atoms' values in
    :func:`atoms_of` order; monotone, so with untested atoms at top it
    bounds every completion of a partial assignment."""
    leaves = count()
    tnorm = chain.tnorm

    def build(f: Formula):
        if isinstance(f, WeakAnd):
            left, right = build(f.left), build(f.right)
            return lambda values: min(left(values), right(values))
        if isinstance(f, StrongAnd):
            left, right = build(f.left), build(f.right)
            return lambda values: tnorm[left(values)][right(values)]
        return itemgetter(next(leaves))

    return build(matrix)


def _pp_query(struct: Structure, phi: Formula):
    """Prefix, matrix, variable order and atom constraints of a pp sentence."""
    _require_sentence(phi, PP, "a pp formula")
    prefix, matrix = strip_exists_prefix(phi)
    constraints = [(free_vars(a), _evaluate_atom, (struct, a)) for a in atoms_of(matrix)]
    return prefix, matrix, _variable_order(struct, prefix, matrix), constraints


def solve_pp(struct: Structure, phi: Formula) -> SolveResult:
    """Exact value of a pp sentence with a witnessing prefix assignment.

    Branch and bound in a deterministic order: variables sorted by scarcest
    top support (ties by name), domain elements in domain order.  The
    witness is the first assignment in that order attaining the value.
    """
    prefix, matrix, order, constraints = _pp_query(struct, phi)
    top = struct.chain.top
    bound = _matrix_bound(struct.chain, matrix)
    best, witness = -1, {}
    for env, values in _backtrack(struct.domain, order, constraints, top, -1, bound):
        best, witness = bound(values), {v: env[v] for v in prefix}
        if best == top:
            break
    return SolveResult(value=best, witness=witness, decided_top=best == top)


def decide_pp_top(struct: Structure, phi: Formula) -> dict[str, str] | None:
    """Witness making a pp sentence take value top, or None.

    Prunes a branch as soon as any fully instantiated atom falls below top,
    without computing exact values.
    """
    prefix, _, order, constraints = _pp_query(struct, phi)
    top = struct.chain.top
    for env, _ in _backtrack(struct.domain, order, constraints, top, top - 1):
        return {v: env[v] for v in prefix}
    return None


def solve_ep(struct: Structure, phi: Formula) -> SolveResult:
    """Maximum over the pp disjuncts of an existential positive sentence."""
    _require_sentence(phi, EXISTENTIAL_POSITIVE, "an existential positive formula")
    disjuncts = ep_to_pp_disjunction(phi)
    best: SolveResult | None = None
    best_index = 0
    for index, d in enumerate(disjuncts):
        r = solve_pp(struct, d)
        if best is None or r.value > best.value:
            best, best_index = r, index
            if best.value == struct.chain.top:
                break
    assert best is not None
    return SolveResult(
        value=best.value, witness=best.witness, decided_top=best.decided_top, disjunct=best_index
    )
