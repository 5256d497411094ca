"""Search-based evaluation of pp and existential positive sentences.

A pp sentence is a constraint instance: the existential prefix lists the
variables, the matrix atoms the constraints.  One backtracking kernel,
:func:`_kernel`, plans the search of such a query once and returns it; each
run searches above a value floor.  :func:`solve_pp` first searches from just
below top, where top-ness is the crisp constraint problem of the top-sets,
and runs branch and bound from the bottom only when top is out of reach;
:func:`mvmt.morphisms.find_homomorphisms` searches the canonical query of
the source structure, since finding a homomorphism is the same problem
(Chandra and Merlin).  An existential positive sentence is searched the same
way by :func:`solve_ep`: its matrix bound takes ``\\/`` as the max of its
children, so no expansion into pp disjuncts is needed.

:func:`top_decider` plans once per formula and reruns the search for each
tuple of values of its free variables, with the floor just below top (a pp
matrix is top exactly when every atom is); the check suites read top-ness
from it, and :func:`decide_pp_top` is its sentence case.  The kernel checks
forward: it tests a cutting constraint (one outside any ``\\/``) as soon as
all but the last of its variables are assigned (unless the last is the next
to assign), once per element left for the last, and drops the elements that
fail it.  Only a search from below top - 1 reads the kept value back.

A predicate atom over variables is tested by :func:`_atom_value`, one
lookup in its table; the homomorphism search tests every fact so, a function
or constant in its graph.  The other leaves of the matrix, such as
implications and atoms over function terms, are valued by :func:`evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .structures import (
    EvaluationError,
    Structure,
    _atom_table,
    _check_application,
    _check_valuation,
    evaluate,
)
from .syntax import (
    App,
    Atom,
    Equals,
    FragmentError,
    Formula,
    Or,
    StrongAnd,
    Var,
    WeakAnd,
    _levels,
    classify,
    free_vars,
    strip_exists_prefix,
    to_text,
    EXISTENTIAL_POSITIVE,
    PP,
    SENTENCE,
    ep_to_pp_disjunction,  # noqa: F401  unused; tracers wrap mvmt.solver.ep_to_pp_disjunction
)


@dataclass
class SolveResult:
    """Outcome of a solve: the exact value, the first prefix assignment in
    search order attaining it, and whether that value is the top."""

    value: int
    witness: dict[str, str]
    decided_top: bool


def _require_sentence(phi: Formula, fragment: str, described: str) -> None:
    tags = classify(phi)
    if fragment not in tags:
        raise FragmentError(f"not {described}: {to_text(phi)}")
    if SENTENCE not in tags:
        raise FragmentError(f"not a sentence: free variables {sorted(free_vars(phi))}")


def _kernel(order, constraints, top, floor, bound=None):
    """Plan the search of one query and return it as ``search(domain,
    env)``, which assigns the variables in ``order`` to ``domain`` elements,
    both in order, depth first, starting from ``env`` (the values of the
    variables outside ``order``).  ``constraints`` holds ``(variables, test,
    data, cuts)`` tuples; ``test(env, data)`` is the constraint's chain
    value, called once the last of its ``variables`` in ``order`` is
    assigned, or at depth 0 when it has none there.  A branch is cut when a
    tested value is at most the floor and ``cuts`` is true, or when
    ``bound(values)`` is; ``values`` holds the constraint values, top while
    untested.  Each search starts at ``floor`` and raises only its own copy.

    The search checks forward (Haralick and Elliott).  Take a cutting
    constraint whose last variable in ``order`` lies more than one depth
    below the one before it (below depth 0 if it has one variable there).
    Once that earlier variable is assigned, the constraint is tested for
    each element still alive for the last, and the elements valued at most
    the floor are dropped; a branch that leaves a variable no element is
    cut.  The floor never falls, so a dropped element would have been cut
    there too: the solutions and their order do not change; but ``env``
    gets those last variables early, so its key order is not the order of
    assignment.  The kept value is read back at the last variable's depth
    only when ``floor`` is below ``top - 1``, as only then can a solution
    raise the floor past it; such a plan keeps the values it read ahead, so
    its searches (branch and bound) must not interleave.  From ``top - 1``
    the floor can only rise to top, and then nothing is admissible; if every
    constraint also cuts, the plan drops the bound, as every leaf kept is
    top and so is the matrix.

    A search yields ``(env, values)`` per surviving complete assignment;
    both are live, so copy what you keep.  With a bound, each solution
    raises the floor to its bound, so solutions come in strictly increasing
    value.
    """
    bound = None if floor == top - 1 and all(c[3] for c in constraints) else bound
    depth_of = {v: depth for depth, v in enumerate(order, 1)}
    checks: list[list] = [[] for _ in range(len(order) + 1)]
    filters: list[list] = [[] for _ in range(len(order) + 1)]  # the tests ahead, per depth
    for index, (variables, test, data, cuts) in enumerate(constraints):
        ahead, at = [0, 0, *sorted({depth_of.get(v, 0) for v in variables})][-2:]
        if at > ahead + 1 and cuts:
            tested = {} if floor < top - 1 else None
            filters[ahead].append((at - 1, test, data, tested))
            if tested is None:
                continue
            test, data = _read, (tested, order[at - 1])
        checks[at].append((index, test, data, cuts))

    def search(domain, env: dict):
        level = floor  # this search's floor; a bound raises it
        values = [top] * len(constraints)
        alive: list = [domain] * len(order)  # per variable, the elements not ruled out
        trail: list[tuple] = []  # (depth, position, alive elements it replaced), per filtering

        def admissible(depth: int) -> bool:
            for index, test, data, cuts in checks[depth]:
                value = test(env, data)
                if value <= level and cuts:
                    return False
                values[index] = value
            for position, test, data, tested in filters[depth]:
                name, kept = order[position], []
                for element in alive[position]:
                    env[name] = element
                    value = test(env, data)
                    if value > level:
                        kept.append(element)
                        if tested is not None:
                            tested[element] = value
                if len(kept) < len(alive[position]):
                    trail.append((depth, position, alive[position]))
                    alive[position] = kept
                    if not kept:
                        return False
            return bound is None or bound(values) > level

        tried = [0] * len(order)  # per variable, how many alive elements were tried
        depth = 0 if admissible(0) else -1  # number of variables assigned
        while depth >= 0:
            if depth == len(order):
                yield env, values
                if bound is not None:
                    level = bound(values)
                depth -= 1
                continue
            while trail and trail[-1][0] > depth:  # undo the filtering by the last element tried
                _, position, previous = trail.pop()
                alive[position] = previous
            if tried[depth] == len(alive[depth]):
                tried[depth] = 0
                for index, _, _, _ in checks[depth + 1]:
                    values[index] = top
                depth -= 1
            else:
                env[order[depth]] = alive[depth][tried[depth]]
                tried[depth] += 1
                if admissible(depth + 1):
                    depth += 1

    return search


def _read(env, data) -> int:
    """A constraint's value tested ahead, read at its deepest variable."""
    tested, name = data
    return tested[env[name]]


def _atom_value(env, data) -> int:
    entries, default, args = data
    return entries.get(tuple([env[a] for a in args]), default)


def _evaluate_leaf(env, data) -> int:
    struct, leaf = data
    return evaluate(struct, leaf, env)


def _query(struct: Structure, phi: Formula):
    """Prefix, variable order, leaf constraints and matrix bound, from one
    walk over the matrix.

    The matrix is read as ``&``, ``/\\`` and ``\\/`` over leaves: atoms,
    and any other subformula (such as an implication), which
    :func:`evaluate` values.  An atom leaf and every function term in a
    leaf are checked against ``struct`` here, so a malformed one raises as
    :func:`evaluate` would, whatever the search reaches.  The order sorts
    the prefix by each variable's score, then by name.  The score is the
    least support among the leaves where the variable occurs, read where the
    leaf's test is built: the domain size for an equality, the number of top
    tuples for a predicate table atom; other leaves do not score, and
    unscored variables come last.

    The walk appends each leaf's constraint at the index that the bound
    reads the leaf's value from.  The bound is monotone, so with untested
    leaves at top it bounds every completion of a partial assignment.  A
    constraint cuts when its leaf lies outside any ``\\/``: there the matrix
    is at most the leaf's value, so one leaf at or below the floor cuts the
    branch; under a ``\\/`` another disjunct may still exceed it.
    """
    prefix, matrix = strip_exists_prefix(phi)
    tnorm = struct.chain.tnorm
    constraints: list[tuple] = []
    scores: dict[str, int] = {}
    supports: dict[str, int] = {}  # top tuples per predicate name

    def build(f: Formula, in_or: bool):
        if isinstance(f, WeakAnd):
            left, right = build(f.left, in_or), build(f.right, in_or)
            return lambda values: min(left(values), right(values))
        if isinstance(f, StrongAnd):
            left, right = build(f.left, in_or), build(f.right, in_or)
            return lambda values: tnorm[left(values)][right(values)]
        if isinstance(f, Or):
            left, right = build(f.left, True), build(f.right, True)
            return lambda values: max(left(values), right(values))
        variables = free_vars(f)
        test, data, support = _evaluate_leaf, (struct, f), float("inf")
        table = _atom_table(struct, f) if isinstance(f, Atom) else None  # raises as evaluate would
        if isinstance(f, Equals):
            support = len(struct.domain)
        elif table is not None:
            if f.pred not in supports:
                supports[f.pred] = len(table.top_tuples(struct.domain, struct.chain.top))
            support = supports[f.pred]
            # read the table directly where evaluate would read it at the variables' values
            args = tuple([a.name for a in f.args if isinstance(a, Var)])
            if len(args) == len(f.args):
                test, data = _atom_value, (table.entries, table.default, args)
        if test is _evaluate_leaf:  # its function terms, checked as eval_term would
            for term in [n for level in _levels(f) for n in level if isinstance(n, App)]:
                _check_application(struct, term)
        for name in variables:
            scores[name] = min(scores.get(name, support), support)
        constraints.append((variables, test, data, not in_or))
        return itemgetter(len(constraints) - 1)

    bound = build(matrix, False)
    order = sorted(prefix, key=lambda v: (scores.get(v, float("inf")), v))
    return prefix, order, constraints, bound


def _solve(struct: Structure, phi: Formula, fragment: str, described: str) -> SolveResult:
    """The search behind :func:`solve_pp` and :func:`solve_ep`: from the
    floor just below top, as :func:`top_decider` searches, and only when that
    finds nothing, branch and bound from -1.  Both take the assignments in
    one order, and branch and bound keeps its floor below top until it
    reaches the first top one, so the witness is the same either way."""
    _require_sentence(phi, fragment, described)
    prefix, order, constraints, bound = _query(struct, phi)
    top = struct.chain.top
    for env, _ in _kernel(order, constraints, top, top - 1, bound)(struct.domain, {}):
        return SolveResult(value=top, witness={v: env[v] for v in prefix}, decided_top=True)
    best, witness = -1, {}
    for env, values in _kernel(order, constraints, top, -1, bound)(struct.domain, {}):
        best, witness = bound(values), {v: env[v] for v in prefix}
    return SolveResult(value=best, witness=witness, decided_top=False)


def solve_pp(struct: Structure, phi: Formula) -> SolveResult:
    """Exact value of a pp sentence with a witnessing prefix assignment.

    A deterministic order: variables sorted by scarcest top support (ties by
    name), domain elements in domain order.  The search first looks for an
    assignment of value top, cutting each branch at its first atom that is
    not top, and only when there is none runs branch and bound.  The
    witness is the first assignment in that order attaining the value.
    """
    return _solve(struct, phi, PP, "a pp formula")


def top_decider(struct: Structure, phi: Formula, free=()):
    """A function from a tuple of elements for the variables ``free`` to
    the first prefix assignment, in search order, under which ``phi`` takes
    the value top there, or None when there is none.

    The query and its search plan are built once, and the search is run
    again for each tuple with the floor just below top: a branch is cut at
    the first leaf outside any ``\\/`` that is not top.  A prefix variable
    named in ``free`` is a :class:`FragmentError`; a name given twice in
    ``free``, a free variable missing from it, a tuple whose length is not
    ``len(free)``, or an element outside the domain, an :class:`EvaluationError`.
    """
    if len(set(free)) < len(free):
        raise EvaluationError(f"free variables {list(free)} name a variable twice")
    prefix, order, constraints, bound = _query(struct, phi)
    shadowed = sorted(set(prefix) & set(free))
    if shadowed:
        raise FragmentError(f"prefix variables {shadowed} shadow free variables")
    unbound = sorted(set().union(*[c[0] for c in constraints]) - set(prefix) - set(free))
    if unbound:
        raise EvaluationError(f"unbound variable {unbound[0]!r}")
    domain, top = struct.domain, struct.chain.top
    search = _kernel(order, constraints, top, top - 1, bound)

    def decide(args) -> dict[str, str] | None:
        if len(args) != len(free):
            raise EvaluationError(f"expected {len(free)} element(s) for {list(free)}, got {len(args)}")
        valuation = dict(zip(free, args))
        _check_valuation(struct, valuation)
        for env, _ in search(domain, valuation):
            return {v: env[v] for v in prefix}
        return None

    return decide


def decide_pp_top(struct: Structure, phi: Formula) -> dict[str, str] | None:
    """Witness making a pp sentence take value top, or None: the search of
    :func:`top_decider` with no free variables."""
    _require_sentence(phi, PP, "a pp formula")
    return top_decider(struct, phi)(())


def solve_ep(struct: Structure, phi: Formula) -> SolveResult:
    """Exact value of an existential positive sentence with a witnessing
    prefix assignment: the same searches as :func:`solve_pp`, top first and
    then branch and bound, run directly on the matrix with ``\\/`` as max."""
    return _solve(struct, phi, EXISTENTIAL_POSITIVE, "an existential positive formula")
