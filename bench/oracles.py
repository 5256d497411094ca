"""Oracles for the benchmark's outputs, written against the raw tables so
they share no code path with the functions they check.

Values of sentences come from the reference evaluator in ``tests/support.py``
(imported, not copied).  ``workloads.self_check`` runs the oracles on
instances whose answers are known by hand before any item is trusted to them.
"""

from __future__ import annotations

from itertools import product

from mvmt.morphisms import is_homomorphism
from mvmt.syntax import Exists

from support import ref_evaluate


def _raw_value(struct, pred, args):
    table = struct.predicates[pred]
    return table.entries[args] if args in table.entries else table.default


def _constraints(m):
    """M's top-valued atoms, function graph and constants, read once."""
    top = m.chain.size - 1
    atoms = [
        (pred, args)
        for pred, table in m.predicates.items()
        for args in product(m.domain, repeat=table.arity)
        if _raw_value(m, pred, args) == top
    ]
    funcs = [(f, args, res) for f, table in m.functions.items() for args, res in table.items()]
    return atoms, funcs, dict(m.constants)


def _maps_to(g, n, constraints):
    atoms, funcs, consts = constraints
    top = n.chain.size - 1
    for name, element in consts.items():
        if g[element] != n.constants[name]:
            return False
    for f, args, res in funcs:
        if g[res] != n.functions[f][tuple(g[a] for a in args)]:
            return False
    return all(_raw_value(n, pred, tuple(g[a] for a in args)) == top for pred, args in atoms)


def lexicographic(maps, m, n) -> bool:
    """Every map is total into N, and the maps are strictly increasing in the
    order that compares target positions source element by source element
    (which also makes them distinct)."""
    position = {t: i for i, t in enumerate(n.domain)}
    previous = None
    for g in maps:
        if set(g) != set(m.domain) or any(t not in position for t in g.values()):
            return False
        key = tuple(position[g[e]] for e in m.domain)
        if previous is not None and key <= previous:
            return False
        previous = key
    return True


def all_homomorphisms(maps, m, n) -> bool:
    """Every map satisfies the homomorphism conditions read from the raw
    tables; the package's ``is_homomorphism`` confirms the first and last."""
    constraints = _constraints(m)
    if not all(_maps_to(g, n, constraints) for g in maps):
        return False
    return all(is_homomorphism(g, m, n) for g in maps[:1] + maps[-1:])


def exhaustive_homomorphisms(m, n) -> list[dict]:
    """Every map from M to N in lexicographic order, filtered by the raw
    homomorphism conditions."""
    constraints = _constraints(m)
    out = []
    for image in product(n.domain, repeat=len(m.domain)):
        g = dict(zip(m.domain, image))
        if _maps_to(g, n, constraints):
            out.append(g)
    return out


def count_colourings(graph, k: int) -> int:
    """Proper k-colourings of a loopless graph given as a Boolean structure
    with one symmetric binary predicate: the homomorphisms into K_k."""
    vertices = list(graph.domain)
    adjacent = {v: set() for v in vertices}
    for pred, table in graph.predicates.items():
        for (u, v), value in table.entries.items():
            if value == graph.chain.size - 1:
                adjacent[u].add(v)
                adjacent[v].add(u)
    colour = {}

    def count(i: int) -> int:
        if i == len(vertices):
            return 1
        v = vertices[i]
        used = {colour[u] for u in adjacent[v] if u in colour}
        total = 0
        for c in range(k):
            if c not in used:
                colour[v] = c
                total += count(i + 1)
                del colour[v]
        return total

    return count(0)


def split_prefix(phi):
    names = []
    while isinstance(phi, Exists):
        names.append(phi.var)
        phi = phi.body
    return names, phi


def _attains(struct, phi, result) -> bool:
    """The witness covers the prefix and the matrix takes the reported value
    under it; ``decided_top`` says whether that value is the top."""
    names, matrix = split_prefix(phi)
    top = struct.chain.size - 1
    if set(result.witness) != set(names):
        return False
    if ref_evaluate(struct, matrix, result.witness) != result.value:
        return False
    return result.decided_top == (result.value == top)


def pp_consistent(struct, phi, result, top_witness) -> bool:
    """A pp item: the witness attains the value, and ``decide_pp_top`` finds a
    top witness exactly when the value is the top."""
    if not _attains(struct, phi, result):
        return False
    if (top_witness is not None) != result.decided_top:
        return False
    if top_witness is None:
        return True
    names, matrix = split_prefix(phi)
    return set(top_witness) == set(names) and ref_evaluate(struct, matrix, top_witness) == struct.chain.size - 1


def ep_exact(struct, phi, result) -> bool:
    """An EP item: the value equals the reference evaluator's, which
    enumerates every assignment (the domain has two elements), and the
    witness attains it."""
    return ref_evaluate(struct, phi) == result.value and _attains(struct, phi, result)
