"""Homomorphisms between structures over a shared chain and language.

A homomorphism is a total map on domains that commutes with every function
symbol and sends every top-valued predicate atom to a top-valued atom.
Values below the top impose no constraint, and equality contributes nothing
(identical arguments stay identical under any map), so homomorphisms need
not be injective.  An embedding is an injective homomorphism; an isomorphism
is a surjective embedding.

:func:`find_homomorphisms` searches the canonical query of the source with
the solver's kernel from the floor just below top.  Every fact is one table
lookup, as a pp atom over variables is: a top tuple in a predicate table, a
function-table entry or a constant in its graph.  :func:`check_homomorphism`
checks the definition directly and serves as its independent oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice, product

from .solver import _atom_value, _kernel
from .structures import Structure, _expansion, diagram, evaluate, expand_with_names, named_constant

HOMOMORPHISM = "homomorphism"
EMBEDDING = "embedding"
ISOMORPHISM = "isomorphism"
NONE = "none"

Mapping = dict[str, str]


class MorphismError(ValueError):
    """Incompatible structures or an ill-formed mapping."""


class InternalInvariantError(RuntimeError):
    """Two provably equivalent computations disagreed; an implementation bug."""


@dataclass(frozen=True)
class Violation:
    """First broken homomorphism condition: ``kind`` is "function",
    "constant" or "predicate"; ``args`` is the witnessing source tuple."""

    kind: str
    symbol: str
    args: tuple[str, ...]


def _check_compatible(m: Structure, n: Structure) -> None:
    if m.chain != n.chain:
        raise MorphismError("structures live over different chains")
    if m.lang != n.lang:
        raise MorphismError("structures have different languages")


def _check_total(g: Mapping, m: Structure, n: Structure) -> None:
    dom = set(m.domain)
    target = set(n.domain)
    if set(g) != dom:
        raise MorphismError("mapping must be total on the source domain")
    for e, t in g.items():
        if t not in target:
            raise MorphismError(f"mapping sends {e!r} outside the target domain")


def check_homomorphism(g: Mapping, m: Structure, n: Structure) -> Violation | None:
    """The first violated condition in deterministic order, or None."""
    _check_compatible(m, n)
    _check_total(g, m, n)
    for name in sorted(m.constants):
        if g[m.constants[name]] != n.constants[name]:
            return Violation("constant", name, ())
    for fname in sorted(m.functions):
        arity = m.lang.functions[fname]
        for args in product(m.domain, repeat=arity):
            if g[m.functions[fname][args]] != n.functions[fname][tuple(g[a] for a in args)]:
                return Violation("function", fname, args)
    top = m.chain.top
    for pname in sorted(m.predicates):
        table = m.predicates[pname]
        target = n.predicates[pname]
        for args in product(m.domain, repeat=table.arity):
            if table.value(args) == top and target.value(tuple(g[a] for a in args)) != top:
                return Violation("predicate", pname, args)
    return None


def is_homomorphism(g: Mapping, m: Structure, n: Structure) -> bool:
    return check_homomorphism(g, m, n) is None


def classify_morphism(g: Mapping, m: Structure, n: Structure) -> str:
    """One of "none", "homomorphism", "embedding", "isomorphism"."""
    if check_homomorphism(g, m, n) is not None:
        return NONE
    images = list(g.values())
    if len(set(images)) != len(images):
        return HOMOMORPHISM
    if set(images) != set(n.domain):
        return EMBEDDING
    return ISOMORPHISM


def find_homomorphisms(m: Structure, n: Structure, limit: int | None = None) -> list[Mapping]:
    """Homomorphisms from ``m`` to ``n``: the solutions over ``n.domain`` of
    the canonical query of ``m``, one constraint per top-valued predicate
    tuple, function-table entry and constant, each required top in ``n``.

    Source elements are assigned in domain order, candidate targets tried in
    domain order, so the result order is deterministic; with ``limit=None``
    the result is exactly the set of all homomorphisms, and a limit of 0 or
    less gives no maps.  Each map lists the source elements in domain order.
    """
    _check_compatible(m, n)
    top = m.chain.top
    query = []
    for pname, table in m.predicates.items():
        target = n.predicates[pname]
        for args in table.top_tuples(m.domain, top):
            query.append((args, _atom_value, (target.entries, target.default, args), True))
    for fname, table in m.functions.items():  # a function is its graph
        graph = {(*args, result): top for args, result in n.functions[fname].items()}
        for args, result in table.items():
            query.append(((*args, result), _atom_value, (graph, 0, (*args, result)), True))
    for name, element in m.constants.items():  # a constant is a 0-ary function
        query.append(((element,), _atom_value, ({(n.constants[name],): top}, 0, (element,)), True))
    maps = _kernel(m.domain, query, top, top - 1)(n.domain, {})
    return [{e: g[e] for e in m.domain} for g, _ in islice(maps, None if limit is None else max(limit, 0))]


def compose(g: Mapping, h: Mapping) -> Mapping:
    """The composite map applying ``g`` first, then ``h``."""
    return {e: h[t] for e, t in g.items()}


def identity_mapping(m: Structure) -> Mapping:
    return {e: e for e in m.domain}


def check_diagram_lemma(m: Structure, n: Structure) -> bool:
    """Verify on concrete structures that the two sides of the diagram
    correspondence agree, returning their shared truth value.

    Side one: some interpretation of the element-name constants turns ``n``
    into a model of the diagram of ``m``.  Side two: a homomorphism from
    ``m`` to ``n`` exists.  Disagreement raises
    :class:`InternalInvariantError`, since the sides are provably equivalent.
    """
    _check_compatible(m, n)
    sentences = diagram(m)
    lang = expand_with_names(m).lang
    top = m.chain.top

    def models_diagram(assignment: tuple[str, ...]) -> bool:
        constants = dict(n.constants)
        for e, t in zip(m.domain, assignment):
            constants[named_constant(e)] = t
        candidate = _expansion(n, dict(lang.functions), constants, dict(lang.algebra_constants))
        return all(evaluate(candidate, s) == top for s in sentences)

    diagram_side = any(models_diagram(a) for a in product(n.domain, repeat=len(m.domain)))
    hom_side = bool(find_homomorphisms(m, n, limit=1))
    if diagram_side != hom_side:
        raise InternalInvariantError(
            f"diagram side {diagram_side} but homomorphism side {hom_side}"
        )
    return hom_side


# --- mapping files --------------------------------------------------------------

def mapping_to_dict(g: Mapping) -> dict:
    return {"map": dict(sorted(g.items()))}


def mapping_from_dict(d: dict) -> Mapping:
    if not isinstance(d, dict) or "map" not in d or not isinstance(d["map"], dict):
        raise MorphismError("mapping file must be an object with a 'map' field")
    return dict(d["map"])


def load_mapping(path) -> Mapping:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return mapping_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise MorphismError(f"not valid JSON: {exc}") from exc


def save_mapping(g: Mapping, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(mapping_to_dict(g), indent=2, sort_keys=True) + "\n")
