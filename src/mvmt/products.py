"""Direct products and weak direct products of structures.

All factors must share one language and one chain.  The product domain is
the cartesian product, with elements named ``(a|c)`` using a reserved
separator; functions and constants act componentwise.  The canonical product
takes each predicate value to be the minimum over the coordinates.  A weak
product only promises the top pattern: a predicate atom is top exactly when
it is top in every coordinate, and values below top are unconstrained.  Two
policies realize the family here: "min" (the canonical product itself) and
"scrambled" (a seed-determined value below top wherever some coordinate is
below top).

One loop over cells fills every table.  A cell holds one coordinate tuple
per argument; its transpose gives each factor its own argument tuple.
"""

from __future__ import annotations

import random
from itertools import product as iproduct
from typing import Sequence

from .structures import PredTable, Structure

SEPARATOR = "|"

POLICIES = ("min", "scrambled")


class ProductError(ValueError):
    pass


def split_product_name(name: str) -> list[str] | None:
    """Recover the factor components of a product element name, or None if
    the name is not well formed."""
    if len(name) < 2 or name[0] != "(" or name[-1] != ")":
        return None
    parts = []
    depth = 0
    current = []
    for ch in name[1:-1]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return None
        if ch == SEPARATOR and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        return None
    parts.append("".join(current))
    if any(not p for p in parts):
        return None
    return parts


def _check_factors(factors: Sequence[Structure]) -> None:
    if not factors:
        raise ProductError("a product needs at least one factor")
    first = factors[0]
    for s in factors[1:]:
        if s.chain != first.chain:
            raise ProductError("factors live over different chains")
        if s.lang != first.lang:
            raise ProductError("factors have different languages")
    for s in factors:
        for e in s.domain:
            if any(ch in e for ch in (SEPARATOR, "(", ")")) and split_product_name(e) is None:
                raise ProductError(f"element name {e!r} collides with product naming")


def weak_product(factors: Sequence[Structure], policy: str = "min", seed: int = 0) -> Structure:
    """A member of the weak-product family of ``factors`` under ``policy``."""
    if policy not in POLICIES:
        raise ProductError(f"unknown policy {policy!r}, pick one of {POLICIES}")
    _check_factors(factors)
    first = factors[0]
    lang, top = first.lang, first.chain.top
    tuples = list(iproduct(*(s.domain for s in factors)))
    names = {t: "(" + SEPARATOR.join(t) + ")" for t in tuples}
    functions = {f: {} for f, arity in lang.functions.items() if arity}
    predicates = {p: {} for p in lang.predicates}
    symbols = [(f, lang.functions[f]) for f in functions]
    for name, arity in [*symbols, *lang.predicates.items()]:
        for cell in iproduct(tuples, repeat=arity):
            args = tuple(names[t] for t in cell)
            coords = zip(factors, zip(*cell) if arity else [()] * len(factors))
            if name in functions:
                functions[name][args] = names[tuple(s.functions[name][c] for s, c in coords)]
            else:
                value = min(s.predicates[name].value(c) for s, c in coords)
                if policy == "scrambled" and value != top:
                    value = random.Random(f"{seed}:{name}:{','.join(args)}").randrange(top)
                predicates[name][args] = value
    return Structure(
        chain=first.chain,
        lang=lang,
        domain=tuple(names.values()),
        predicates={
            p: PredTable(arity=lang.predicates[p], default=0, entries=entries)
            for p, entries in predicates.items()
        },
        functions=functions,
        constants={c: names[tuple(s.constants[c] for s in factors)] for c in first.constants},
    )


def direct_product(factors: Sequence[Structure]) -> Structure:
    """The canonical product: predicate values are coordinatewise minima."""
    return weak_product(factors, policy="min")


def projection(product: Structure, i: int) -> dict[str, str]:
    """The i-th coordinate map of a product built by this module."""
    split = {}
    width: int | None = None
    for e in product.domain:
        parts = split_product_name(e)
        if parts is None:
            raise ProductError(f"{e!r} is not a product element name")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ProductError("inconsistent product element names")
        split[e] = parts
    assert width is not None
    if not 0 <= i < width:
        raise ProductError(f"factor index {i} out of range 0..{width - 1}")
    return {e: parts[i] for e, parts in split.items()}
