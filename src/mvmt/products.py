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

Every table is filled from the factors' rows: each factor's argument
tuples with their value or function output, read once.  A product cell is
one row per factor.  Under "min" the rows valued 0 are dropped first, since
a cell with a coordinate at 0 is 0, the default; a scrambled cell below top
takes the CRC-32 of a string naming the policy seed, the symbol and the
cell's arguments, modulo top.
"""

from __future__ import annotations

import zlib
from itertools import product as iproduct
from operator import add
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


def _cells(rows, offsets, names: list[str], arity: int, start: int, combine):
    """Yield ``(args, value)`` per product cell of an ``arity``-ary symbol.

    ``rows`` holds each factor's ``(args, value)`` pairs.  A cell takes one
    row per factor, and its value folds ``combine`` over theirs from
    ``start``.  A product element is its index in ``names``, the sum of its
    coordinates' ``offsets``.  While the rows are combined, a cell's
    arguments are one number: their indices as digits in base ``len(names)``.
    """
    size = len(names)
    weights = [size**i for i in reversed(range(arity))]
    cells = [(0, start)]
    for factor_rows, offset in zip(rows, offsets):
        codes = [(sum([offset[a] * w for a, w in zip(args, weights)]), v) for args, v in factor_rows]
        cells = [(code + c, combine(value, v)) for code, value in cells for c, v in codes]
    for code, value in cells:
        yield tuple([names[code // w % size] for w in weights]), value


def weak_product(factors: Sequence[Structure], policy: str = "min", seed: int = 0) -> Structure:
    """A member of the weak-product family of ``factors`` under ``policy``."""
    if policy not in POLICIES:
        raise ProductError(f"unknown policy {policy!r}, pick one of {POLICIES}")
    _check_factors(factors)
    first = factors[0]
    lang, top = first.lang, first.chain.top
    names = ["(" + SEPARATOR.join(t) + ")" for t in iproduct(*(s.domain for s in factors))]
    offsets = []
    stride = len(names)
    for s in factors:
        stride //= len(s.domain)
        offsets.append({e: i * stride for i, e in enumerate(s.domain)})
    functions = {}
    for f, arity in lang.functions.items():
        if arity:
            rows = [[(a, o[e]) for a, e in s.functions[f].items()] for s, o in zip(factors, offsets)]
            functions[f] = {a: names[i] for a, i in _cells(rows, offsets, names, arity, 0, add)}
    # Below top a 2-element chain has only 0, so there the policies agree.
    scrambled = policy == "scrambled" and top > 1
    predicates = {}
    for p, arity in lang.predicates.items():
        rows = [
            [(a, s.predicates[p].value(a)) for a in iproduct(s.domain, repeat=arity)]
            for s in factors
        ]
        if not scrambled:  # under min a cell with a coordinate at 0 is 0, the default
            rows = [[row for row in factor_rows if row[1]] for factor_rows in rows]
        entries = predicates[p] = {}
        for args, value in _cells(rows, offsets, names, arity, top, min):
            if scrambled and value != top:
                value = zlib.crc32(f"{seed}:{p}:{','.join(args)}".encode()) % top
            if value:
                entries[args] = value
    return Structure(
        chain=first.chain,
        lang=lang,
        domain=tuple(names),
        predicates={
            p: PredTable(arity=lang.predicates[p], default=0, entries=entries)
            for p, entries in predicates.items()
        },
        functions=functions,
        constants={
            c: "(" + SEPARATOR.join(s.constants[c] for s in factors) + ")" for c in first.constants
        },
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
