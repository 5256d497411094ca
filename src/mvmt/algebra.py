"""Finite linearly ordered truth-value chains.

A chain is the algebra the rest of the toolkit computes in: elements are the
integers ``0 .. size-1`` in their numeric order, ``0`` is falsity and
``size-1`` is truth.  Strong conjunction is a commutative, associative,
monotone table with the top element as unit (a finite t-norm); implication is
the residuum table derived from it.  Weak conjunction and disjunction are
plain ``min`` and ``max`` and need no tables.

The residuum is never supplied by callers: it is always computed as
``residuum(x, y) = max{z : tnorm(x, z) <= y}``, so the adjunction law
``tnorm(x, z) <= y  iff  z <= residuum(x, y)`` holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass


class ChainError(ValueError):
    """Base error for chain construction and element access."""


class InvalidSizeError(ChainError):
    """Requested chain size does not admit the construction."""


class ElementRangeError(ChainError):
    """An element index falls outside 0 .. size-1."""


class InvalidTableError(ChainError):
    """A conjunction table violates one of the chain laws.

    ``law`` names the violated law ("shape", "range", "commutativity",
    "associativity", "monotonicity" or "unit") and ``witness`` holds the
    offending indices.
    """

    def __init__(self, law: str, witness: tuple[int, ...], message: str):
        super().__init__(message)
        self.law = law
        self.witness = witness


@dataclass(frozen=True)
class Chain:
    """Immutable finite chain with its conjunction and residuum tables.

    :meth:`label` names element ``k`` by the rational ``k/(size-1)``,
    computed from the size; it carries no semantics.
    """

    size: int
    tnorm: tuple[tuple[int, ...], ...]
    residuum: tuple[tuple[int, ...], ...]

    @property
    def top(self) -> int:
        return self.size - 1

    @property
    def bottom(self) -> int:
        return 0

    def check_element(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.size:
            raise ElementRangeError(f"element {x!r} out of range 0..{self.size - 1}")
        return x

    def label(self, x: int) -> str:
        return f"{self.check_element(x)}/{self.size - 1}"

    def __repr__(self) -> str:
        return f"Chain(size={self.size})"


def _derive_residuum(n: int, tnorm: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    # tnorm(x, .) is monotone, so {z : tnorm(x, z) <= y} is downward closed
    # and its maximum does not fall as y rises: one upward sweep per row.
    rows = []
    for x in range(n):
        row, z = [], 0
        for y in range(n):
            while z + 1 < n and tnorm[x][z + 1] <= y:
                z += 1
            row.append(z)
        rows.append(tuple(row))
    return tuple(rows)


def _validate_tnorm(n: int, table: tuple[tuple[int, ...], ...]) -> None:
    if len(table) != n or any(len(row) != n for row in table):
        raise InvalidTableError("shape", (n,), f"table must be {n}x{n}")
    for x in range(n):
        for y in range(n):
            v = table[x][y]
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise InvalidTableError(
                    "range", (x, y), f"entry ({x},{y}) = {v!r} not an element of 0..{n - 1}"
                )
    for x in range(n):
        for y in range(x + 1, n):
            if table[x][y] != table[y][x]:
                raise InvalidTableError(
                    "commutativity", (x, y),
                    f"tnorm({x},{y}) = {table[x][y]} but tnorm({y},{x}) = {table[y][x]}",
                )
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise InvalidTableError(
                        "associativity", (x, y, z),
                        f"(({x}*{y})*{z}) = {table[table[x][y]][z]} but "
                        f"({x}*({y}*{z})) = {table[x][table[y][z]]}",
                    )
    for x in range(n):
        for y in range(n - 1):
            if table[x][y] > table[x][y + 1]:
                raise InvalidTableError(
                    "monotonicity", (x, y, y + 1),
                    f"tnorm({x},{y}) = {table[x][y]} > tnorm({x},{y + 1}) = {table[x][y + 1]}",
                )
    top = n - 1
    for x in range(n):
        if table[top][x] != x:
            raise InvalidTableError(
                "unit", (top, x), f"tnorm({top},{x}) = {table[top][x]}, expected {x}"
            )


def make_custom(n: int, table) -> Chain:
    """Build a chain from an explicit conjunction table, validating all laws.

    The table must be commutative, associative, monotone in both arguments
    and have ``n-1`` as unit; violations raise :class:`InvalidTableError`
    with a witnessing index tuple.  Size 1 is allowed (the degenerate chain).
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidSizeError(f"chain size must be a positive integer, got {n!r}")
    tup = tuple(tuple(row) for row in table)
    _validate_tnorm(n, tup)
    return Chain(size=n, tnorm=tup, residuum=_derive_residuum(n, tup))


def _lukasiewicz_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(max(0, i + j - (n - 1)) for j in range(n)) for i in range(n))


def _godel_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(min(i, j) for j in range(n)) for i in range(n))


# The stock conjunction tables by kind.  At size 2 they coincide, and the
# first kind listed names the chain.
_STOCK_TABLES = {"lukasiewicz": _lukasiewicz_table, "godel": _godel_table}


def _make_stock(n: int, kind: str) -> Chain:
    if not isinstance(n, int) or n < 2:
        raise InvalidSizeError(f"need n >= 2 for distinct falsity and truth, got {n!r}")
    table = _STOCK_TABLES[kind](n)
    return Chain(size=n, tnorm=table, residuum=_derive_residuum(n, table))


def make_lukasiewicz(n: int) -> Chain:
    """The n-element chain with tnorm(i, j) = max(0, i + j - (n-1))."""
    return _make_stock(n, "lukasiewicz")


def make_godel(n: int) -> Chain:
    """The n-element chain with tnorm(i, j) = min(i, j)."""
    return _make_stock(n, "godel")


def tnorm(chain: Chain, x: int, y: int) -> int:
    """Strong conjunction of two elements, range checked."""
    return chain.tnorm[chain.check_element(x)][chain.check_element(y)]


def residuum(chain: Chain, x: int, y: int) -> int:
    """The adjoint of the conjunction: max{z : tnorm(x, z) <= y}."""
    return chain.residuum[chain.check_element(x)][chain.check_element(y)]


def coatom(chain: Chain) -> int:
    """The largest element strictly below the top."""
    if chain.size < 2:
        raise InvalidSizeError("a one-element chain has no element below its top")
    return chain.size - 2


def chain_kind(chain: Chain) -> str:
    """Classify a chain for serialization: "lukasiewicz", "godel" or "custom"."""
    if chain.size >= 2:
        for kind, table in _STOCK_TABLES.items():
            if chain.tnorm == table(chain.size):
                return kind
    return "custom"


def chain_to_dict(chain: Chain) -> dict:
    kind = chain_kind(chain)
    d: dict = {"kind": kind, "size": chain.size}
    if kind == "custom":
        d["tnorm"] = [list(row) for row in chain.tnorm]
    return d


# Largest chain a structure file may ask for: the tables are size x size, and
# validating a custom table takes size^3 steps.
MAX_LOADED_CHAIN_SIZE = 256


def chain_from_dict(d: dict) -> Chain:
    if not isinstance(d, dict) or "kind" not in d or "size" not in d:
        raise ChainError("algebra fragment must carry 'kind' and 'size'")
    kind, size = d["kind"], d["size"]
    if isinstance(size, int) and size > MAX_LOADED_CHAIN_SIZE:
        raise InvalidSizeError(f"chain size {size} exceeds the limit {MAX_LOADED_CHAIN_SIZE}")
    if isinstance(kind, str) and kind in _STOCK_TABLES:
        return _make_stock(size, kind)
    if kind == "custom":
        if "tnorm" not in d:
            raise ChainError("custom algebra fragment must carry its 'tnorm' table")
        return make_custom(size, d["tnorm"])
    raise ChainError(f"unknown algebra kind {kind!r}")
