"""Signatures, terms, formulas, parsing and the fragment machinery.

Concrete grammar (ASCII)::

    formula  :=  'E' var+ '.' formula            existential, scopes to the end
              |  'A' var+ '.' formula            universal, scopes to the end
              |  implication
    implication := disjunction ('->' implication)?          right associative
    disjunction := conjunction ('\\/' conjunction)*
    conjunction := strong ('/\\' strong)*
    strong      := unary ('&' unary)*
    unary       := quantified formula | primary
    primary     := '(' formula ')' | '0' | '1' | '@' INT
                |  PRED '(' term (',' term)* ')' | PRED     (0-ary)
                |  term '=' term                            crisp equality

``&`` binds tighter than ``/\\``, which binds tighter than ``\\/``, which
binds tighter than ``->``.  ``0`` and ``1`` denote the bottom and top truth
values; ``@k`` denotes the chain element with index ``k``.  ``E``/``A`` are
reserved words.  Identifiers not declared in the language are variables.

Parsing renames bound variables apart: after :func:`parse_formula` every
binder uses a name distinct from all other binders, free variables and
function symbols, so no bound variable prints like a constant.  It rejects
formulas nested more than :data:`MAX_NESTING` levels deep.  One binder
walker serves :func:`rename_apart`, :func:`substitute` (which also keeps
binders away from the substituted term's names, so substitution never
captures) and :func:`alpha_equal` (which names each binder by its place in
the walk).  One non-recursive walk over the levels of the syntax tree serves
the nesting check, the function symbols, :func:`classify` and
:func:`is_pp_normal_shape`.

One expander implements the fragment normal forms: it distributes an EP
matrix into canonical pp disjuncts, dropping duplicates as it goes;
:func:`ep_to_pp_disjunction` returns them, and :func:`pp_normal_form` the
single one of a pp formula.  It relies only on laws that hold in every finite chain: min/max
distribute over each other, the conjunction table distributes over min and
max (monotonicity plus linearity), and existential quantifiers distribute
over max.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, Mapping, Union


class FormulaError(ValueError):
    """Base error for language and formula handling."""


class ParseError(FormulaError):
    """Malformed formula text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    pass


class ArityError(ParseError):
    pass


class FragmentError(FormulaError):
    """A formula lies outside the fragment an operation requires."""


class LanguageError(FormulaError):
    pass


@dataclass(frozen=True)
class Language:
    """A predicate signature.

    ``predicates`` and ``functions`` map symbol names to arities; arity-0
    predicates are truth constants of the language and arity-0 functions are
    individual constants.  ``algebra_constants`` maps names of chain-element
    constants to their element index; such names behave as 0-ary predicate
    atoms whose value is fixed in every structure.
    """

    predicates: Mapping[str, int] = field(default_factory=dict)
    functions: Mapping[str, int] = field(default_factory=dict)
    algebra_constants: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        names = [*self.predicates, *self.functions, *self.algebra_constants]
        if len(names) != len(set(names)):
            raise LanguageError("predicate, function and algebra-constant names must be disjoint")
        for name, ar in [*self.predicates.items(), *self.functions.items()]:
            if not isinstance(ar, int) or ar < 0:
                raise LanguageError(f"arity of {name!r} must be a natural number, got {ar!r}")
        for name in names:
            if not is_symbol_name(name):
                raise LanguageError(f"invalid symbol name {name!r}")


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = frozenset({"E", "A"})


def is_symbol_name(name: str) -> bool:
    """True when ``name`` can serve as a declared symbol in the grammar."""
    return bool(_NAME_RE.fullmatch(name)) and name not in _RESERVED


# --- terms and formulas -----------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    """A function symbol applied to subterms; constants have no arguments."""

    func: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms (no arguments for truth constants)."""

    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Equals:
    left: Term
    right: Term


@dataclass(frozen=True)
class TruthConst:
    """A fixed truth value: ``element=None`` is the top of the evaluating
    chain, otherwise the chain element with that index."""

    element: int | None


@dataclass(frozen=True)
class StrongAnd:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class WeakAnd:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Atom, Equals, TruthConst, StrongAnd, WeakAnd, Or, Implies, Exists, Forall]

BOTTOM = TruthConst(0)
TOP = TruthConst(None)

_BINARY = {StrongAnd: "&", WeakAnd: "/\\", Or: "\\/", Implies: "->"}


# --- variables and substitution ----------------------------------------------

def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def free_vars(phi: Formula) -> set[str]:
    if isinstance(phi, Atom):
        out: set[str] = set()
        for t in phi.args:
            out |= term_vars(t)
        return out
    if isinstance(phi, Equals):
        return term_vars(phi.left) | term_vars(phi.right)
    if isinstance(phi, TruthConst):
        return set()
    if isinstance(phi, (Exists, Forall)):
        return free_vars(phi.body) - {phi.var}
    return free_vars(phi.left) | free_vars(phi.right)


def _fresh(base: str, used: set[str]) -> str:
    if base not in used and base not in _RESERVED:
        used.add(base)
        return base
    k = 2
    while f"{base}_{k}" in used:
        k += 1
    name = f"{base}_{k}"
    used.add(name)
    return name


def _functions(node: Formula | Term) -> set[str]:
    """The function symbols of a formula or term."""
    return {n.func for level in _levels(node) for n in level if isinstance(n, App)}


def rename_apart(phi: Formula) -> Formula:
    """Rename binders so all bound names are distinct from each other, from
    every free variable and from every function symbol, so that no bound
    variable prints like a constant."""
    return _rebind(phi, {}, free_vars(phi) | _functions(phi))


def substitute(phi: Formula, var: str, term: Term) -> Formula:
    """Replace free occurrences of ``var`` by ``term``, capture-avoiding.

    Binders are renamed apart as by :func:`rename_apart`, and away from the
    variables and function symbols of ``term`` too."""
    free = free_vars(phi)
    if var not in free:
        return phi
    return _rebind(phi, {var: term}, free | _functions(phi) | term_vars(term) | _functions(term))


def _rebind(f: Formula, env: Mapping[str, Term], used: set[str], base: str | None = None) -> Formula:
    """Replace each free variable named in ``env`` by its term, and give
    every binder the first fresh name outside ``used`` built on ``base``
    (when None, on the binder's own name), which it then joins."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_replace(t, env) for t in f.args))
    if isinstance(f, Equals):
        return Equals(_replace(f.left, env), _replace(f.right, env))
    if isinstance(f, TruthConst):
        return f
    if isinstance(f, (Exists, Forall)):
        new = _fresh(f.var if base is None else base, used)
        return type(f)(new, _rebind(f.body, {**env, f.var: Var(new)}, used, base))
    return type(f)(_rebind(f.left, env, used, base), _rebind(f.right, env, used, base))


def _replace(t: Term, env: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return env.get(t.name, t)
    return App(t.func, tuple(_replace(a, env) for a in t.args))


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to consistent renaming of bound variables:
    both sides rebound with each binder named by its place in the walk."""
    used = free_vars(f) | free_vars(g)
    return _rebind(f, {}, set(used), "\x00") == _rebind(g, {}, set(used), "\x00")


# --- printing ----------------------------------------------------------------

def term_to_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.func
    return f"{t.func}({', '.join(term_to_text(a) for a in t.args)})"


_PREC = {Implies: 1, Or: 2, WeakAnd: 3, StrongAnd: 4}


def to_text(phi: Formula) -> str:
    """Render a formula in the concrete grammar with minimal parentheses."""

    def prec(f: Formula) -> int:
        if isinstance(f, (Exists, Forall)):
            return 0
        return _PREC.get(type(f), 5)

    def render(f: Formula, required: int) -> str:
        if isinstance(f, Atom):
            s = f.pred if not f.args else f"{f.pred}({', '.join(term_to_text(a) for a in f.args)})"
        elif isinstance(f, Equals):
            s = f"{term_to_text(f.left)} = {term_to_text(f.right)}"
        elif isinstance(f, TruthConst):
            s = "1" if f.element is None else ("0" if f.element == 0 else f"@{f.element}")
        elif isinstance(f, (Exists, Forall)):
            kind = type(f)
            names = [f.var]
            body = f.body
            while isinstance(body, kind):
                names.append(body.var)
                body = body.body
            s = f"{'E' if kind is Exists else 'A'} {' '.join(names)} . {render(body, 0)}"
        else:
            p = _PREC[type(f)]
            if isinstance(f, Implies):
                s = f"{render(f.left, p + 1)} -> {render(f.right, p)}"
            else:
                s = f"{render(f.left, p)} {_BINARY[type(f)]} {render(f.right, p + 1)}"
        return f"({s})" if prec(f) < required else s

    return render(phi, 0)


# --- tokenizer and parser ----------------------------------------------------

MAX_NESTING = 100
"""Deepest nesting the parser accepts, both in open groups while parsing
(parentheses, quantifier bodies, implication right operands, argument lists)
and in syntax-tree levels, terms included.  Everything downstream recurses
per level, so this keeps it within Python's default recursion limit."""


def _levels(phi: Formula) -> Iterator[list]:
    """The levels of the syntax tree, terms included, walked without recursion."""
    level = [phi]
    while level:
        yield level
        below = []
        for node in level:
            if isinstance(node, (Atom, App)):
                below += node.args
            elif isinstance(node, (Exists, Forall)):
                below.append(node.body)
            elif not isinstance(node, (Var, TruthConst)):
                below += (node.left, node.right)
        level = below


_BINARY_LEVELS = (("\\/", Or), ("/\\", WeakAnd), ("&", StrongAnd))  # loosest first

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<wand>/\\)"
    r"|(?P<wor>\\/)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[&.(),=@])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    """Recursive-descent parser; with ``lang=None`` it infers a language
    (applied names at formula level become predicates, applied names inside
    terms become functions, bare names become variables unless followed by
    an argument list)."""

    def __init__(self, text: str, lang: Language | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.lang = lang
        self.inferred_preds: dict[str, int] = {}
        self.inferred_funcs: dict[str, int] = {}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> tuple[str, str, int]:
        kind, val, pos = self.peek()
        if val != text:
            raise ParseError(f"expected {text!r}, found {val or 'end of input'!r}", pos)
        return self.next()

    def nested(self, parse):
        """Run ``parse`` one level deeper, within :data:`MAX_NESTING`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", self.peek()[2])
        result = parse()
        self.depth -= 1
        return result

    # grammar levels

    def implication(self) -> Formula:
        left = self.binary(0)
        if self.peek()[1] == "->":
            self.next()
            return Implies(left, self.nested(self.implication))
        return left

    def binary(self, level: int) -> Formula:
        """A chain of the connective at ``_BINARY_LEVELS[level]`` over the
        levels after it, left associative; past the last level, a unary."""
        if level == len(_BINARY_LEVELS):
            return self.unary()
        symbol, node = _BINARY_LEVELS[level]
        f = self.binary(level + 1)
        while self.peek()[1] == symbol:
            self.next()
            f = node(f, self.binary(level + 1))
        return f

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "name" and val in _RESERVED:
            self.next()
            names = []
            while self.peek()[0] == "name":
                names.append(self.next()[1])
            if not names:
                raise ParseError("quantifier needs at least one variable", self.peek()[2])
            self.expect(".")
            body = self.nested(self.implication)
            node = Exists if val == "E" else Forall
            for name in reversed(names):
                body = node(name, body)
            return body
        return self.primary()

    def primary(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "(":
            self.next()
            f = self.nested(self.implication)
            self.expect(")")
            return f
        if kind == "num":
            self.next()
            if val == "0":
                return BOTTOM
            if val == "1":
                return TOP
            raise ParseError(f"bare numeral {val!r}; only 0 and 1 denote truth values", pos)
        if val == "@":
            self.next()
            k, v, p = self.peek()
            if k != "num":
                raise ParseError("@ must be followed by an element index", p)
            self.next()
            return TruthConst(int(v))
        if kind == "name":
            return self.atom_or_equality()
        raise ParseError(f"expected a formula, found {val or 'end of input'!r}", pos)

    def atom_or_equality(self) -> Formula:
        kind, name, pos = self.next()
        if self.lang is not None:
            if name in self.lang.algebra_constants:
                return Atom(name, ())
            if name in self.lang.predicates:
                return Atom(name, self.arguments("predicate", name, self.lang.predicates[name], pos))
            term = self.finish_term(name, pos)
        else:
            if self.peek()[1] == "(":
                args = self.parse_args()
                self.record("predicate", name, len(args), pos)
                return Atom(name, args)
            if self.peek()[1] != "=":
                self.record("predicate", name, 0, pos)
                return Atom(name, ())
            term = Var(name)
        eq_kind, eq_val, eq_pos = self.peek()
        if eq_val != "=":
            raise ParseError(
                f"{term_to_text(term)!r} is a term; expected '=' to form an equality", eq_pos
            )
        self.next()
        return Equals(term, self.term())

    def arguments(self, kind: str, name: str, arity: int, pos: int) -> tuple[Term, ...]:
        """The argument list, if any, of a declared symbol of that arity."""
        args = self.parse_args() if self.peek()[1] == "(" else ()
        if len(args) != arity:
            raise ArityError(f"{kind} {name!r} expects {arity} argument(s), got {len(args)}", pos)
        return args

    def parse_args(self) -> tuple[Term, ...]:
        self.expect("(")
        args = [self.nested(self.term)]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.nested(self.term))
        self.expect(")")
        return tuple(args)

    def term(self) -> Term:
        kind, name, pos = self.peek()
        if kind != "name":
            raise ParseError(f"expected a term, found {name or 'end of input'!r}", pos)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved for quantifiers", pos)
        self.next()
        return self.finish_term(name, pos)

    def finish_term(self, name: str, pos: int) -> Term:
        if self.lang is not None:
            if name in self.lang.predicates or name in self.lang.algebra_constants:
                raise ParseError(f"predicate {name!r} used in term position", pos)
            if name in self.lang.functions:
                return App(name, self.arguments("function", name, self.lang.functions[name], pos))
            if self.peek()[1] == "(":
                raise UnknownSymbolError(f"unknown function symbol {name!r}", pos)
            return Var(name)
        if self.peek()[1] == "(":
            args = self.parse_args()
            self.record("function", name, len(args), pos)
            return App(name, args)
        return Var(name)

    def record(self, kind: str, name: str, arity: int, pos: int) -> None:
        """Infer ``name`` as a symbol of ``kind`` (predicate or function)."""
        own, other = self.inferred_preds, self.inferred_funcs
        if kind == "function":
            own, other = other, own
        if name in other:
            raise ParseError(f"{name!r} used both as predicate and function", pos)
        seen = own.get(name)
        if seen is not None and seen != arity:
            raise ArityError(f"{kind} {name!r} used with arities {seen} and {arity}", pos)
        own[name] = arity

    def run(self) -> Formula:
        f = self.implication()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        if sum(1 for _ in _levels(f)) > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", 0)
        return rename_apart(f)


def parse_formula(text: str, lang: Language) -> Formula:
    """Parse against a fixed language, arity checked, binders renamed apart."""
    return _Parser(text, lang).run()


def infer_formula(text: str, seed: Language | None = None) -> tuple[Formula, Language]:
    """Parse without a declared language, inferring one from usage.

    ``seed`` symbols (from previously inferred formulas) are honored and
    extended.  Bare identifiers in term position always become variables, so
    individual constants cannot be inferred; declare a language for those.
    """
    parser = _Parser(text, None)
    if seed is not None:
        parser.inferred_preds.update(seed.predicates)
        parser.inferred_funcs.update(seed.functions)
    f = parser.run()
    return f, Language(predicates=dict(parser.inferred_preds), functions=dict(parser.inferred_funcs))


# --- fragment classification --------------------------------------------------

WEDGE_PRIMITIVE = "wedge_primitive"
AMP_PRIMITIVE = "amp_primitive"
PP = "pp"
EXISTENTIAL_POSITIVE = "existential_positive"
SENTENCE = "sentence"


def strip_exists_prefix(phi: Formula) -> tuple[list[str], Formula]:
    """Split off the maximal leading block of existential quantifiers."""
    names = []
    while isinstance(phi, Exists):
        names.append(phi.var)
        phi = phi.body
    return names, phi


def classify(phi: Formula) -> frozenset[str]:
    """Exact syntactic fragment membership of a formula.

    A formula is in a primitive fragment only in prefix form: a block of
    existential quantifiers (possibly empty) over a quantifier-free body
    using the fragment's connectives.
    """
    tags = set()
    if not free_vars(phi):
        tags.add(SENTENCE)
    _, matrix = strip_exists_prefix(phi)
    conns = {type(n) for level in _levels(matrix) for n in level}
    conns -= {Atom, Equals, TruthConst, Var, App}
    if not conns & {Exists, Forall, Implies}:
        if conns <= {WeakAnd}:
            tags.add(WEDGE_PRIMITIVE)
        if conns <= {StrongAnd}:
            tags.add(AMP_PRIMITIVE)
        if conns <= {WeakAnd, StrongAnd}:
            tags.add(PP)
        if conns <= {WeakAnd, StrongAnd, Or}:
            tags.add(EXISTENTIAL_POSITIVE)
    return frozenset(tags)


# --- normal forms -------------------------------------------------------------

Block = tuple[str, ...]  # printed atoms joined by strong conjunction, sorted
Disjunct = tuple[Block, ...]  # distinct blocks joined by min, sorted


def _disjuncts(matrix: Formula, atoms: dict[str, Formula]) -> list[Disjunct]:
    """The canonical pp disjuncts of an EP matrix, without duplicates, each in
    the position where it first appears in the full distributive expansion.

    Atoms are keyed by their printed form, which ``atoms`` maps back to the
    atom; each atom is printed once.  Duplicates can be dropped at every level
    because the canonical form of ``a /\\ b``, ``a & b`` and ``a \\/ b``
    depends only on those of ``a`` and ``b``, and a dropped twin always comes
    after the kept one in the product loops below.
    """
    if isinstance(matrix, (Atom, Equals, TruthConst)):
        text = to_text(matrix)
        atoms.setdefault(text, matrix)
        return [((text,),)]
    left = _disjuncts(matrix.left, atoms)
    right = _disjuncts(matrix.right, atoms)
    if isinstance(matrix, Or):
        expanded = left + right
    elif isinstance(matrix, WeakAnd):
        expanded = (tuple(sorted(set(a + b))) for a in left for b in right)
    else:
        expanded = (
            tuple(sorted({tuple(sorted(x + y)) for x in a for y in b})) for a in left for b in right
        )
    return list(dict.fromkeys(expanded))


def _rebuild(prefix: list[str], disjunct: Disjunct, atoms: dict[str, Formula]) -> Formula:
    conjuncts = [reduce(StrongAnd, [atoms[text] for text in block]) for block in disjunct]
    matrix = reduce(WeakAnd, conjuncts)
    for name in reversed(prefix):
        matrix = Exists(name, matrix)
    return matrix


def pp_normal_form(phi: Formula) -> Formula:
    """Rewrite a pp formula into its canonical layered form: an existential
    prefix over a min-combination of strong-conjunction blocks of atoms.

    The result takes the same value as the input in every structure over
    every chain.  Blocks and the atoms inside each block are ordered
    lexicographically by their printed form; duplicate blocks collapse
    (min is idempotent), duplicate atoms inside a block do not (the
    conjunction table need not be).
    """
    if PP not in classify(phi):
        raise FragmentError(f"not a pp formula: {to_text(phi)}")
    return ep_to_pp_disjunction(phi)[0]


def is_pp_normal_shape(phi: Formula) -> bool:
    """Check the layering only: exists-prefix, then min-layer, then
    strong-conjunction blocks, then atoms."""
    _, matrix = strip_exists_prefix(phi)
    return PP in classify(phi) and not any(
        isinstance(n, StrongAnd) and WeakAnd in (type(n.left), type(n.right))
        for level in _levels(matrix)
        for n in level
    )


def ep_to_pp_disjunction(phi: Formula) -> list[Formula]:
    """Decompose an existential positive formula into pp formulas whose
    pointwise maximum equals it in every structure over every chain.

    Disjunctions are pushed out through both conjunctions and through the
    existential prefix; each resulting pp disjunct keeps the full prefix and
    is canonicalized like :func:`pp_normal_form`.  Disjuncts that print alike
    appear once, in the order of their first appearance in the expansion, so
    the work is bounded by the number of distinct disjuncts at each level of
    the matrix.  A pp input yields a one-element list holding its normal form.
    """
    if EXISTENTIAL_POSITIVE not in classify(phi):
        raise FragmentError(f"not an existential positive formula: {to_text(phi)}")
    prefix, matrix = strip_exists_prefix(phi)
    atoms: dict[str, Formula] = {}
    return [_rebuild(prefix, d, atoms) for d in _disjuncts(matrix, atoms)]

