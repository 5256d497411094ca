"""Finite structures valued in a chain, and their semantics.

A structure fixes a chain, a language, a nonempty domain of named elements,
a graded table per predicate (sparse, with a default value for unlisted
tuples), a total table per function symbol and an element per individual
constant.  Equality is never stored: it is the crisp identity, top on equal
elements and bottom otherwise.  Algebra-constant symbols declared in the
language always denote their chain element, so structures carrying them are
standard by construction.

Evaluation follows the usual recursive clauses: predicate atoms read their
table, strong conjunction applies the chain's table, weak conjunction and
disjunction are min and max, implication is the residuum, and the
quantifiers take the minimum and maximum over the domain (finite, so both
are attained by a witness).

Structures serialize to JSON; :func:`dumps_structure` emits a canonical form
(sorted keys, entries that equal the default omitted) so equal structures
produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping

from .algebra import Chain, ChainError, chain_from_dict, chain_to_dict
from .syntax import (
    App,
    Atom,
    Equals,
    Exists,
    Forall,
    Formula,
    Implies,
    Language,
    LanguageError,
    Or,
    StrongAnd,
    Term,
    TruthConst,
    Var,
    WeakAnd,
    free_vars,
    is_symbol_name,
)

NAMED_CONSTANT_PREFIX = "c_"
TRUTH_CONSTANT_PREFIX = "d_"

Valuation = Mapping[str, str]


class StructureError(ValueError):
    """Ill-formed structure data."""


class EvaluationError(ValueError):
    """A formula cannot be evaluated in the given structure."""


@dataclass
class PredTable:
    """Graded interpretation of one predicate: ``entries`` maps argument
    tuples to chain elements, every unlisted tuple takes ``default``."""

    arity: int
    default: int = 0
    entries: dict[tuple[str, ...], int] = field(default_factory=dict)

    def value(self, args: tuple[str, ...]) -> int:
        return self.entries.get(args, self.default)

    def top_tuples(self, domain, top: int) -> list[tuple[str, ...]]:
        """The argument tuples over ``domain`` that take the value ``top``."""
        if self.default == top:
            return [a for a in product(domain, repeat=self.arity) if self.value(a) == top]
        return [a for a, v in self.entries.items() if v == top]


@dataclass
class Structure:
    """A finite structure over ``chain`` for ``lang``.

    Treat instances as immutable after construction; evaluation never
    mutates them, so they are safe to share.
    """

    chain: Chain
    lang: Language
    domain: tuple[str, ...]
    predicates: dict[str, PredTable] = field(default_factory=dict)
    functions: dict[str, dict[tuple[str, ...], str]] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.domain = tuple(self.domain)
        if not self.domain:
            raise StructureError("domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise StructureError("domain elements must be distinct")
        for e in self.domain:
            if not isinstance(e, str) or not e or "," in e:
                raise StructureError(f"bad domain element name {e!r}")
        dom = set(self.domain)
        declared = set(self.lang.predicates)
        if set(self.predicates) != declared:
            missing = declared - set(self.predicates)
            extra = set(self.predicates) - declared
            raise StructureError(
                f"predicate tables do not match the language "
                f"(missing {sorted(missing)}, undeclared {sorted(extra)})"
            )
        check, size = self.chain.check_element, self.chain.size
        for name, table in self.predicates.items():
            arity = self.lang.predicates[name]
            if table.arity != arity:
                raise StructureError(f"table for {name!r} has arity {table.arity}, expected {arity}")
            default = check(table.default)
            for args, v in table.entries.items():
                if len(args) != arity or not dom.issuperset(args):
                    raise StructureError(f"bad entry key {args!r} for predicate {name!r}")
                if type(v) is not int or not 0 <= v < size:  # only these can fail the check
                    check(v)
            table.entries = {args: v for args, v in sorted(table.entries.items()) if v != default}
            if arity == 0 and table.entries:
                table.default = table.entries[()]
                table.entries = {}
        want_funcs = {f for f, ar in self.lang.functions.items() if ar >= 1}
        want_consts = {f for f, ar in self.lang.functions.items() if ar == 0}
        if set(self.functions) != want_funcs:
            raise StructureError("function tables do not match the language")
        if set(self.constants) != want_consts:
            raise StructureError("constant interpretations do not match the language")
        for name, table in self.functions.items():
            arity = self.lang.functions[name]
            need = set(product(self.domain, repeat=arity))
            if set(table) != need:
                raise StructureError(f"function {name!r} must be total on the domain")
            for args, v in table.items():
                if v not in dom:
                    raise StructureError(f"function {name!r} maps {args!r} outside the domain")
            self.functions[name] = dict(sorted(table.items()))
        for name, v in self.constants.items():
            if v not in dom:
                raise StructureError(f"constant {name!r} interpreted outside the domain")
        for name, k in self.lang.algebra_constants.items():
            self.chain.check_element(k)


def eval_term(struct: Structure, term: Term, valuation: Valuation) -> str:
    """The element a closed-under-``valuation`` term denotes."""
    if isinstance(term, Var):
        try:
            return valuation[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r}") from None
    if term.func in struct.constants and not term.args:
        return struct.constants[term.func]
    _check_application(struct, term)
    args = tuple(eval_term(struct, a, valuation) for a in term.args)
    try:
        return struct.functions[term.func][args]
    except KeyError:
        _check_valuation(struct, valuation)  # raises for the element outside the domain
        raise


def _check_application(struct: Structure, term: App) -> None:
    """An :class:`EvaluationError` for an unknown function symbol, or one
    applied to the wrong number of arguments (a constant to any)."""
    arity = struct.lang.functions.get(term.func)
    if arity is None:
        raise EvaluationError(f"unknown function symbol {term.func!r}")
    if len(term.args) != arity:
        raise EvaluationError(
            f"function {term.func!r} applied to {len(term.args)} argument(s), expected {arity}"
        )


def evaluate(struct: Structure, phi: Formula, valuation: Valuation | None = None) -> int:
    """The truth value of ``phi`` in ``struct`` under ``valuation``."""
    valuation = valuation or {}
    _check_valuation(struct, valuation)
    return _value(struct, phi, valuation)


def _check_valuation(struct: Structure, valuation: Valuation) -> None:
    for name, element in valuation.items():
        if element not in struct.domain:
            raise EvaluationError(f"variable {name!r} is assigned {element!r}, outside the domain")


def _atom_table(struct: Structure, atom: Atom) -> PredTable | None:
    """The table ``atom`` reads, or None for an algebra constant; an
    :class:`EvaluationError` for an atom that ``struct`` cannot value."""
    if atom.pred in struct.lang.algebra_constants:
        if atom.args:
            raise EvaluationError(f"algebra constant {atom.pred!r} takes no arguments")
        return None
    table = struct.predicates.get(atom.pred)
    if table is None:
        raise EvaluationError(f"unknown predicate symbol {atom.pred!r}")
    if len(atom.args) != table.arity:
        raise EvaluationError(
            f"predicate {atom.pred!r} applied to {len(atom.args)} argument(s), "
            f"expected {table.arity}"
        )
    return table


def _value(struct: Structure, f: Formula, env: Valuation) -> int:
    # Module level, not a closure in evaluate: a recursive closure refers to
    # itself, so each evaluate call would leave a cycle for the cyclic garbage
    # collector, whose passes took about 15% of solver time.
    chain = struct.chain
    if isinstance(f, Atom):
        table = _atom_table(struct, f)
        if table is None:
            return struct.lang.algebra_constants[f.pred]
        return table.value(tuple(eval_term(struct, t, env) for t in f.args))
    if isinstance(f, Equals):
        return chain.top if eval_term(struct, f.left, env) == eval_term(struct, f.right, env) else 0
    if isinstance(f, TruthConst):
        if f.element is None:
            return chain.top
        if not 0 <= f.element < chain.size:
            raise EvaluationError(
                f"truth constant @{f.element} outside the {chain.size}-element chain"
            )
        return f.element
    if isinstance(f, StrongAnd):
        return chain.tnorm[_value(struct, f.left, env)][_value(struct, f.right, env)]
    if isinstance(f, WeakAnd):
        return min(_value(struct, f.left, env), _value(struct, f.right, env))
    if isinstance(f, Or):
        return max(_value(struct, f.left, env), _value(struct, f.right, env))
    if isinstance(f, Implies):
        return chain.residuum[_value(struct, f.left, env)][_value(struct, f.right, env)]
    if isinstance(f, Forall):
        acc = chain.top
        for e in struct.domain:
            acc = min(acc, _value(struct, f.body, {**env, f.var: e}))
            if acc == 0:
                break
        return acc
    if isinstance(f, Exists):
        acc, top = 0, chain.top
        for e in struct.domain:
            acc = max(acc, _value(struct, f.body, {**env, f.var: e}))
            if acc == top:
                break
        return acc
    raise EvaluationError(f"cannot evaluate node {type(f).__name__}")


def is_model(struct: Structure, sentences: Iterable[Formula]) -> bool:
    """True when every sentence takes the top value."""
    for phi in sentences:
        fv = free_vars(phi)
        if fv:
            raise EvaluationError(f"not a sentence, free variables {sorted(fv)}")
        if evaluate(struct, phi) != struct.chain.top:
            return False
    return True


# --- expansions and the diagram -----------------------------------------------

def named_constant(element: str) -> str:
    """The reserved constant name for a domain element."""
    return NAMED_CONSTANT_PREFIX + element


def truth_constant_name(k: int) -> str:
    """The reserved algebra-constant name for chain element ``k``."""
    return TRUTH_CONSTANT_PREFIX + str(k)


def _expansion(struct: Structure, functions, constants, algebra_constants) -> Structure:
    """A copy of ``struct`` whose language has the given function and
    algebra-constant symbols, with ``constants`` interpreting the 0-ary ones."""
    lang = Language(
        predicates=dict(struct.lang.predicates),
        functions=functions,
        algebra_constants=algebra_constants,
    )
    return Structure(
        chain=struct.chain,
        lang=lang,
        domain=struct.domain,
        predicates={p: PredTable(t.arity, t.default, dict(t.entries)) for p, t in struct.predicates.items()},
        functions={f: dict(t) for f, t in struct.functions.items()},
        constants=constants,
    )


def expand_with_names(struct: Structure) -> Structure:
    """Expand with one fresh individual constant per domain element.

    Idempotent: constants already present with the right interpretation are
    kept; a clash with an unrelated symbol of the same name is an error.
    """
    lang = struct.lang
    functions = dict(lang.functions)
    constants = dict(struct.constants)
    for e in struct.domain:
        name = named_constant(e)
        if not is_symbol_name(name):
            raise StructureError(
                f"element {e!r} does not yield a usable constant name; rename the domain first"
            )
        if name in lang.predicates or name in lang.algebra_constants:
            raise StructureError(f"cannot add constant {name!r}: name already in use")
        if name in functions:
            if functions[name] != 0 or constants.get(name) != e:
                raise StructureError(f"cannot add constant {name!r}: name already in use")
            continue
        functions[name] = 0
        constants[name] = e
    return _expansion(struct, functions, constants, dict(lang.algebra_constants))


def expand_with_truth_constants(struct: Structure) -> Structure:
    """Standard expansion: add an algebra constant for every chain element."""
    lang = struct.lang
    algebra_constants = dict(lang.algebra_constants)
    for k in range(struct.chain.size):
        name = truth_constant_name(k)
        if name in lang.predicates or name in lang.functions:
            raise StructureError(f"cannot add truth constant {name!r}: name already in use")
        if algebra_constants.get(name, k) != k:
            raise StructureError(f"cannot add truth constant {name!r}: name already in use")
        algebra_constants[name] = k
    return _expansion(struct, dict(lang.functions), dict(struct.constants), algebra_constants)


def _diagram_terms(expanded: Structure) -> list[tuple[Term, str]]:
    """Closed terms used by the diagram, with their values: every individual
    constant, then one layer of function applications over those."""
    base: list[tuple[Term, str]] = []
    for e in expanded.domain:
        base.append((App(named_constant(e)), e))
    for name in sorted(expanded.constants):
        is_element_name = (
            name.startswith(NAMED_CONSTANT_PREFIX)
            and expanded.constants[name] == name[len(NAMED_CONSTANT_PREFIX):]
        )
        if not is_element_name:
            base.append((App(name), expanded.constants[name]))
    out = list(base)
    for fname in sorted(expanded.functions):
        arity = expanded.lang.functions[fname]
        for combo in product(base, repeat=arity):
            args = tuple(t for t, _ in combo)
            vals = tuple(v for _, v in combo)
            out.append((App(fname, args), expanded.functions[fname][vals]))
    return out


def diagram(struct: Structure) -> list[Formula]:
    """All atomic sentences over the name expansion that hold with value top.

    Terms are the element names, the original constants, and single function
    applications over those; deeper terms denote elements that already carry
    a name, so this finite slice determines the same expansions.
    """
    expanded = expand_with_names(struct)
    top = struct.chain.top
    terms = _diagram_terms(expanded)
    out: list[Formula] = []
    for pname in sorted(expanded.lang.predicates):
        table = expanded.predicates[pname]
        for combo in product(terms, repeat=table.arity):
            if table.value(tuple(v for _, v in combo)) == top:
                out.append(Atom(pname, tuple(t for t, _ in combo)))
    for cname in sorted(expanded.lang.algebra_constants):
        if expanded.lang.algebra_constants[cname] == top:
            out.append(Atom(cname, ()))
    for t1, v1 in terms:
        for t2, v2 in terms:
            if v1 == v2:
                out.append(Equals(t1, t2))
    return out


# --- JSON serialization ---------------------------------------------------------

def structure_to_dict(struct: Structure) -> dict:
    preds = {}
    for name in sorted(struct.predicates):
        t = struct.predicates[name]
        preds[name] = {
            "arity": t.arity,
            "default": t.default,
            "entries": {",".join(args): v for args, v in sorted(t.entries.items())},
        }
    funcs = {}
    for name in sorted(struct.functions):
        funcs[name] = {
            "arity": struct.lang.functions[name],
            "map": {",".join(args): v for args, v in sorted(struct.functions[name].items())},
        }
    d = {
        "algebra": chain_to_dict(struct.chain),
        "domain": list(struct.domain),
        "predicates": preds,
        "functions": funcs,
        "constants": dict(sorted(struct.constants.items())),
    }
    if struct.lang.algebra_constants:
        d["algebra_constants"] = dict(sorted(struct.lang.algebra_constants.items()))
    return d


def _split_key(key: str, arity: int) -> tuple[str, ...]:
    if arity == 0:
        if key != "":
            raise StructureError(f"0-ary entry key must be empty, got {key!r}")
        return ()
    parts = tuple(key.split(","))
    if len(parts) != arity:
        raise StructureError(f"entry key {key!r} does not have {arity} components")
    return parts


def structure_from_dict(d: dict) -> Structure:
    try:
        chain = chain_from_dict(d["algebra"])
        domain = tuple(d["domain"])
        pred_decl = {}
        preds = {}
        for name, info in d.get("predicates", {}).items():
            arity = info["arity"]
            pred_decl[name] = arity
            entries = {
                _split_key(k, arity): v for k, v in info.get("entries", {}).items()
            }
            preds[name] = PredTable(arity=arity, default=info.get("default", 0), entries=entries)
        func_decl = {}
        funcs = {}
        for name, info in d.get("functions", {}).items():
            arity = info["arity"]
            func_decl[name] = arity
            funcs[name] = {_split_key(k, arity): v for k, v in info.get("map", {}).items()}
        consts = dict(d.get("constants", {}))
        for name in consts:
            func_decl[name] = 0
        lang = Language(
            predicates=pred_decl,
            functions=func_decl,
            algebra_constants=dict(d.get("algebra_constants", {})),
        )
    except (KeyError, TypeError, AttributeError, ChainError, LanguageError) as exc:
        raise StructureError(f"malformed structure data: {exc}") from exc
    return Structure(
        chain=chain, lang=lang, domain=domain, predicates=preds, functions=funcs, constants=consts
    )


def dumps_structure(struct: Structure) -> str:
    """Canonical JSON text; equal structures give identical bytes."""
    return json.dumps(structure_to_dict(struct), indent=2, sort_keys=True) + "\n"


def loads_structure(text: str) -> Structure:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"not valid JSON: {exc}") from exc
    return structure_from_dict(data)


def save_structure(struct: Structure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_structure(struct))


def load_structure(path) -> Structure:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_structure(fh.read())
