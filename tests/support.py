"""Shared test helpers, chiefly the independent reference evaluator.

The reference evaluator below is a direct transliteration of the defining
clauses: it reads the raw tables, takes min/max over whole comprehension
lists (no early exit, no pruning) and recomputes implication from the
conjunction table by maximizing the adjoint directly, so it shares no code
path with the library evaluator it is used to check.
"""

from mvmt import Language, PredTable, Structure
from mvmt.syntax import (
    Atom,
    Equals,
    Exists,
    Forall,
    Implies,
    Or,
    StrongAnd,
    TruthConst,
    Var,
    WeakAnd,
)


def ref_eval_term(struct, term, valuation):
    if isinstance(term, Var):
        return valuation[term.name]
    if term.func in struct.constants:
        return struct.constants[term.func]
    args = tuple(ref_eval_term(struct, a, valuation) for a in term.args)
    return struct.functions[term.func][args]


def ref_evaluate(struct, phi, valuation=None):
    v = dict(valuation or {})
    chain = struct.chain
    top = chain.size - 1

    def residuum(x, y):
        return max(z for z in range(chain.size) if chain.tnorm[x][z] <= y)

    def go(f, env):
        if isinstance(f, Atom):
            if f.pred in struct.lang.algebra_constants:
                if f.args:
                    raise ValueError(f"algebra constant {f.pred!r} takes no arguments")
                return struct.lang.algebra_constants[f.pred]
            table = struct.predicates[f.pred]
            key = tuple(ref_eval_term(struct, t, env) for t in f.args)
            return table.entries[key] if key in table.entries else table.default
        if isinstance(f, Equals):
            return top if ref_eval_term(struct, f.left, env) == ref_eval_term(struct, f.right, env) else 0
        if isinstance(f, TruthConst):
            return top if f.element is None else f.element
        if isinstance(f, StrongAnd):
            return chain.tnorm[go(f.left, env)][go(f.right, env)]
        if isinstance(f, WeakAnd):
            return min(go(f.left, env), go(f.right, env))
        if isinstance(f, Or):
            return max(go(f.left, env), go(f.right, env))
        if isinstance(f, Implies):
            return residuum(go(f.left, env), go(f.right, env))
        if isinstance(f, Forall):
            return min([go(f.body, {**env, f.var: a}) for a in struct.domain])
        if isinstance(f, Exists):
            return max([go(f.body, {**env, f.var: a}) for a in struct.domain])
        raise AssertionError(f"unexpected node {type(f)}")

    return go(phi, v)


def build(chain, domain, preds=None, funcs=None, consts=None, algebra_consts=None):
    """Compact structure builder for tests.

    ``preds`` maps a name to ``(arity, default, {args_tuple: value})``;
    ``funcs`` maps a name to a total ``{args_tuple: element}`` table.
    """
    preds = preds or {}
    funcs = funcs or {}
    consts = consts or {}
    lang = Language(
        predicates={p: spec[0] for p, spec in preds.items()},
        functions={**{f: len(next(iter(t))) for f, t in funcs.items()}, **{c: 0 for c in consts}},
        algebra_constants=dict(algebra_consts or {}),
    )
    return Structure(
        chain=chain,
        lang=lang,
        domain=tuple(domain),
        predicates={
            p: PredTable(arity=spec[0], default=spec[1], entries=dict(spec[2]))
            for p, spec in preds.items()
        },
        functions={f: dict(t) for f, t in funcs.items()},
        constants=dict(consts),
    )
