"""Command-line front end.

Subcommands: eval, solve, classify, normalize, hom, product, diagram, check.
Exit codes: 0 success, 1 usage or formula error, 2 check violation,
3 inconclusive check, 4 unreadable or malformed input file.  Output is a
pure function of the inputs; ``--json`` switches to machine-readable output
that feeds back into the structure and formula parsers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from functools import partial

from . import harness, morphisms, products, solver
from .structures import (
    EvaluationError,
    StructureError,
    diagram,
    dumps_structure,
    evaluate,
    load_structure,
)
from .syntax import (
    FormulaError,
    Language,
    classify,
    ep_to_pp_disjunction,
    free_vars,
    infer_formula,
    parse_formula,
    to_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_INPUT = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load(path):
    try:
        return load_structure(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (StructureError, ValueError) as exc:
        raise _InputError(f"bad structure file {path}: {exc}") from exc


class _InputError(Exception):
    pass


# Everything main reports with EXIT_USAGE; an _InputError gets EXIT_INPUT.
_USAGE_ERRORS = (
    UsageError, FormulaError, EvaluationError, StructureError,
    morphisms.MorphismError, products.ProductError, harness.HarnessError,
)


def _formula(args):
    """``--formula`` in the language of ``--structure``, or in one inferred without it."""
    if args.structure:
        return parse_formula(args.formula, _load(args.structure).lang)
    return infer_formula(args.formula)[0]


def _parse_assignments(pairs, domain):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--assign expects var=element, got {item!r}")
        var, _, elem = item.partition("=")
        elem = elem.strip()
        if elem not in domain:
            raise UsageError(f"--assign {item!r}: {elem!r} is not an element of the structure")
        out[var.strip()] = elem
    return out


def _write(path, text, mode="w"):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(payload, as_json, text_lines):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_eval(args) -> int:
    struct = _load(args.structure)
    phi = parse_formula(args.formula, struct.lang)
    valuation = _parse_assignments(args.assign, struct.domain)
    value = evaluate(struct, phi, valuation)
    label = struct.chain.label(value)
    _emit({"value": value, "label": label}, args.json, [f"value {value} ({label})"])
    return EXIT_OK


def cmd_solve(args) -> int:
    struct = _load(args.structure)
    phi = parse_formula(args.formula, struct.lang)
    result = solver.solve_ep(struct, phi)
    label = struct.chain.label(result.value)
    payload = {
        "value": result.value,
        "label": label,
        "decided_top": result.decided_top,
        "witness": dict(sorted(result.witness.items())),
    }
    lines = [
        f"value {result.value} ({label})",
        f"decided_top {str(result.decided_top).lower()}",
    ]
    if result.witness:
        lines.append("witness " + ",".join(f"{v}={e}" for v, e in sorted(result.witness.items())))
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_classify(args) -> int:
    phi = _formula(args)
    tags = sorted(classify(phi))
    fv = sorted(free_vars(phi))
    _emit(
        {"tags": tags, "free_variables": fv},
        args.json,
        ["tags " + (" ".join(tags) if tags else "-"), "free " + (" ".join(fv) if fv else "-")],
    )
    return EXIT_OK


def cmd_normalize(args) -> int:
    phi = _formula(args)
    out = [to_text(d) for d in ep_to_pp_disjunction(phi)]
    _emit({"formulas": out}, args.json, out)
    return EXIT_OK


def cmd_hom(args) -> int:
    source = _load(args.source)
    target = _load(args.target)
    limit = None if args.all else (args.limit if args.limit is not None else 1)
    found = morphisms.find_homomorphisms(source, target, limit=limit)
    _emit(
        {"homomorphisms": [morphisms.mapping_to_dict(g) for g in found]},
        args.json,
        [",".join(f"{e}->{t}" for e, t in sorted(g.items())) for g in found],
    )
    return EXIT_OK


def cmd_product(args) -> int:
    factors = [_load(path) for path in args.factors]
    result = products.weak_product(factors, policy=args.weak, seed=args.seed)
    text = dumps_structure(result)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_diagram(args) -> int:
    struct = _load(args.structure)
    sentences = [to_text(s) for s in diagram(struct)]
    _emit({"sentences": sentences}, args.json, sentences)
    return EXIT_OK


DEFAULT_CLOSURE_AXIOMS = ["E x . P(x)"]


def cmd_check(args) -> int:
    cfg = harness.GenConfig(**{f.name: getattr(args, f.name) for f in fields(harness.GenConfig)})
    if args.suite == "closure":
        lines = DEFAULT_CLOSURE_AXIOMS
        if args.axioms:
            try:
                with open(args.axioms, "r", encoding="utf-8") as fh:
                    lines = [ln.strip() for ln in fh if ln.strip()]
            except OSError as exc:
                raise _InputError(f"cannot read {args.axioms}: {exc}") from exc
        lang: Language | None = None
        axioms = []
        for ln in lines:
            phi, lang = infer_formula(ln, lang)
            axioms.append(phi)
        assert lang is not None
        run = partial(harness.check_pp_theory_closure, cfg, axioms, lang)
    else:
        run = partial(harness.SUITES[args.suite], cfg)
    if args.report:
        # Fail before the trials rather than after them; appending nothing
        # leaves an existing file as it is until the report replaces it.
        _write(args.report, "", "a")
    report = run()
    payload = report.to_dict()
    if args.report:
        _write(args.report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _emit(
        payload,
        args.json,
        [
            f"suite {report.suite}",
            f"trials {report.trials}",
            f"effective {report.effective}",
            f"skipped {report.skipped}",
            f"violations {len(report.violations)}",
            f"verdict {report.verdict}",
        ],
    )
    if report.verdict == harness.FAIL:
        return EXIT_VIOLATION
    if report.verdict == harness.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvmt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula in a structure")
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", action="append", metavar="VAR=ELEM")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="solve a pp or existential positive sentence")
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="report fragment membership")
    p.add_argument("--formula", required=True)
    p.add_argument("--structure")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("normalize", help="rewrite into the layered normal form")
    p.add_argument("--formula", required=True)
    p.add_argument("--structure")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("hom", help="search for homomorphisms")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    limits = p.add_mutually_exclusive_group()
    limits.add_argument("--all", action="store_true")
    limits.add_argument("--limit", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("product", help="build a (weak) direct product")
    p.add_argument("factors", nargs="+")
    p.add_argument("--weak", choices=list(products.POLICIES), default="min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("diagram", help="emit the atomic diagram")
    p.add_argument("--structure", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("check", help="run a preservation check suite")
    p.add_argument("--suite", choices=["hom", "product", "closure", "ep"], required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--max-domain", type=int, dest="max_domain")
    p.add_argument("--max-chain", type=int, dest="max_chain")
    p.add_argument("--max-depth", type=int, dest="max_depth")
    p.add_argument("--allow-implication", action="store_true", dest="allow_implication")
    p.add_argument("--axioms", help="file of pp sentences for the closure suite")
    p.add_argument("--report", help="write the full report as JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check, **asdict(harness.GenConfig()))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
