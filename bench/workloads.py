"""The four benchmark workloads: seeded item generation, the timed call into
the package's public functions, and the oracle that checks each output.

An item is the unit timed from outside.  ``build_items`` is the set-up work
(instance generation and parsing); ``run_item`` is the only code inside the
timed region; ``check_item`` compares the output against an oracle that
shares no code path with the function under test and returns False on any
disagreement.
"""

from __future__ import annotations

import random
from itertools import product

import mvmt.algebra as algebra
import mvmt.harness as harness
import mvmt.morphisms as morphisms
import mvmt.solver as solver
import mvmt.syntax as syntax
from mvmt.structures import PredTable, Structure

import oracles

WORKLOADS = ("check-product", "check-hom-ep", "hom-search", "solve")

# Items whose full map space |N|^|M| is at most this are also checked against
# exhaustive lexicographic enumeration.
EXHAUSTIVE_MAP_SPACE = 4096

_PAIR_LANG = syntax.Language(predicates={"P": 2, "Q": 1}, functions={"f": 1, "c": 0})
_GRAPH_LANG = syntax.Language(predicates={"Adj": 2})
_PP_LANG = syntax.Language(predicates={"R": 2, "S": 2, "T": 2})
_EP_LANG = syntax.Language(predicates={"P": 1, "Q": 2}, functions={"f": 1})
_CONJUNCTIONS = ("&", "/\\")
_EP_ATOMS = (
    "P(x)", "P(y)", "P(f(x))", "P(f(y))", "Q(x, y)", "Q(y, x)", "Q(x, f(y))",
    "x = y", "x = f(y)", "f(x) = y",
)


class Item:
    """One timed unit: ``kind`` selects the call, ``args`` holds its inputs."""

    __slots__ = ("index", "kind", "args")

    def __init__(self, index: int, kind: str, args):
        self.index = index
        self.kind = kind
        self.args = args


def item_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"bench:{workload}:{seed}")
    return [rng.getrandbits(40) for _ in range(count)]


# --- instance generation (set-up) ---------------------------------------------------

def _graph_structure(domain: tuple[str, ...], edges) -> Structure:
    """A loopless undirected graph as a Boolean structure with one
    symmetric binary predicate."""
    entries = {}
    for u, v in edges:
        entries[(u, v)] = 1
        entries[(v, u)] = 1
    return Structure(
        chain=algebra.make_godel(2),
        lang=_GRAPH_LANG,
        domain=domain,
        predicates={"Adj": PredTable(2, 0, entries)},
    )


def random_graph(rng: random.Random, n: int, edges: int) -> Structure:
    domain = tuple(f"v{i}" for i in range(n))
    pairs = [(u, v) for i, u in enumerate(domain) for v in domain[i + 1:]]
    return _graph_structure(domain, rng.sample(pairs, edges))


def complete_graph(n: int) -> Structure:
    domain = tuple(f"k{i}" for i in range(n))
    return _graph_structure(domain, [(u, v) for i, u in enumerate(domain) for v in domain[i + 1:]])


def cycle_graph(n: int) -> Structure:
    domain = tuple(f"v{i}" for i in range(n))
    return _graph_structure(domain, [(domain[i], domain[(i + 1) % n]) for i in range(n)])


def _dense_structure(rng: random.Random, chain, lang, size: int) -> Structure:
    domain = tuple(f"e{i}" for i in range(size))
    predicates = {}
    for name, arity in lang.predicates.items():
        # Dense and top-heavy, so the value bound prunes late.
        entries = {
            args: chain.top if rng.random() < 0.6 else rng.randrange(chain.size)
            for args in product(domain, repeat=arity)
        }
        predicates[name] = PredTable(arity, 0, entries)
    functions = {
        name: {(a,): rng.choice(domain) for a in domain}
        for name, arity in lang.functions.items()
        if arity == 1
    }
    return Structure(chain=chain, lang=lang, domain=domain, predicates=predicates, functions=functions)


def _pp_text(rng: random.Random, k: int) -> str:
    names = [f"x{i}" for i in range(1, k + 1)]
    atoms = []
    for j in range(20):
        # Every variable occurs at least once; the rest are random pairs.
        u = names[j] if j < k else rng.choice(names)
        v = rng.choice([n for n in names if n != u])
        atoms.append(f"{rng.choice('RST')}({u}, {v})")
    text = atoms[0]
    for atom in atoms[1:]:
        text = f"({text} {rng.choice(_CONJUNCTIONS)} {atom})"
    return f"E {' '.join(names)} . {text}"


def _ep_text(rng: random.Random) -> str:
    # Five clauses expand to 3^5 = 243 pp disjuncts.  Each extra clause
    # triples the cost of the item; a random clause count would make the
    # latency distribution multimodal and its median unsteady.
    clauses = ["(" + " \\/ ".join(rng.sample(_EP_ATOMS, 3)) + ")" for _ in range(5)]
    text = clauses[0]
    for clause in clauses[1:]:
        text = f"({text} {rng.choice(_CONJUNCTIONS)} {clause})"
    return f"E x y . {text}"


def _cell(i: int, *sizes: int) -> list[int]:
    """Item ``i``'s cell in a grid of the given side lengths, visited in
    order.  The size parameters that set an item's cost cycle through every
    combination instead of being drawn, so each run holds the same mix of
    sizes and seeds differ only in the instances drawn within a cell."""
    out = []
    for size in sizes:
        out.append(i % size)
        i //= size
    return out


def build_items(workload: str, seed: int, count: int) -> list[Item]:
    """The first ``count`` items of the workload for ``seed``."""
    items = []
    k3 = complete_graph(3) if workload == "hom-search" else None
    for i, s in enumerate(item_seeds(workload, seed, count)):
        if workload == "check-product":
            items.append(Item(i, "product-trial", harness.GenConfig(seed=s, max_domain=3, trials=1)))
        elif workload == "check-hom-ep":
            kind = "hom-trial" if i % 2 == 0 else "ep-trial"
            items.append(Item(i, kind, harness.GenConfig(seed=s, max_domain=5, trials=1)))
        elif workload == "hom-search":
            rng = random.Random(s)
            vertices, edges = _cell(i, 3, 10)
            graph = random_graph(rng, 14 + vertices, 31 + edges)
            chain = harness.gen_chain(rng, 4)
            m = harness.gen_structure(rng, chain, _PAIR_LANG, 7)
            n = harness.gen_structure(rng, chain, _PAIR_LANG, 7)
            items.append(Item(i, "homs", ((graph, k3), (m, n))))
        elif workload == "solve":
            rng = random.Random(s)
            variables, size, chain = _cell(i, 3, 3, 3)
            pp_struct = _dense_structure(rng, algebra.make_lukasiewicz(3 + chain), _PP_LANG, 4 + size)
            pp = syntax.parse_formula(_pp_text(rng, 8 + variables), _PP_LANG)
            ep_struct = _dense_structure(rng, algebra.make_lukasiewicz(3), _EP_LANG, 2)
            ep = syntax.parse_formula(_ep_text(rng), _EP_LANG)
            items.append(Item(i, "sentences", ((pp_struct, pp), (ep_struct, ep))))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return items


# --- the timed call -------------------------------------------------------------------

def run_item(item: Item):
    kind, args = item.kind, item.args
    if kind == "product-trial":
        return harness.check_product_preservation(args)
    if kind == "hom-trial":
        return harness.check_hom_preservation(args)
    if kind == "ep-trial":
        return harness.check_ep_preservation(args)
    if kind == "homs":
        return [morphisms.find_homomorphisms(m, n, limit=None) for m, n in args]
    (pp_struct, pp), (ep_struct, ep) = args
    return solver.solve_pp(pp_struct, pp), solver.decide_pp_top(pp_struct, pp), solver.solve_ep(ep_struct, ep)


# --- oracles --------------------------------------------------------------------------

def check_item(item: Item, out) -> bool:
    """True when the output agrees with the oracle."""
    kind, args = item.kind, item.args
    if kind.endswith("-trial"):
        # The preservation theorems are the oracle: no trial may violate them.
        return out.trials == 1 and not out.violations
    if kind == "homs":
        (graph, k3), (m, n) = args
        colourings, pair_maps = out
        for maps, (source, target) in zip(out, args):
            if not oracles.lexicographic(maps, source, target):
                return False
            if not oracles.all_homomorphisms(maps, source, target):
                return False
        if len(colourings) != oracles.count_colourings(graph, len(k3.domain)):
            return False
        if len(n.domain) ** len(m.domain) <= EXHAUSTIVE_MAP_SPACE:
            return pair_maps == oracles.exhaustive_homomorphisms(m, n)
        return True
    (pp_struct, pp), (ep_struct, ep) = args
    result, top_witness, ep_result = out
    return oracles.pp_consistent(pp_struct, pp, result, top_witness) and oracles.ep_exact(ep_struct, ep, ep_result)


def self_check() -> list[str]:
    """Run the oracles on instances whose answers are known by hand; the
    descriptions of any that disagree."""
    problems = []
    k3, k4, c5 = complete_graph(3), complete_graph(4), cycle_graph(5)
    if oracles.count_colourings(c5, 3) != 30:
        problems.append("C5 -> K3 colouring count is not 30")
    c5_maps = oracles.exhaustive_homomorphisms(c5, k3)
    if len(c5_maps) != 30 or not oracles.lexicographic(c5_maps, c5, k3):
        problems.append("exhaustive C5 -> K3 enumeration is not 30 ordered maps")
    if oracles.count_colourings(k4, 3) != 0 or oracles.exhaustive_homomorphisms(k4, k3):
        problems.append("K4 -> K3 has maps")
    # Lukasiewicz 3 (tnorm(i, j) = max(0, i + j - 2)) on {a, b}: the four
    # assignments (x, y) give min(P(x) & P(y), Q(x, y) \/ x = f(y)) =
    # (a, a): min(2, 0) = 0; (a, b): min(1, 2) = 1; (b, a): min(1, 2) = 1;
    # (b, b): min(0, 0) = 0; so the sentence has value 1.
    lang = syntax.Language(predicates={"P": 1, "Q": 2}, functions={"f": 1})
    struct = Structure(
        chain=algebra.make_lukasiewicz(3),
        lang=lang,
        domain=("a", "b"),
        predicates={
            "P": PredTable(1, 0, {("a",): 2, ("b",): 1}),
            "Q": PredTable(2, 0, {("a", "b"): 2, ("b", "a"): 1}),
        },
        functions={"f": {("a",): "b", ("b",): "a"}},
    )
    phi = syntax.parse_formula("E x y . (P(x) & P(y)) /\\ (Q(x, y) \\/ x = f(y))", lang)
    names, _ = oracles.split_prefix(phi)
    right = solver.SolveResult(value=1, witness=dict(zip(names, ("a", "b"))), decided_top=False)
    wrong = solver.SolveResult(value=2, witness=dict(zip(names, ("a", "a"))), decided_top=True)
    if not oracles.ep_exact(struct, phi, right) or oracles.ep_exact(struct, phi, wrong):
        problems.append("the hand-valued EP sentence does not have value 1")
    return problems

