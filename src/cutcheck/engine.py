"""LD-derivations and LD-trees: leftmost selection, ordered clause choice.

A derivation step either resolves the leftmost atom against a renamed-apart
program clause (standard SLD step with an idempotent relevant mgu) or, when
the leftmost atom is ``!``, simply drops it (cut consumption; the pruning
semantics lives in a separate module).  Nodes are materialised under an
explicit budget, breadth-first for the whole tree or on demand for the pruned
one; anything unexpanded is marked Truncated, never silently dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .terms import (
    CUT,
    Clause,
    EMPTY_SUBST,
    FreshNames,
    Pred,
    Subst,
    apply,
    rename_apart,
    resolve,
    unify,
    vars_of,
)


@dataclass(frozen=True)
class Budget:
    """Search bounds: enumeration depth, total tree nodes, derivation steps."""

    depth: int = 3
    nodes: int = 50_000
    steps: int = 200_000


@dataclass(frozen=True)
class Program:
    clauses: tuple = ()
    _index: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict = {}
        for i, c in enumerate(self.clauses):
            index.setdefault((c.head.name, len(c.head.args)), []).append((i, c))
        object.__setattr__(self, "_index", index)

    def matching(self, atom: Pred) -> list:
        """The (index, clause) pairs whose head has the atom's name and arity,
        in clause order.  The list is shared: callers must not modify it."""
        return self._index.get((atom.name, len(atom.args)), [])


@dataclass(frozen=True)
class LdStep:
    """One derivation step: the mgu and the clause variant used.

    The mgu is this step's own, not composed with the steps above it; the
    substitution a node's query carries from the root is resolved only where
    it is needed, at success leaves (``computed_answer``).  A cut-consumption
    step has ``clause_index is None`` and an empty mgu.
    """

    mgu: Subst
    clause_index: Optional[int] = None
    clause_variant: Optional[Clause] = None


OPEN = "open"
SUCCESS = "success"
FAILURE = "failure"
TRUNCATED = "truncated"


@dataclass
class Node:
    """A derivation node: its query, already instantiated by every mgu on its
    root path, and the step that produced it from its parent (None at the
    root).  Only the step's own mgu is kept; see ``computed_answer``."""

    id: int
    query: tuple
    origins: tuple  # per atom: id of the node whose clause application introduced it
    parent: Optional[int]
    step: Optional[LdStep]
    depth: int
    children: list = field(default_factory=list)
    status: str = OPEN


class LdTree:
    """An arena of derivation nodes; node 0 is the root."""

    def __init__(self, query: tuple, nodes: list):
        self.query = query
        self.nodes = nodes

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def __len__(self):
        return len(self.nodes)

    @property
    def ids(self) -> range:
        return range(len(self.nodes))

    @property
    def exact(self) -> bool:
        return all(n.status != TRUNCATED for n in self.nodes)

    def ancestors(self, nid: int) -> list:
        """Node ids from the root down to (and including) nid."""
        chain = []
        cur: Optional[int] = nid
        while cur is not None:
            chain.append(cur)
            cur = self.nodes[cur].parent
        chain.reverse()
        return chain


def ld_expand(program: Program, query: tuple, forbidden: set, fresh: FreshNames):
    """All LD-resolvents of a query, in clause order.

    Returns a list of (child query, step).  ``forbidden`` is extended with the
    variables of each clause variant used, keeping the whole derivation
    standardized apart.
    """
    if not query:
        return []
    selected = query[0]
    if selected is CUT:
        return [(query[1:], LdStep(EMPTY_SUBST, None, None))]
    out = []
    for idx, clause in program.matching(selected):
        variant = rename_apart(clause, forbidden, fresh)
        theta = unify(selected, variant.head)
        if theta is None:
            continue
        forbidden.update(vars_of(variant))
        child = apply(theta, variant.body + query[1:])
        out.append((child, LdStep(theta, idx, variant)))
    return out


class TreeBuilder:
    """Materialises LD-tree nodes on demand under a budget.

    ``budget.steps`` caps the derivation length (tree depth); ``budget.nodes``
    caps the number of materialised nodes.  The whole derivation is kept
    standardized apart, whatever order the nodes are expanded in.
    """

    def __init__(self, program: Program, query: tuple, budget: Optional[Budget] = None):
        self.program = program
        self.budget = budget or Budget()
        self.fresh = FreshNames()
        self.forbidden = set(vars_of(query))
        root = Node(0, query, tuple(None for _ in query), None, None, 0)
        self.tree = LdTree(query, [root])

    def expand(self, nid: int) -> list:
        """Set the status of node ``nid`` and materialise its children.

        Returns the ids of the new children; a node that could not be fully
        expanded is Truncated and gets none.
        """
        nodes = self.tree.nodes
        node = nodes[nid]
        if not node.query:
            node.status = SUCCESS
            return []
        if node.depth >= self.budget.steps:
            node.status = TRUNCATED
            return []
        expansions = ld_expand(self.program, node.query, self.forbidden, self.fresh)
        if not expansions:
            node.status = FAILURE
            return []
        if len(nodes) + len(expansions) > self.budget.nodes:
            node.status = TRUNCATED
            return []
        for child_query, step in expansions:
            if step.clause_index is None:
                child_origins = node.origins[1:]
            else:
                body_len = len(step.clause_variant.body)
                child_origins = tuple(nid for _ in range(body_len)) + node.origins[1:]
            child = Node(len(nodes), child_query, child_origins, nid, step, node.depth + 1)
            nodes.append(child)
            node.children.append(child.id)
        return node.children


def build_tree(program: Program, query: tuple, budget: Optional[Budget] = None) -> LdTree:
    """Breadth-first construction of the whole LD-tree under a budget (see
    ``TreeBuilder``).  Nodes that could not be fully expanded are Truncated."""
    builder = TreeBuilder(program, query, budget)
    queue: deque = deque([0])
    while queue:
        queue.extend(builder.expand(queue.popleft()))
    return builder.tree


@dataclass(frozen=True)
class PreorderResult:
    ids: tuple
    exact: bool


def preorder(tree: LdTree, kept=None) -> PreorderResult:
    """Left-to-right preorder that never visits anything to the right of a
    possibly-infinite (Truncated-containing) subtree at any level."""
    ids: list = []
    if kept is not None and 0 not in kept:
        return PreorderResult((), True)

    def push(nid: int):
        ids.append(nid)
        node = tree.nodes[nid]
        children = iter(
            c for c in node.children if kept is None or c in kept
        )
        # frame: [child iterator, subtree-exact-so-far]
        stack.append([children, node.status != TRUNCATED])

    stack: list = []
    push(0)
    root_exact = True
    while stack:
        frame = stack[-1]
        child = next(frame[0], None) if frame[1] else None
        if child is not None:
            push(child)
            continue
        stack.pop()
        if stack:
            # report this subtree's exactness to the parent; a non-exact
            # child stops the parent from moving further right
            if not frame[1]:
                stack[-1][1] = False
        else:
            root_exact = frame[1]
    return PreorderResult(tuple(ids), root_exact)


def computed_answer(tree: LdTree, nid: int) -> tuple:
    """The root query under the composition of the step mgus from the root
    down to node ``nid``.

    The derivation is standardized apart and each mgu is idempotent, so the
    step mgus have disjoint domains and no later step binds a variable an
    earlier one eliminated: their union is a triangular binding map, and
    resolving the query through it once gives the composed instance.
    """
    bindings: dict = {}
    nodes = tree.nodes
    cur: Optional[int] = nid
    while cur is not None:
        node = nodes[cur]
        if node.step is not None:
            bindings.update(node.step.mgu.items())
        cur = node.parent
    return resolve(bindings, tree.query)


def answers(tree: LdTree) -> list:
    """Computed answers (root query instances) of Success leaves, in preorder."""
    seq = preorder(tree)
    return [computed_answer(tree, nid) for nid in seq.ids if tree.nodes[nid].status == SUCCESS]


# ---------------------------------------------------------------------------
# Derivations (single branches) and subderivations
# ---------------------------------------------------------------------------


@dataclass
class Derivation:
    """A single branch: queries Q_0..Q_n and the steps between them."""

    queries: list
    steps: list  # len == len(queries) - 1

    def __len__(self):
        return len(self.queries)


def branch_derivation(tree: LdTree, nid: int) -> Derivation:
    chain = tree.ancestors(nid)
    return Derivation(
        [tree.nodes[i].query for i in chain],
        [tree.nodes[i].step for i in chain[1:]],
    )


def subderivation(d: Derivation, j: int, prefix_len: int):
    """The subderivation for the length-``prefix_len`` prefix of Q_j.

    Writing Q_j = (B, A), follows the derivation until some Q_m equals A
    instantiated by the intervening mgus (the prefix has fully succeeded).
    Returns (Derivation slice, succeeded, answer) where ``answer`` is the
    instantiated prefix when the subderivation succeeds, else None.
    """
    if not 0 <= j < len(d.queries):
        raise IndexError(f"query index {j} out of range")
    q = d.queries[j]
    if not 0 <= prefix_len <= len(q):
        raise IndexError(f"prefix length {prefix_len} out of range")
    suffix = q[prefix_len:]
    prefix = q[:prefix_len]
    inst_suffix = suffix
    inst_prefix = prefix
    for m in range(j, len(d.queries)):
        if m > j:
            theta = d.steps[m - 1].mgu
            inst_suffix = apply(theta, inst_suffix)
            inst_prefix = apply(theta, inst_prefix)
        if d.queries[m] == inst_suffix:
            return (
                Derivation(d.queries[j : m + 1], d.steps[j:m]),
                True,
                inst_prefix,
            )
    return (Derivation(d.queries[j:], d.steps[j:]), False, None)
