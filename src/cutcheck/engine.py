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
from typing import Optional

from .terms import (
    CUT,
    FreshNames,
    Pred,
    apply,
    renaming,
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
    # per clause: its variable names in first-occurrence order, for every step that renames it
    clause_vars: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict = {}
        for i, c in enumerate(self.clauses):
            index.setdefault((c.head.name, len(c.head.args)), []).append((i, c))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "clause_vars", tuple(tuple(vars_of(c)) for c in self.clauses))

    def matching(self, atom: Pred) -> list:
        """The (index, clause) pairs whose head has the atom's name and arity,
        in clause order.  The list is shared: callers must not modify it."""
        return self._index.get((atom.name, len(atom.args)), [])


OPEN = "open"
SUCCESS = "success"
FAILURE = "failure"
TRUNCATED = "truncated"


@dataclass
class Node:
    """A derivation node: its query, already instantiated by every mgu on its
    root path, and the mgu of the step that produced it from its parent
    (empty at the root).  The mgu is the step's own, not composed with the
    steps above it; the pruned-tree walk keeps the bindings of the root path
    and resolves the query through them only at success leaves."""

    id: int
    query: tuple
    origins: tuple  # per atom: id of the node whose clause application introduced it
    parent: Optional[int]
    mgu: dict
    depth: int
    children: list = field(default_factory=list)
    status: str = OPEN


class LdTree:
    """An arena of derivation nodes; node 0 is the root."""

    def __init__(self, query: tuple, nodes: list):
        self.query = query
        self.nodes = nodes

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


def head_step(program: Program, idx: int, atom: Pred, forbidden: set, fresh: FreshNames):
    """Unify ``atom`` with the head of clause ``idx`` renamed apart from
    ``forbidden``: ``(theta, rho)``, the mgu and the renaming, or None.  The
    renaming advances ``fresh`` either way; ``forbidden`` gains the renamed
    clause's names on success only, and the caller builds the body."""
    names = program.clause_vars[idx]
    rho = renaming(names, forbidden, fresh) if names else {}
    theta = unify(atom, apply(rho, program.clauses[idx].head))
    if theta is None:
        return None
    forbidden.update(names, [v.name for v in rho.values()])  # names rho renames are in it already
    return theta, rho


def ld_expand(program: Program, query: tuple, forbidden: set, fresh: FreshNames):
    """All LD-resolvents of a query, in clause order.

    Returns a list of (child query, mgu): the clause body under theta after
    rho in one pass, then the tail under theta.  ``forbidden`` is extended
    with the variables of each clause variant used, keeping the whole
    derivation standardized apart.

    ``forbidden`` must hold every variable of ``query``.
    """
    if not query:
        return []
    selected = query[0]
    tail = query[1:]
    if selected is CUT:
        return [(tail, {})]
    out = []
    for idx, clause in program.matching(selected):
        step = head_step(program, idx, selected, forbidden, fresh)
        if step is None:
            continue
        theta, rho = step
        sigma = {**theta, **{n: theta.get(r.name, r) for n, r in rho.items()}} if rho else theta
        out.append((apply(sigma, clause.body) + apply(theta, tail), theta))
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
        root = Node(0, query, tuple(None for _ in query), None, {}, 0)
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
        tail_origins = node.origins[1:]
        for child_query, mgu in expansions:
            # the atoms before the tail are the clause body, introduced here
            child_origins = (nid,) * (len(child_query) - len(tail_origins)) + tail_origins
            child = Node(len(nodes), child_query, child_origins, nid, mgu, node.depth + 1)
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
