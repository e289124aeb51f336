"""LD-derivations and LD-trees: leftmost selection, ordered clause choice.

A derivation step either resolves the leftmost atom against a renamed-apart
program clause (standard SLD step) or, when the leftmost atom is ``!``,
simply drops it (cut consumption; the pruning semantics lives in a separate
module).  Nodes are materialised under an explicit budget, breadth-first for
the whole tree or on demand for the pruned one; anything unexpanded is
marked Truncated, never silently dropped.

A node's goal list is a cell ``(first atom, rest, length)``, ``EMPTY`` the
empty list.  A step conses the renamed clause body onto the cell of the
goals after the selected atom, which its parent holds too, and binds only
in its own mgu: the goals stay as the clauses wrote them, and the bindings
of a node's root path resolve them (``resolved_queries``).  So a step costs
time in the clause and the terms it unifies, not in the length of the goal
list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .terms import (
    CUT,
    FreshNames,
    Pred,
    _unify_pairs,
    apply,
    renaming,
    resolve,
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


OPEN = "open"
SUCCESS = "success"
FAILURE = "failure"
TRUNCATED = "truncated"


EMPTY = (None, None, 0)  # the empty goal list


def goal_list(atoms: tuple, rest: tuple = EMPTY) -> tuple:
    """The goal list of ``atoms`` followed by the goal list ``rest``."""
    for atom in reversed(atoms):
        rest = (atom, rest, rest[2] + 1)
    return rest


def goal_atoms(goals: tuple) -> tuple:
    """The atoms of a goal list, as written."""
    out = []
    while goals[2]:
        out.append(goals[0])
        goals = goals[1]
    return tuple(out)


@dataclass(slots=True)
class Node:
    """A derivation node: its goal list, as the clauses wrote it (resolved
    at a base of ``build_tree``), and the mgu of the step that produced it
    from its parent (empty at the root).  The mgu holds the step's own
    bindings only, triangular over the bindings of the parent's root path,
    which the walks keep in one store; the goal list resolved through the
    node's own root-path store is its query.  Its
    id is its index in the arena, ``children`` the range of ids its
    expansion appended (``()`` before), and its depth is what the walk that
    expands it passes to ``TreeBuilder.expand``."""

    query: tuple
    parent: Optional[int]
    mgu: dict
    children: Sequence = ()
    status: str = OPEN


NO_BINDINGS: dict = {}  # the mgu of the root and of every cut step; shared, so never modified


@dataclass(eq=False)
class LdTree:
    """An arena of derivation nodes; node 0 is the root."""

    nodes: list

    def __len__(self):
        return len(self.nodes)

    @property
    def ids(self) -> range:
        return range(len(self.nodes))

    @property
    def exact(self) -> bool:
        return all(n.status != TRUNCATED for n in self.nodes)


def resolved_queries(tree: LdTree) -> list:
    """Per node id, its goal list resolved through the mgus of its root
    path: the query a reader shows.  One preorder pass keeps the bindings
    of the current root path in a store, as the pruned-tree walk does."""
    nodes = tree.nodes
    out: list = [None] * len(nodes)
    store: dict = {}
    todo = [0]  # node ids to visit, next last; ~nid: leave nid
    while todo:
        nid = todo.pop()
        if nid < 0:
            for name in nodes[~nid].mgu:
                del store[name]
            continue
        node = nodes[nid]
        store.update(node.mgu)
        out[nid] = resolve(store, goal_atoms(node.query))
        todo.append(~nid)
        todo += reversed(node.children)
    return out


def head_step(program: Program, idx: int, atom: Pred, store: dict, forbidden: set,
              fresh: FreshNames):
    """Unify ``atom``, under the triangular ``store``, with the head of clause
    ``idx`` renamed apart from ``forbidden``: ``(mgu, rho)``, the bindings
    the step adds to the store and the renaming, or None.  The head is read
    as written, through the renaming, so only the head terms the mgu binds
    are renamed.  The renaming advances ``fresh`` either way; ``forbidden``
    gains the renamed clause's names on success only, and the caller builds
    the body."""
    clause = program.clauses[idx]
    names = clause.var_names
    rho = renaming(names, forbidden, fresh) if names else {}
    if atom.args:
        mgu = _unify_pairs(list(atom.args[::-1]), list(clause.head.args[::-1]), store, rho,
                           clause.head_linear)
        if mgu is None:
            return None
    else:
        mgu = {}
    forbidden.update(names, [v.name for v in rho.values()])  # names rho renames are in it already
    return mgu, rho


def ld_expand(program: Program, query: tuple, store: dict, forbidden: set, fresh: FreshNames):
    """All LD-resolvents of a goal list, in clause order.

    Returns a list of (child goal list, mgu): the renamed clause body consed
    onto the goals after the selected atom, and the bindings the step adds
    to ``store``, the triangular bindings of the goal list's root path.
    ``forbidden`` is extended with the variables of each clause variant
    used, keeping the whole derivation standardized apart.

    ``forbidden`` must hold every variable of the goal list.
    """
    selected, rest, length = query
    if not length:
        return []
    if selected is CUT:
        return [(rest, NO_BINDINGS)]
    out = []
    for idx, clause in program.matching(selected):
        step = head_step(program, idx, selected, store, forbidden, fresh)
        if step is None:
            continue
        mgu, rho = step
        out.append((goal_list(apply(rho, clause.body), rest), mgu))
    return out


class TreeBuilder:
    """Materialises LD-tree nodes on demand under a budget.

    ``budget.steps`` caps the derivation length (tree depth); ``budget.nodes``
    caps the number of materialised nodes; ``exhausted`` names the one, with
    its value, that last truncated a node.  The whole derivation is kept
    standardized apart, whatever order the nodes are expanded in.
    """

    def __init__(self, program: Program, query: tuple, budget: Optional[Budget] = None):
        self.program = program
        self.budget = budget or Budget()
        self.exhausted: Optional[str] = None
        self.fresh = FreshNames()
        self.forbidden = set(vars_of(query))
        self.tree = LdTree([Node(goal_list(query), None, NO_BINDINGS)])

    def expand(self, nid: int, depth: int, store: dict) -> Sequence:
        """Set the status of node ``nid``, ``depth`` steps below the root, and
        materialise its children.  ``store`` holds the bindings its goal list
        is read through: the mgus of its root path, or of the part below the
        base where ``build_tree`` resolved the goals.

        Returns the range of the new children's ids; a node that could not be
        fully expanded is Truncated and gets none.
        """
        nodes = self.tree.nodes
        node = nodes[nid]
        if not node.query[2]:
            node.status = SUCCESS
            return ()
        if depth >= self.budget.steps:
            node.status = TRUNCATED
            self.exhausted = f"tree step budget {self.budget.steps}"
            return ()
        expansions = ld_expand(self.program, node.query, store, self.forbidden, self.fresh)
        if not expansions:
            node.status = FAILURE
            return ()
        first = len(nodes)
        if first + len(expansions) > self.budget.nodes:
            node.status = TRUNCATED
            self.exhausted = f"tree node budget {self.budget.nodes}"
            return ()
        nodes.extend([Node(child_query, nid, mgu) for child_query, mgu in expansions])
        node.children = range(first, len(nodes))
        return node.children


REBASE_SLACK = 8  # steps a node of ``build_tree`` may lie below its base beyond its goal count


def build_tree(program: Program, query: tuple, budget: Optional[Budget] = None) -> LdTree:
    """Breadth-first construction of the whole LD-tree under a budget (see
    ``TreeBuilder``).  Nodes that could not be fully expanded are Truncated.

    One store holds the mgus from a *base* down to the node last expanded:
    the root, or a node whose goal list was resolved through its root path,
    below which the store starts empty again.  To reach the next node of a
    level, the pass drops the mgus below the two nodes' nearest common
    ancestor and adds those on the way down (or, across bases, starts from
    the next node's base).  A node that lies more steps below its base than
    it has goals, plus ``REBASE_SLACK``, becomes a base.  So reaching a node
    costs about what resolving its goal list costs, at most, while a chain
    of steps each under the last one costs O(1) a node."""
    builder = TreeBuilder(program, query, budget)
    nodes = builder.tree.nodes
    base, below = [0], [0]  # per node id: its base, and how many steps below it it lies
    store: dict = {}
    at = 0  # the node whose mgus below its base ``store`` holds
    level, depth = range(1), 0  # a level's children are the ids appended after it
    while level:
        for nid in level:
            if base[at] != base[nid]:
                store.clear()
                at = base[nid]
            down, up = [], nid  # ``at`` lies no deeper than ``nid``
            while below[up] > below[at]:
                down.append(up)
                up = nodes[up].parent
            while at != up:
                for name in nodes[at].mgu:
                    del store[name]
                down.append(up)
                at, up = nodes[at].parent, nodes[up].parent
            for n in reversed(down):
                store.update(nodes[n].mgu)
            at, node = nid, nodes[nid]
            if below[nid] > node.query[2] + REBASE_SLACK:
                node.query = goal_list(resolve(store, goal_atoms(node.query)))
                store.clear()
                base[nid], below[nid] = nid, 0
            for _ in builder.expand(nid, depth, store):
                base.append(base[nid])
                below.append(below[nid] + 1)
        level, depth = range(level.stop, len(nodes)), depth + 1
    return builder.tree
