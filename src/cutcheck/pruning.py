"""Cut pruning: cutting sequences, the pruned LD-tree, and an independent
depth-first search oracle.

An *executing node* is one whose query starts with ``!``.  Its cutting
sequence runs from the node that introduced that cut occurrence (by applying
a clause whose body contains the cut; for cuts already present in the initial
query, from the root) down to the executing node.  The nodes it prunes are
the children of each node on that path lying strictly to the right of the
path, together with their descendants.

The paper defines the pruned tree as an iterative fixpoint: repeatedly take
the i-th executing node in the current preorder sequence and remove what its
cutting sequence prunes.  Everything a cutting sequence removes lies after
its executing node in preorder, so one left-to-right preorder walk computes
the same tree: on reaching an executing node it drops the unvisited right
siblings along the cutting sequence, which is the top of the walk's own
stack, and logs that sequence with the ids it dropped; it stops at the first
Truncated node and keeps it.  The introducing node is the nearest proper
ancestor whose goal list is no longer than the executing node's: a step
replaces only the first goal, so the goals after the cut keep their number
until it runs; each node in between holds the cut and a goal before it, and
the introducing node at most the goals after it.  The walk expands a node
only when it reaches it, so dropped siblings are never expanded, and, when
asked, it hands the binding store of each Success leaf it reaches to a
callback.

Both engines answer through such a callback, ``on_answer(store)``: the
store is the triangular map of every mgu on the success leaf's root path,
so the computed answer is ``resolve(store, query)``.  The store is valid
only during the call; a caller that keeps an answer resolves it there, and
the CLI prints it from the store (``syntax.answer_printer``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .engine import (
    OPEN,
    Budget,
    LdTree,
    Program,
    SUCCESS,
    TRUNCATED,
    TreeBuilder,
    head_step,
)
from .terms import (
    CUT,
    FreshNames,
    apply,
    vars_of,
)


@dataclass
class PrunedTree:
    """The result of pruning: the materialised nodes, the cuts the walk
    executed and where it stopped."""

    base: LdTree
    # per executing node, (path, removed): its cutting sequence, from the introducing
    # node (the root for a query cut) down to it, and the frozenset of ids it removed
    iteration_log: list
    stop: Optional[int]  # the Truncated node the walk stopped at, None if it finished

    @property
    def exact(self) -> bool:
        return self.stop is None

    @property
    def kept(self) -> set:
        """The nodes the walk reached, which are the nodes it expanded: a
        status other than Open, or some children."""
        return {i for i, n in enumerate(self.base.nodes) if n.status != OPEN or n.children}


def _walk(builder: TreeBuilder, on_answer: Optional[Callable]) -> PrunedTree:
    """The one-pass preorder walk, expanding each node when it reaches it.

    The mgus of the current root path live in one triangular binding store;
    the trail records their names in binding order, and moving to a node's
    next child cuts it back to the mark taken when the node was expanded.
    ``on_answer``, when given, gets the store at each Success leaf.
    """
    base = builder.tree
    nodes = base.nodes
    log: list = []
    bindings: dict = {}  # every step mgu on the current root path
    trail: list = []  # the names in ``bindings``, in binding order
    stack: list = []  # per proper ancestor of nid: [next child, end of child range, trail mark]
    nid: Optional[int] = 0
    while nid is not None:
        node = nodes[nid]
        # The cut runs before the truncation check, as in the fixpoint, where a
        # Truncated executing node is still in the preorder sequence.
        if node.query[0] is CUT:
            # The cutting sequence's frames, from the top of the stack down to
            # the introducing node's (the root's for query cuts): each drops
            # its unvisited children.  A frame's node is the parent of the
            # child it visited last.
            length = node.query[2]
            path = [nid]
            removed: set = set()
            for frame in reversed(stack):
                removed.update(range(frame[0], frame[1]))
                frame[1] = frame[0]
                path.append(nodes[frame[0] - 1].parent)
                if nodes[path[-1]].query[2] <= length:
                    break
            log.append((tuple(reversed(path)), frozenset(removed)))
        children = builder.expand(nid, len(stack), bindings)  # its depth: a frame per proper ancestor
        if node.status == TRUNCATED:
            break
        if node.status == SUCCESS and on_answer is not None:
            on_answer(bindings)
        if children:
            stack.append([children.start, children.stop, len(trail)])
        nid = None
        while stack:
            frame = stack[-1]
            if frame[0] < frame[1]:
                nid = frame[0]
                frame[0] += 1
                for name in trail[frame[2] :]:
                    del bindings[name]
                del trail[frame[2] :]
                mgu = nodes[nid].mgu
                bindings.update(mgu.items())
                trail.extend(mgu)
                break
            stack.pop()
    return PrunedTree(base, log, nid)  # nid is left at a Truncated node, or None


def pruned_tree(program: Program, query: tuple, budget: Optional[Budget] = None, *,
                on_answer: Optional[Callable] = None) -> PrunedTree:
    """Build the pruned LD-tree, expanding a node only when the walk reaches
    it.  ``base`` holds the materialised nodes: the kept ones, the dropped
    siblings (never expanded) and whatever was pending when the walk stopped
    at a Truncated node.  ``on_answer``, when given, is called with the
    binding store of each kept Success leaf when the walk reaches it, so in
    preorder: the leaf's computed answer is ``resolve(store, query)``, and
    the store is valid only during the call."""
    return _walk(TreeBuilder(program, query, budget), on_answer)


# ---------------------------------------------------------------------------
# Independent oracle: a classic choice-point-stack interpreter.
#
# This deliberately shares no traversal or pruning code with the tree
# machinery above: cut discards choice points younger than the barrier
# recorded when the clause that introduced it was invoked.  Bindings live in
# one triangular store with a trail, as in a Prolog machine: a call unifies
# its goal as written against the store, a retried choice point undoes the
# bindings made after it, and an answer is the store handed to
# ``on_answer``, as ``pruned_tree`` hands it.  The continuation is a chain
# of cells ``(atom, barrier, rest)``, ``()`` when empty, so a call shares
# the goals after it with the choice point it makes.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Frame:
    goals: tuple  # the cell of the call: its atom, barrier and continuation
    mark: int  # trail length at call time
    alternatives: list  # the (index, clause) pairs the call may use
    pos: int  # the next of them to try
    height: int  # stack height at call time == barrier for the body's cuts


@dataclass
class SearchResult:
    exact: bool
    steps: int


def prolog_search(program: Program, query: tuple, budget: Optional[Budget] = None, *,
                  on_answer: Optional[Callable] = None) -> SearchResult:
    """Depth-first, left-to-right search with standard cut semantics.

    ``on_answer``, when given, is called with the binding store at each
    answer, in discovery order, as ``pruned_tree`` calls it: the answer is
    ``resolve(store, query)``, and the store is valid only during the call.
    ``exact`` is False when the step budget ran out first.
    """
    budget = budget or Budget()
    fresh = FreshNames()
    forbidden = set(vars_of(query))
    steps = 0
    exact = True
    bindings: dict = {}  # every mgu of the current branch, triangular
    trail: list = []  # the names in ``bindings``, in binding order

    stack: list = []
    current: Optional[tuple] = ()  # the goals of the state to run next, or None
    for atom in reversed(query):
        current = (atom, 0, current)

    def advance(frame: _Frame):
        nonlocal steps
        while len(trail) > frame.mark:
            del bindings[trail.pop()]
        atom, _, rest = frame.goals
        while frame.pos < len(frame.alternatives):
            steps += 1
            if steps > budget.steps:
                raise _OutOfSteps
            idx, clause = frame.alternatives[frame.pos]
            frame.pos += 1
            step = head_step(program, idx, atom, bindings, forbidden, fresh)
            if step is None:
                continue
            mgu, rho = step
            bindings.update(mgu)
            trail.extend(mgu)
            goals = rest
            for body_atom in reversed(apply(rho, clause.body)):
                goals = (body_atom, frame.height, goals)
            return goals
        return None

    class _OutOfSteps(Exception):
        pass

    try:
        while True:
            if current is None:
                while stack:
                    current = advance(stack[-1])
                    if current is not None:
                        break
                    stack.pop()
                if current is None:
                    break
                continue
            goals, current = current, None
            if not goals:
                if on_answer is not None:
                    on_answer(bindings)
                continue
            atom, barrier, rest = goals
            if atom is CUT:
                del stack[barrier:]
                current = rest
                continue
            stack.append(_Frame(goals, len(trail), program.matching(atom), 0, len(stack)))
    except _OutOfSteps:
        exact = False

    return SearchResult(exact, steps)
