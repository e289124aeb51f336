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
stack, and it stops at the first Truncated node.  The walk expands a node
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
    resolve,
    vars_of,
)


def is_executing(tree: LdTree, nid: int) -> bool:
    node = tree.nodes[nid]
    return bool(node.query) and node.query[0] is CUT


@dataclass(frozen=True)
class CuttingSequence:
    """The path from the introducing node (or root) to the executing node."""

    introducing: Optional[int]  # None for cuts of the initial query
    path: tuple  # node ids, introducing (or root) first, executing last
    executing: int


def cutting_sequence_of(tree: LdTree, executing: int) -> CuttingSequence:
    if not is_executing(tree, executing):
        raise ValueError(f"node {executing} does not start with !")
    intro = tree.nodes[executing].origins[0]
    chain = tree.ancestors(executing)
    start = 0 if intro is None else tree.nodes[intro].depth
    return CuttingSequence(intro, tuple(chain[start:]), executing)


@dataclass
class PrunedTree:
    """The result of pruning: which nodes survive and who pruned the rest."""

    base: LdTree
    kept: set
    iteration_log: list  # (executing node id, frozenset of removed ids) per executing node
    exact: bool


def _walk(builder: TreeBuilder, on_answer: Optional[Callable]) -> PrunedTree:
    """The one-pass preorder walk, expanding each node when it reaches it.

    The mgus of the current root path live in one triangular binding store;
    the trail records their names in binding order, and moving to a node's
    next child cuts it back to the mark taken when the node was expanded.
    ``on_answer``, when given, gets the store at each Success leaf.
    """
    base = builder.tree
    nodes = base.nodes
    kept: set = set()
    log: list = []
    exact = True
    bindings: dict = {}  # every step mgu on the current root path
    trail: list = []  # the names in ``bindings``, in binding order
    stack: list = []  # per node on the path: [child ids, index of the next child, trail mark]
    nid: Optional[int] = 0
    while nid is not None:
        kept.add(nid)
        node = nodes[nid]
        # The cut runs before the truncation check, as in the fixpoint, where a
        # Truncated executing node is still in the preorder sequence.
        if is_executing(base, nid):
            intro = node.origins[0]
            removed: set = set()
            # stack[d] belongs to the ancestor at depth d: the cutting sequence
            # starts at the introducing node's frame (the root's for query cuts)
            for frame in stack[0 if intro is None else nodes[intro].depth :]:
                removed.update(frame[0][frame[1] :])
                del frame[0][frame[1] :]
            log.append((nid, frozenset(removed)))
        children = builder.expand(nid)
        if node.status == TRUNCATED:
            exact = False
            break
        if node.status == SUCCESS and on_answer is not None:
            on_answer(bindings)
        stack.append([list(children), 0, len(trail)])  # a copy: dropping siblings edits it
        nid = None
        while stack and nid is None:
            frame = stack[-1]
            if frame[1] < len(frame[0]):
                nid = frame[0][frame[1]]
                frame[1] += 1
                for name in trail[frame[2] :]:
                    del bindings[name]
                del trail[frame[2] :]
                mgu = nodes[nid].mgu
                bindings.update(mgu.items())
                trail.extend(mgu)
            else:
                stack.pop()
    return PrunedTree(base, kept, log, exact)


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
# one triangular store with a trail, as in a Prolog machine: a retried choice
# point undoes the bindings made after it, and an answer is the store
# handed to ``on_answer``, as ``pruned_tree`` hands it.
# ---------------------------------------------------------------------------


@dataclass
class _Frame:
    call: object  # goals[0] resolved through the bindings at call time
    goals: tuple  # the call, then its continuation, as written in the clauses
    barriers: tuple  # per goal: the stack height its cuts cut back to
    mark: int  # trail length at call time
    alternatives: list  # clause indices left to try
    pos: int
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
    # (goals, barriers) of the state to run next, or None
    current = (query, tuple(0 for _ in query))

    def advance(frame: _Frame):
        nonlocal steps
        while len(trail) > frame.mark:
            del bindings[trail.pop()]
        while frame.pos < len(frame.alternatives):
            steps += 1
            if steps > budget.steps:
                raise _OutOfSteps
            idx = frame.alternatives[frame.pos]
            frame.pos += 1
            step = head_step(program, idx, frame.call, forbidden, fresh)
            if step is None:
                continue
            theta, rho = step
            bindings.update(theta.items())
            trail.extend(theta)
            body = apply(rho, program.clauses[idx].body)
            barriers = tuple(frame.height for _ in body) + frame.barriers[1:]
            return (body + frame.goals[1:], barriers)
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
            goals, barriers = current
            current = None
            if not goals:
                if on_answer is not None:
                    on_answer(bindings)
                continue
            if goals[0] is CUT:
                del stack[barriers[0]:]
                current = (goals[1:], barriers[1:])
                continue
            call = resolve(bindings, goals[0])
            alternatives = [i for i, _ in program.matching(call)]
            stack.append(_Frame(call, goals, barriers, len(trail), alternatives, 0, len(stack)))
    except _OutOfSteps:
        exact = False

    return SearchResult(exact, steps)
