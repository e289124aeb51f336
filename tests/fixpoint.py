"""The paper's definition of the pruned LD-tree, kept as a test oracle.

Repeatedly take the i-th executing node in the current preorder sequence of
the tree and remove what its cutting sequence prunes, until the sequence
holds no unprocessed executing node; only the nodes in the preorder sequence
of the fixpoint are kept, and the answers are those of its Success leaves.
A cutting sequence runs down the root path from the node that brought its
cut in, as the forward bookkeeping of ``origins_reference`` records it, and
not from the goal-list lengths the walk reads.  This recomputes the preorder
once per executing node, so it is only used to check ``cutcheck.pruned_tree``
on small trees.
"""

from dataclasses import dataclass
from typing import Optional

from cutcheck.engine import LdTree, resolved_queries
from cutcheck.pruning import PrunedTree
from cutcheck.terms import CUT, canonical

from full_tree import answers, preorder, root_path
from origins_reference import origins


def pruned_by_sequence(tree: LdTree, path: tuple, kept=None) -> set:
    """Nodes pruned by a cutting sequence, given as its path: right-of-path
    children and their descendants, restricted to ``kept`` when given."""
    removed: set = set()
    for above, below in zip(path, path[1:]):
        children = tree.nodes[above].children
        if kept is not None:
            children = [c for c in children if c in kept]
        idx = children.index(below)
        for c in children[idx + 1 :]:
            stack = [c]
            while stack:
                nid = stack.pop()
                if kept is not None and nid not in kept:
                    continue
                removed.add(nid)
                stack.extend(tree.nodes[nid].children)
    return removed


def cutting_sequence(tree: LdTree, origin: dict, executing: int) -> tuple:
    """The path from the node that brought in the cut ``executing`` runs, by
    the forward origins ``origin`` (the root for a cut of the query), down to
    it."""
    path = root_path(tree, executing)
    first = origin[executing][0]
    return tuple(path if first is None else path[path.index(first):])


def pruned_by(pt) -> dict:
    """Removed node id -> the executing node that removed it, read from the log."""
    return {r: path[-1] for path, removed in pt.iteration_log for r in removed}


@dataclass
class FixpointTree:
    """The fixpoint's pruned tree: the kept nodes of the full tree ``base``,
    who pruned the rest, and the answers of its Success leaves."""

    base: LdTree
    kept: set
    iteration_log: list
    exact: bool
    answers: list


def fixpoint_prune(tree: LdTree, kept: Optional[set] = None) -> FixpointTree:
    """Iterate the cutting-sequence fixpoint on the (sub)tree."""
    kept = set(kept) if kept is not None else set(tree.ids)
    origin = origins(tree)
    log: list = []
    i = 1
    while True:
        seq = preorder(tree, kept)
        executing = [nid for nid in seq.ids if tree.nodes[nid].query[0] is CUT]
        if len(executing) < i:
            break
        path = cutting_sequence(tree, origin, executing[i - 1])
        removed = pruned_by_sequence(tree, path, kept)
        kept -= removed
        log.append((path, frozenset(removed)))
        i += 1
    final = preorder(tree, kept)
    kept = set(final.ids)
    return FixpointTree(tree, kept, log, final.exact, answers(tree, kept))


def walk_and_fixpoint(lazy: PrunedTree, lazy_answers: list, want: FixpointTree):
    """The lazy walk's result, with the answers it reached, and the
    fixpoint's, restated so they compare.

    Each materialised node of ``lazy.base`` maps to the node of the full tree
    ``want.base`` with the same child-index path from the root; the full tree
    must have expanded every node the walk expanded (true when ``want`` is
    exact, or when the full tree was truncated by the step budget only).
    ``pruned_by`` (read from the log) and ``iteration_log`` are compared on materialised nodes,
    nodes by canonical query and status, and answers up to variable names.
    """
    to_full = {0: 0}
    for nid in lazy.base.ids:  # a parent's id is below its children's
        full_children = want.base.nodes[to_full[nid]].children
        for i, child in enumerate(lazy.base.nodes[nid].children):
            to_full[child] = full_children[i]
    image = set(to_full.values())
    queries = {id(tree): resolved_queries(tree) for tree in (lazy.base, want.base)}

    def shape(tree, nid):
        return canonical(queries[id(tree)][nid]), tree.nodes[nid].status

    got = {
        "kept": {to_full[n]: shape(lazy.base, n) for n in lazy.kept},
        "exact": lazy.exact,
        "pruned_by": {to_full[r]: to_full[e] for r, e in pruned_by(lazy).items()},
        "iteration_log": [
            (tuple(to_full[n] for n in path), frozenset(to_full[r] for r in removed))
            for path, removed in lazy.iteration_log
        ],
        "answers": [canonical(a) for a in lazy_answers],
    }
    expected = {
        "kept": {n: shape(want.base, n) for n in want.kept},
        "exact": want.exact,
        "pruned_by": {r: e for r, e in pruned_by(want).items() if r in image},
        "iteration_log": [(path, removed & image) for path, removed in want.iteration_log],
        "answers": [canonical(a) for a in want.answers],
    }
    return got, expected
