"""Walks over a fully built LD-tree, kept as test helpers.

``preorder`` lists a tree's (or a kept subtree's) nodes left to right and
stops at the first possibly-infinite subtree; ``answers`` re-merges every
Success leaf's root path from scratch.  The fixpoint oracle and the answer
tests use them to check ``cutcheck.pruned_tree``, whose one walk does both.
"""

from dataclasses import dataclass

from cutcheck.engine import SUCCESS, TRUNCATED, LdTree
from cutcheck.terms import resolve


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


def root_path(tree: LdTree, nid: int) -> list:
    """Node ids from the root down to (and including) nid."""
    chain = [nid]
    while tree.nodes[chain[-1]].parent is not None:
        chain.append(tree.nodes[chain[-1]].parent)
    chain.reverse()
    return chain


def computed_answer(tree: LdTree, nid: int) -> tuple:
    """The root query under the union of the step mgus from the root down to
    node ``nid``: the derivation is standardized apart and each mgu is
    idempotent, so the union is a triangular binding map."""
    bindings: dict = {}
    cur = nid
    while cur is not None:
        node = tree.nodes[cur]
        bindings.update(node.mgu.items())
        cur = node.parent
    return resolve(bindings, tree.nodes[0].query)


def answers(tree: LdTree, kept=None) -> list:
    """Computed answers of the Success leaves in ``preorder(tree, kept)``."""
    return [
        computed_answer(tree, nid)
        for nid in preorder(tree, kept).ids
        if tree.nodes[nid].status == SUCCESS
    ]
