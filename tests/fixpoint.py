"""The paper's definition of the pruned LD-tree, kept as a test oracle.

Repeatedly take the i-th executing node in the current preorder sequence of
the tree and remove what its cutting sequence prunes, until the sequence
holds no unprocessed executing node; only the nodes in the preorder sequence
of the fixpoint are kept.  This recomputes the preorder once per executing
node, so it is only used to check ``cutcheck.prune`` and
``cutcheck.pruned_tree`` on small trees.
"""

from typing import Optional

from cutcheck.engine import LdTree, preorder
from cutcheck.pruning import CuttingSequence, PrunedTree, cutting_sequence_of, is_executing


def pruned_by_sequence(tree: LdTree, cs: CuttingSequence, kept=None) -> set:
    """Nodes pruned by a cutting sequence: right-of-path children and their
    descendants, restricted to ``kept`` when given."""
    removed: set = set()
    for above, below in zip(cs.path, cs.path[1:]):
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


def fixpoint_prune(tree: LdTree, kept: Optional[set] = None) -> PrunedTree:
    """Iterate the cutting-sequence fixpoint on the (sub)tree."""
    kept = set(kept) if kept is not None else {n.id for n in tree.nodes}
    pruned_by: dict = {}
    log: list = []
    i = 1
    while True:
        seq = preorder(tree, kept)
        executing = [nid for nid in seq.ids if is_executing(tree, nid)]
        if len(executing) < i:
            break
        ex = executing[i - 1]
        cs = cutting_sequence_of(tree, ex)
        removed = pruned_by_sequence(tree, cs, kept)
        for r in removed:
            pruned_by[r] = ex
        kept -= removed
        log.append((ex, frozenset(removed)))
        i += 1
    final = preorder(tree, kept)
    kept = set(final.ids)
    return PrunedTree(tree, kept, pruned_by, log, final.exact)
