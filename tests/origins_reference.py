"""The forward bookkeeping of cut origins, kept as a test oracle for
``cutcheck.pruning.introducing``.

Every atom of a node's query records the node whose clause application
brought it in, None for the atoms of the initial query.  A resolution step
puts the clause body, brought in by the parent, in place of the selected
atom and keeps the origins of the rest; a cut step drops the cut and its
origin.  The origin of an executing node's cut is its first entry.
"""

from cutcheck.engine import LdTree


def origins(tree: LdTree) -> dict:
    """Node id -> per atom of its query, the id of the node that brought it in."""
    nodes = tree.nodes
    out = {0: (None,) * len(nodes[0].query)}
    for nid in tree.ids[1:]:  # a parent comes before its children in the arena
        parent = nodes[nid].parent
        body = len(nodes[nid].query) - len(nodes[parent].query) + 1
        out[nid] = (parent,) * body + out[parent][1:]
    return out
