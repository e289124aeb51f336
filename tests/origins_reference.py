"""The forward bookkeeping of cut origins, kept as a test oracle: the
fixpoint oracle (``fixpoint.py``) starts each cutting sequence at the origin
it gives a cut, and the tests check that every sequence the walk of
``cutcheck.pruned_tree`` logs starts there too.

Every atom of a node's query records the node whose clause application
brought it in, None for the atoms of the initial query.  A resolution step
puts the clause body, brought in by the parent, in place of the selected
atom and keeps the origins of the rest; a cut step drops the cut and its
origin.  The origin of an executing node's cut is its first entry.
"""

from cutcheck.engine import LdTree, goal_atoms


def origins(tree: LdTree) -> dict:
    """Node id -> per atom of its query, the id of the node that brought it in.
    Goal lists are counted atom by atom, not read from their cells."""
    nodes = tree.nodes
    lengths = [len(goal_atoms(n.query)) for n in nodes]
    out = {0: (None,) * lengths[0]}
    for nid in tree.ids[1:]:  # a parent comes before its children in the arena
        parent = nodes[nid].parent
        body = lengths[nid] - lengths[parent] + 1
        out[nid] = (parent,) * body + out[parent][1:]
    return out
