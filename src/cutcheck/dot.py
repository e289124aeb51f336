"""Deterministic Graphviz rendering of (pruned) LD-trees."""

from __future__ import annotations

from typing import Optional

from .engine import SUCCESS, TRUNCATED, LdTree
from .pruning import PrunedTree, cutting_sequence_of, is_executing
from .syntax import query_text


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_label(tree: LdTree, nid: int) -> str:
    node = tree.nodes[nid]
    body = query_text(node.query) if node.query else "□"
    return f"n{nid}: {body}"


def tree_dot(tree: LdTree, pruned: Optional[PrunedTree] = None) -> str:
    """Render the tree; with a pruning result, mark removed nodes and the
    cutting-sequence paths that removed them."""
    lines = ["digraph ldtree {", "  node [shape=box, fontname=\"monospace\"];"]
    kept = pruned.kept if pruned is not None else None
    path_edges = set()
    pruned_by: dict = {}
    if pruned is not None:
        for executing, removed in pruned.iteration_log:
            path = cutting_sequence_of(tree, executing)
            path_edges.update(zip(path, path[1:]))
            pruned_by.update(dict.fromkeys(removed, executing))
    ids = tree.ids
    for nid in ids:
        node = tree.nodes[nid]
        attrs = [f'label="{_escape(_node_label(tree, nid))}"']
        if node.status == TRUNCATED:
            attrs.append("shape=doubleoctagon")
        elif node.status == SUCCESS:
            attrs.append("peripheries=2")
        if pruned is not None and nid not in kept:
            executing = pruned_by.get(nid)
            attrs.append("style=dashed")
            if executing is not None:
                label = _escape(f"{_node_label(tree, nid)}\\npruned by n{executing}")
                attrs[0] = f'label="{label}"'
        if is_executing(tree, nid):
            attrs.append("color=red")
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
    for nid in ids:
        node = tree.nodes[nid]
        if node.parent is None:
            continue
        style = []
        if (node.parent, nid) in path_edges:
            style.append("penwidth=2.5")
        if pruned is not None and (node.parent not in kept or nid not in kept):
            style.append("style=dashed")
        suffix = f" [{', '.join(style)}]" if style else ""
        lines.append(f"  n{node.parent} -> n{nid}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
