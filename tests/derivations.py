"""Single derivations and subderivations, kept as test helpers.

``branch_derivation`` reads one root-to-node branch of an LD-tree as the
queries Q_0..Q_n and the mgus between them; ``subderivation`` follows a
prefix of some Q_j until it has fully succeeded.  A tree node keeps only its
mgu, so ``recorded_steps`` records the clause index and variant of each
step from the head steps ``ld_expand`` makes.  A node's goal list is as the
clauses wrote it and its mgu binds over its parent's root path, so
``branch_derivation`` resolves both through the mgus of the root path.  The tests use these to check the
standardization-apart and subderivation lemmas on built trees.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional
from unittest import mock

from cutcheck import engine
from cutcheck.engine import LdTree, TreeBuilder, goal_atoms
from cutcheck.terms import CUT, Clause, Var, apply, resolve, vars_of

from full_tree import root_path


def canonical(e):
    """Rename variables to V1, V2, ... in first-occurrence order."""
    mapping = {v: Var(f"V{i + 1}") for i, v in enumerate(vars_of(e))}
    return apply(mapping, e)


def variant_equal(a, b) -> bool:
    """True when two terms/atoms/queries are equal up to variable renaming."""
    return canonical(a) == canonical(b)


class Step(NamedTuple):
    """One recorded derivation step: a cut-consumption step has
    ``clause_index`` and ``clause_variant`` None and an empty mgu."""

    mgu: dict
    clause_index: Optional[int] = None
    clause_variant: Optional[Clause] = None


@contextmanager
def recorded_steps():
    """Record the step behind each LD-tree node materialised in the block.
    Yields a dict from each tree built to its {node id: step}; the root has
    no step.  A resolution step is read from the head step it made, the
    variant being the whole clause under the step's renaming."""
    steps: dict = {}
    last: list = []  # the resolution steps of the latest expansion
    real_head_step, real_expand = engine.head_step, TreeBuilder.expand

    def head_step(program, idx, *args):
        out = real_head_step(program, idx, *args)
        if out is not None:
            theta, rho = out
            last.append(Step(theta, idx, apply(rho, program.clauses[idx])))
        return out

    def expand(builder, nid, depth, store):
        last.clear()
        children = real_expand(builder, nid, depth, store)
        nodes = builder.tree.nodes
        if children and nodes[nid].query[0] is CUT:
            last.append(Step(nodes[children[0]].mgu))
        steps.setdefault(builder.tree, {}).update(zip(children, last))
        return children

    with mock.patch.object(engine, "head_step", head_step), \
            mock.patch.object(TreeBuilder, "expand", expand):
        yield steps


@dataclass
class Derivation:
    """A single branch: queries Q_0..Q_n and the mgus between them."""

    queries: list
    mgus: list  # len == len(queries) - 1

    def __len__(self):
        return len(self.queries)


def branch_derivation(tree: LdTree, nid: int) -> Derivation:
    """The branch to ``nid`` with each query and mgu resolved through the
    mgus of its root path: the queries instantiated by every mgu above
    them, and idempotent mgus."""
    queries, mgus = [], []
    store: dict = {}
    for i in root_path(tree, nid):
        node = tree.nodes[i]
        store.update(node.mgu)
        if i:
            mgus.append({name: resolve(store, t) for name, t in node.mgu.items()})
        queries.append(resolve(store, goal_atoms(node.query)))
    return Derivation(queries, mgus)


def subderivation(d: Derivation, j: int, prefix_len: int):
    """The subderivation for the length-``prefix_len`` prefix of Q_j.

    Writing Q_j = (B, A), follows the derivation until some Q_m equals A
    instantiated by the intervening mgus (the prefix has fully succeeded).
    Returns (Derivation slice, succeeded, answer) where ``answer`` is the
    instantiated prefix when the subderivation succeeds, else None.
    """
    if not 0 <= j < len(d.queries):
        raise IndexError(f"query index {j} out of range")
    q = d.queries[j]
    if not 0 <= prefix_len <= len(q):
        raise IndexError(f"prefix length {prefix_len} out of range")
    suffix = q[prefix_len:]
    prefix = q[:prefix_len]
    inst_suffix = suffix
    inst_prefix = prefix
    for m in range(j, len(d.queries)):
        if m > j:
            theta = d.mgus[m - 1]
            inst_suffix = apply(theta, inst_suffix)
            inst_prefix = apply(theta, inst_prefix)
        if d.queries[m] == inst_suffix:
            return (
                Derivation(d.queries[j : m + 1], d.mgus[j:m]),
                True,
                inst_prefix,
            )
    return (Derivation(d.queries[j:], d.mgus[j:]), False, None)
