"""Single derivations and subderivations, kept as test helpers.

``branch_derivation`` reads one root-to-node branch of an LD-tree as the
queries Q_0..Q_n and the mgus between them; ``subderivation`` follows a
prefix of some Q_j until it has fully succeeded.  A tree node keeps only its
mgu, so ``recorded_steps`` records the clause index and variant of each
step as ``ld_expand`` returned them.  The tests use these to check the
standardization-apart and subderivation lemmas on built trees.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

from cutcheck import engine
from cutcheck.engine import LdTree, TreeBuilder
from cutcheck.terms import apply, canonical


def variant_equal(a, b) -> bool:
    """True when two terms/atoms/queries are equal up to variable renaming."""
    return canonical(a) == canonical(b)


@contextmanager
def recorded_steps():
    """Record the ``LdStep`` behind each LD-tree node materialised in the
    block.  Yields a dict from each tree built to its {node id: step}; the
    root has no step."""
    steps: dict = {}
    last: list = []  # the steps of the latest ``ld_expand`` call
    real_ld_expand, real_expand = engine.ld_expand, TreeBuilder.expand

    def ld_expand(*args):
        out = real_ld_expand(*args)
        last[:] = [step for _, step in out]
        return out

    def expand(builder, nid):
        last.clear()
        children = real_expand(builder, nid)
        steps.setdefault(builder.tree, {}).update(zip(children, last))
        return children

    with mock.patch.object(engine, "ld_expand", ld_expand), \
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
    chain = tree.ancestors(nid)
    return Derivation(
        [tree.nodes[i].query for i in chain],
        [tree.nodes[i].mgu for i in chain[1:]],
    )


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
