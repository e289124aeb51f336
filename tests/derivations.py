"""Single derivations and subderivations, kept as test helpers.

``branch_derivation`` reads one root-to-node branch of an LD-tree as the
queries Q_0..Q_n and the steps between them; ``subderivation`` follows a
prefix of some Q_j until it has fully succeeded.  The tests use them to
check the standardization-apart and subderivation lemmas on built trees.
"""

from dataclasses import dataclass

from cutcheck.engine import LdTree
from cutcheck.terms import apply, canonical


def variant_equal(a, b) -> bool:
    """True when two terms/atoms/queries are equal up to variable renaming."""
    return canonical(a) == canonical(b)


@dataclass
class Derivation:
    """A single branch: queries Q_0..Q_n and the steps between them."""

    queries: list
    steps: list  # len == len(queries) - 1

    def __len__(self):
        return len(self.queries)


def branch_derivation(tree: LdTree, nid: int) -> Derivation:
    chain = tree.ancestors(nid)
    return Derivation(
        [tree.nodes[i].query for i in chain],
        [tree.nodes[i].step for i in chain[1:]],
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
            theta = d.steps[m - 1].mgu
            inst_suffix = apply(theta, inst_suffix)
            inst_prefix = apply(theta, inst_prefix)
        if d.queries[m] == inst_suffix:
            return (
                Derivation(d.queries[j : m + 1], d.steps[j:m]),
                True,
                inst_prefix,
            )
    return (Derivation(d.queries[j:], d.steps[j:]), False, None)
