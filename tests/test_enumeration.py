"""Atom-set enumeration against its reference, restricted to one predicate,
and its work on the append specification counted rather than timed."""

import random
from unittest import mock

import pytest

import cutcheck.atomsets
from conftest import FIXTURES, load_program
from cutcheck import semi_complete
from cutcheck.atomsets import (
    UNIVERSAL,
    AtomPattern,
    AtomSet,
    AtomSetTooLarge,
    Guard,
    TermPool,
    _enumerate_pattern,
    _sorted_atoms,
    contains,
    enumerate_atoms,
)
from cutcheck.syntax import parse_spec, resolve_alphabet
from cutcheck.terms import Alphabet, Clause, Compound, Pred, Var, atom_key, ground_atoms, make_list

from enumerate_reference import reference_enumerate_pattern

one, two = Compound("1"), Compound("2")
LISTS = (("[]", 0), (".", 2))
ALPHABETS = {  # depth -> functors, chosen so that each depth has 12 to 38 terms
    1: (("1", 0), ("2", 0)) + LISTS,
    2: (("1", 0),) + LISTS,
    3: LISTS,
}
RESOLVER = {
    "other": AtomSet(
        atoms=(Pred("r", (one,)), Pred("r", (make_list([two]),))),
        patterns=(AtomPattern(Pred("r", (Var("U"),)), (Guard("member", (two, Var("U"))),)),),
    )
}
PREDICATES = (("p", 1), ("q", 2), ("r", 1))
CAP = 5_000


def random_pattern(rng: random.Random, name: str) -> AtomPattern:
    """A pattern over 1-3 variables, each once in the template (some inside
    a one-element list), with list, ground_list, concat, member, subset and
    notin guards.  Some patterns get a guard whose output Z is no template
    variable; nothing binds Z, so no atom satisfies it."""
    names = list("KLM"[: rng.randint(1, 3)])
    args = tuple(Var(x) if rng.random() < 0.8 else make_list([Var(x)]) for x in names)
    guards = []
    for x in names:
        r = rng.random()
        if r < 0.4:
            guards.append(Guard("ground_list", (Var(x),)))
        elif r < 0.55:
            guards.append(Guard("list", (Var(x),)))
    if len(names) == 3 and rng.random() < 0.7:
        guards.append(Guard("concat", tuple(Var(x) for x in rng.sample(names, 3))))
    if len(names) >= 2 and rng.random() < 0.4:
        x, src = rng.sample(names, 2)
        guards.append(Guard(rng.choice(("member", "subset")), (Var(x), Var(src))))
    if rng.random() < 0.3:
        guards.append(Guard("notin", (Pred("r", (Var(rng.choice(names)),)), "other")))
    if rng.random() < 0.15:
        src = rng.choice((Var(rng.choice(names)), make_list([one, two])))
        guards.append(rng.choice((
            Guard("member", (Var("Z"), src)),
            Guard("subset", (Var("Z"), src)),
            Guard("concat", (src, Var(rng.choice(names)), Var("Z"))),
        )))
    rng.shuffle(guards)
    return AtomPattern(Pred(name, args), tuple(guards))


def boundary_pattern(text: str) -> AtomPattern:
    [pattern] = parse_spec("[S]\n" + text).s.patterns
    return pattern


# The facts ``GUARDS`` gives a generated output at their boundary, each with
# the depths it runs at: the leaf must still test a guard whose facts the
# construction does not give.
BOUNDARY_PATTERNS = tuple((boundary_pattern(text), depths) for text, depths in (
    # concat's tail drawn from the whole pool: M need not be a list
    ("p(K, L, M) where ground_list(K), concat(K, L, M), list(M), ground_list(M).", (1, 2, 3)),
    # the tail is a list generated by subset: M is a ground list
    ("p(K, U, M, T) where ground_list(K), ground_list(T), subset(U, T), concat(K, U, M), "
     "ground_list(M).", (1, 2)),
    ("p(X, L) where ground_list(L), member(X, L), ground(X).", (1, 2, 3)),
    ("p(U, T) where ground_list(T), subset(U, T), ground_list(U).", (1, 2, 3)),
))


def test_pattern_enumeration_matches_reference():
    """One pool per depth serves every pattern, as one serves a whole check;
    every argument of every atom is an object of that pool, and no atom
    comes twice.  Beside the seeded patterns, the boundary patterns run at
    their depths."""
    rng = random.Random(20161)
    pools = {d: TermPool(Alphabet(functors, ()), d) for d, functors in ALPHABETS.items()}
    finished = 0
    cases = [(rng.randint(1, 3), random_pattern(rng, "p")) for _ in range(100)]
    boundary = [(depth, pattern) for pattern, depths in BOUNDARY_PATTERNS for depth in depths]
    for depth, pattern in cases + boundary:
        alphabet = Alphabet(ALPHABETS[depth], ())
        want_count = [0]
        try:
            want = reference_enumerate_pattern(pattern, alphabet, depth, RESOLVER, CAP, want_count)
        except AtomSetTooLarge:
            assert (depth, pattern) not in boundary
            continue
        count = [0]
        pool = pools[depth]
        got = _enumerate_pattern(pattern, pool, RESOLVER, CAP, count)
        assert got == want, pattern
        assert len(set(got)) == len(got), pattern
        assert count[0] <= want_count[0], pattern
        assert all(pool.intern(t) is t for a in got for t in a.args), pattern
        finished += 1
    assert finished >= 90


def test_a_shared_pool_gives_the_atoms_of_a_pool_of_its_own():
    """The patterns of seeded sets, enumerated whole and by predicate over
    one pool: the atoms equal those of calls that build their own pools, and
    every argument of a pattern's atom is an object of the shared pool."""
    rng = random.Random(3105)
    pool = TermPool(Alphabet(ALPHABETS[2], PREDICATES), 2)
    alphabet = Alphabet(ALPHABETS[2], PREDICATES)
    checked = 0
    for _ in range(15):
        s = AtomSet(patterns=random_set(rng, 2).patterns)
        for predicate in (None, ("p", 1), ("q", 2)):
            try:
                want = enumerate_atoms(s, alphabet, 2, RESOLVER, CAP, predicate=predicate)
            except AtomSetTooLarge:
                continue
            got = enumerate_atoms(s, alphabet, 2, RESOLVER, CAP, predicate=predicate, pool=pool)
            assert got == want, (s, predicate)
            assert all(pool.intern(t) is t for a in got for t in a.args), (s, predicate)
            checked += 1
    assert checked >= 30
    with pytest.raises(ValueError, match="another alphabet or depth"):
        enumerate_atoms(UNIVERSAL, alphabet, 1, pool=pool)


def random_set(rng: random.Random, depth: int) -> AtomSet:
    """1-3 random patterns of p and q, 0-4 listed atoms of p, q and r and, at
    depth 1, sometimes the universal set."""
    patterns = [random_pattern(rng, rng.choice("pq")) for _ in range(rng.randint(1, 3))]
    listed = tuple(
        Pred(rng.choice("pqr"), tuple(rng.choice((one, two, make_list([one]))) for _ in range(k)))
        for k in (rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
    )
    s = AtomSet(atoms=listed, patterns=tuple(patterns))
    if depth == 1 and rng.random() < 0.5:  # a universal part enumerates every atom
        s |= UNIVERSAL
    return s


def test_restricted_enumeration_is_the_full_one_filtered():
    rng = random.Random(1602)
    for _ in range(40):
        depth = rng.randint(1, 3)
        s = random_set(rng, depth)
        alphabet = Alphabet(ALPHABETS[depth], PREDICATES)
        try:
            full = enumerate_atoms(s, alphabet, depth, RESOLVER, CAP)
        except AtomSetTooLarge:
            continue
        keys = {(a.name, len(a.args)) for a in full} | {("p", 1), ("q", 3), ("absent", 2)}
        if s.universal:
            keys = {k for k in keys if k in PREDICATES}
        for key in sorted(keys):
            got = enumerate_atoms(s, alphabet, depth, RESOLVER, CAP, predicate=key)
            assert got == [a for a in full if (a.name, len(a.args)) == key], (s, key)


def test_union_is_the_union_of_its_parts():
    rng = random.Random(2016)
    enumerated = 0
    for _ in range(30):
        depth = rng.randint(1, 2)
        x, y = random_set(rng, depth), random_set(rng, depth)
        alphabet = Alphabet(ALPHABETS[depth], PREDICATES)
        try:
            parts = [enumerate_atoms(p, alphabet, depth, RESOLVER, CAP) for p in (x, y)]
        except AtomSetTooLarge:
            parts = []
        pool = set(ground_atoms(alphabet, depth)).union(x.atoms, y.atoms, *parts)
        for a in sorted(pool, key=atom_key):
            want = contains(x, a, RESOLVER) or contains(y, a, RESOLVER)
            assert contains(x | y, a, RESOLVER) == want, (x, y, a)
        if parts:
            # one counter serves the union: its work is at most the sum of the parts'
            got = enumerate_atoms(x | y, alphabet, depth, RESOLVER, 2 * CAP)
            want = set(parts[0]) | set(parts[1])
            if x.universal or y.universal:  # the union is UNIVERSAL: the alphabet's atoms
                assert x | y == UNIVERSAL, (x, y)
                assert {a for a in want if (a.name, len(a.args)) in PREDICATES} <= set(got), (x, y)
            else:
                assert got == sorted(want, key=atom_key), (x, y)
            enumerated += 1
    assert enumerated >= 20


def test_atoms_are_in_atom_key_order():
    """``enumerate_atoms`` sorts by the ranks of argument objects and
    ``ground_atoms`` sorts nothing, building its atoms in order: on seeded
    sets, and on shuffled atoms whose equal arguments are distinct objects,
    some of them variables or terms of no pool, each order is
    ``atom_key``'s."""
    rng = random.Random(1131)
    enumerated = 0
    for _ in range(40):
        depth = rng.randint(1, 3)
        alphabet = Alphabet(ALPHABETS[depth], PREDICATES)
        try:
            got = enumerate_atoms(random_set(rng, depth), alphabet, depth, RESOLVER, CAP)
        except AtomSetTooLarge:
            continue
        assert got == sorted(got, key=atom_key)
        enumerated += 1
        atoms = [Pred(rng.choice("pq"), tuple(rng.choice(
            (one, two, Compound("1"), make_list([one]), make_list([Compound("1")]), Var("X"),
             Compound("s", (Var("Y"),)), make_list([two, one])))
            for _ in range(rng.randint(0, 2)))) for _ in range(60)] + got[:40]
        rng.shuffle(atoms)
        assert _sorted_atoms(atoms) == sorted(atoms, key=atom_key)
    assert enumerated >= 30
    for depth, functors in ALPHABETS.items():
        atoms = ground_atoms(Alphabet(functors, PREDICATES + (("s", 0),)), depth)
        assert list(atoms) == sorted(atoms, key=atom_key) and len(atoms) > 100


def test_restricted_universal_holds_the_predicate_outside_the_alphabet():
    alphabet = Alphabet((("1", 0),), (("p", 1),))
    got = enumerate_atoms(UNIVERSAL, alphabet, 0, predicate=("q", 2))
    assert got == [Pred("q", (one, one))]


def test_restricted_cap_counts_the_predicate_part_only():
    alphabet = Alphabet(ALPHABETS[1], ())  # 147 terms at depth 2, 49 of them lists
    wide = AtomPattern(Pred("w", (Var("X"), Var("Y"))), ())  # 147 + 147**2 candidates
    narrow = AtomPattern(Pred("n", (Var("X"),)), (Guard("ground_list", (Var("X"),)),))
    s = AtomSet(patterns=(wide, narrow))
    with pytest.raises(AtomSetTooLarge):
        enumerate_atoms(s, alphabet, 2, cap=1000)
    assert len(enumerate_atoms(s, alphabet, 2, cap=1000, predicate=("n", 1))) == 49


def test_concat_output_outside_the_template_leaves_inputs_uncut():
    # concat(K, L, [1, 2]) at depth 1: the output is deeper than the bound,
    # but it is no argument of the atom, so p([1], [2]) is a member
    K, L = Var("K"), Var("L")
    pattern = AtomPattern(Pred("p", (K, L)), (
        Guard("ground_list", (K,)), Guard("ground_list", (L,)),
        Guard("concat", (K, L, make_list([one, two]))),
    ))
    got = enumerate_atoms(AtomSet(patterns=(pattern,)), Alphabet(ALPHABETS[1], ()), 1)
    assert got == [Pred("p", (make_list([one]), make_list([two])))]


@pytest.mark.parametrize("guard", [
    Guard("member", (Var("X"), Var("L"))),
    Guard("member", (Var("X"), make_list([one, two]))),
    Guard("concat", (Var("L"), Var("L"), Var("X"))),
    Guard("list", (Var("X"),)),
    Guard("ground_list", (Var("X"),)),
])
def test_guard_output_outside_the_template_has_no_members(guard):
    # X is no template variable: no atom binds it, and contains rejects every atom,
    # so the leaf tests a list guard on X although X is never drawn
    pattern = AtomPattern(Pred("p", (Var("L"),)), (Guard("ground_list", (Var("L"),)), guard))
    alphabet = Alphabet(ALPHABETS[1], ())
    assert enumerate_atoms(AtomSet(patterns=(pattern,)), alphabet, 1) == []
    assert reference_enumerate_pattern(pattern, alphabet, 1, None, CAP, [0]) == []


def test_append_s_enumerates_within_a_work_count():
    """Depth 3 of append's S has 2,585 atoms; cutting the concat inputs by
    depth reaches them within 10,000 pattern candidates (about 41,000 when
    the inputs were cut by spine length only)."""
    suite = parse_spec((FIXTURES / "append.spec").read_text())
    alphabet = resolve_alphabet(load_program("append.pl"), (), suite)
    [pattern] = suite.s.patterns
    count = [0]
    atoms = _enumerate_pattern(pattern, TermPool(alphabet, 3), None, 10_000, count)
    assert len(atoms) == 2585 and count[0] <= 10_000
    assert len(enumerate_atoms(suite.s, alphabet, 3, cap=10_000)) == 2585


def test_append_s_tests_no_guard_and_builds_no_clause():
    """Depth 3 of append's S: ``concat(K, L, M)`` makes M from two lists drawn
    from the list pool, so ``GUARDS`` gives M the facts of ``ground_list(M)``
    and no leaf tests a guard (the leaves tested that guard 2,585 times);
    and ``semi_complete`` reads only whether some clause covers each atom,
    so it builds no ``Clause`` (it built one covering instance per atom,
    2,585)."""
    suite = parse_spec((FIXTURES / "append.spec").read_text())
    program = load_program("append.pl")
    [pattern] = suite.s.patterns
    calls = {"guard_holds": 0, "Clause": 0}
    real_guard, real_init = cutcheck.atomsets.guard_holds, Clause.__init__

    def counted_guard(*args):
        calls["guard_holds"] += 1
        return real_guard(*args)

    def counted_init(self, *args):
        calls["Clause"] += 1
        real_init(self, *args)

    pool = TermPool(resolve_alphabet(program, (), suite), 3)
    with mock.patch.object(cutcheck.atomsets, "guard_holds", counted_guard):
        atoms = _enumerate_pattern(pattern, pool, None, 10_000, [0])
    with mock.patch.object(Clause, "__init__", counted_init):
        verdict = semi_complete(program, suite)
    assert len(atoms) == 2585 and calls["guard_holds"] == 0, calls
    assert verdict.is_verified and len(verdict.parts) == 2585 and calls["Clause"] == 0, calls
