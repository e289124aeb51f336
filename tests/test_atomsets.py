import random

import pytest

from cutcheck.atomsets import (
    AtomPattern,
    AtomSetTooLarge,
    AtomSet,
    Guard,
    UNIVERSAL,
    contains,
    enumerate_atoms,
    forced_ground,
    guard_holds,
    possibly_contains,
    seeds,
)
from cutcheck.syntax import parse_program
from cutcheck.terms import (
    CUT,
    Alphabet,
    Clause,
    Compound,
    Pred,
    Var,
    ground_terms,
    is_ground,
    lgg,
    make_list,
    match,
    most_general_atom,
    term_size,
)

from derivations import variant_equal
from generalizations import LIST_ALPHA, RELATIONAL, Oracle, random_guard

a, b, one, two = Compound("a"), Compound("b"), Compound("1"), Compound("2")
X, Y = Var("X"), Var("Y")
ALPHA = Alphabet((("1", 0), ("2", 0), ("[]", 0), (".", 2)), (("p", 1), ("q", 2)))


def pat(template, *guards):
    return AtomSet(patterns=(AtomPattern(template, tuple(guards)),))


class TestGuards:
    def test_arity_validation(self):
        with pytest.raises(ValueError):
            Guard("member", (X,))
        with pytest.raises(ValueError):
            Guard("wat", ())

    def test_member_subset_concat(self):
        env = {"X": one, "L": make_list([one, two])}
        assert guard_holds(Guard("member", (Var("X"), Var("L"))), env, None, None)
        assert guard_holds(
            Guard("subset", (make_list([two]), Var("L"))), env, None, None
        )
        assert guard_holds(
            Guard("concat", (make_list([one]), make_list([two]), make_list([one, two]))),
            {},
            None,
            None,
        )
        assert not guard_holds(Guard("member", (Compound("3"), Var("L"))), env, None, None)

    def test_ground_and_list(self):
        assert guard_holds(Guard("ground", (a,)), {}, None, None)
        assert not guard_holds(Guard("ground", (X,)), {}, None, None)
        assert guard_holds(Guard("list", (make_list([X]),)), {}, None, None)
        assert not guard_holds(Guard("ground_list", (make_list([X]),)), {}, None, None)

    def test_notin_resolves_named_set(self):
        resolver = {"other": AtomSet(atoms=(Pred("p", (a,)),))}
        g = Guard("notin", (Pred("p", (Var("X"),)), "other"))
        assert not guard_holds(g, {"X": a}, None, resolver)
        assert guard_holds(g, {"X": b}, None, resolver)


class TestContains:
    def test_extensional_ground_only(self):
        s = AtomSet(atoms=(Pred("p", (a,)),))
        assert contains(s, Pred("p", (a,)))
        assert not contains(s, Pred("p", (X,)))
        assert possibly_contains(s, Pred("p", (X,)))

    def test_intensional_sound_for_instances(self):
        s = pat(Pred("p", (X,)), Guard("list", (X,)))
        member = Pred("p", (make_list([Y]),))
        assert contains(s, member)
        for inst in (Pred("p", (make_list([a]),)), Pred("p", (make_list([b]),))):
            assert contains(s, inst)
        assert not contains(s, Pred("p", (a,)))

    def test_union_and_universal(self):
        s = AtomSet(atoms=(Pred("p", (a,)),)) | UNIVERSAL
        assert contains(s, Pred("q", (b, b)))
        assert contains(UNIVERSAL, Pred("anything", ()))
        assert possibly_contains(s, Pred("q", (X, Y)))

    def test_a_universal_set_has_one_form(self):
        listed = AtomSet(atoms=(Pred("p", (a,)),), patterns=(AtomPattern(Pred("q", (X, Y))),))
        given = AtomSet(universal=True, atoms=listed.atoms, patterns=listed.patterns)
        assert given == UNIVERSAL and hash(given) == hash(UNIVERSAL)
        assert given.atoms == given.patterns == ()
        for s in (listed, AtomSet(), UNIVERSAL, given):
            assert UNIVERSAL | s == s | UNIVERSAL == UNIVERSAL


class TestEnumerate:
    def test_extensional_depth_filter(self):
        s = AtomSet(atoms=(Pred("p", (make_list([one, two]),)), Pred("p", (a,))))
        assert enumerate_atoms(s, ALPHA, 0) == [Pred("p", (a,))]

    def test_guard_driven_concat(self):
        s = pat(
            Pred("q", (X, Y)),
            Guard("ground_list", (X,)),
            Guard("ground_list", (Y,)),
        )
        atoms = enumerate_atoms(s, ALPHA, 1)
        assert all(is_ground(x) for x in atoms)
        assert Pred("q", (make_list([]), make_list([one]))) in atoms

    def test_members_satisfy_guards(self):
        s = pat(
            Pred("q", (X, Y)),
            Guard("ground_list", (Y,)),
            Guard("member", (X, Y)),
        )
        for atom in enumerate_atoms(s, ALPHA, 2):
            items = []
            t = atom.args[1]
            from cutcheck.terms import list_items

            assert atom.args[0] in list_items(t)

    def test_universal_cap_counts_the_product_before_building_it(self):
        alphabet = Alphabet((("a", 0), ("f", 1), ("g", 2)), (("p", 3),))  # 13 terms at depth 2
        with pytest.raises(AtomSetTooLarge, match="universal enumeration cap 100 hit at depth 2"):
            enumerate_atoms(UNIVERSAL, alphabet, 2, cap=100, predicate=("p", 3))
        assert len(enumerate_atoms(UNIVERSAL, alphabet, 2, cap=13 ** 3, predicate=("p", 3))) == 2197

    def test_cap(self):
        s = pat(Pred("q", (X, Y)))
        with pytest.raises(AtomSetTooLarge):
            enumerate_atoms(s, ALPHA, 2, cap=10)


class TestSeeds:
    def test_universal_gives_most_general(self):
        assert seeds(Pred("p", (a,)), UNIVERSAL) == [most_general_atom("p", 1)]

    def test_extensional_gives_atom_itself(self):
        s = AtomSet(atoms=(Pred("p", (a,)),))
        assert seeds(Pred("p", (a,)), s) == [Pred("p", (a,))]
        assert seeds(Pred("p", (b,)), s) == []

    def test_pattern_guard_directed(self):
        s = pat(Pred("q", (X, Y)), Guard("any", ()), Guard("ground", (Y,)))
        a_atom = Pred("q", (a, b))
        [g] = seeds(a_atom, s)
        # first argument generalized away, second kept verbatim
        assert isinstance(g.args[0], Var) and g.args[1] == b
        assert match(g, a_atom) is not None and contains(s, g)

    def test_a_list_seed_keeps_its_length(self):
        s = pat(Pred("p", (X,)), Guard("list", (X,)))
        atom = Pred("p", (make_list([one]),))
        [g] = seeds(atom, s)
        assert variant_equal(g, Pred("p", (make_list([Y]),)))
        assert contains(s, g) and match(g, atom) is not None

    def test_lgg_shares_every_repeated_pair(self):
        # eq(X, Y) ties the last two arguments; the six other values come
        # first in the atom.  The seed forces nothing and lies outside the
        # set; the lgg with another member shares c's slot and lies inside it
        s = pat(Pred("p", tuple(Var(n) for n in "ABCDEFXY")), Guard("eq", (X, Y)))
        atom = Pred("p", tuple(Compound(f"b{i}") for i in range(1, 7)) + (Compound("c"),) * 2)
        other = Pred("p", tuple(Compound(f"d{i}") for i in range(1, 7)) + (Compound("e"),) * 2)
        [seed] = seeds(atom, s)
        assert variant_equal(seed, Pred("p", tuple(Var(n) for n in "ABCDEFXY")))
        assert not contains(s, seed)
        want = Pred("p", tuple(Var(f"G{i}") for i in range(1, 8)) + (Var("G7"),))
        assert lgg(atom, other) == want and contains(s, want)
        assert not contains(s, lgg(atom, Pred("p", other.args[:7] + (Compound("f"),))))


K, L, M = Var("K"), Var("L"), Var("M")


class TestForcedGround:
    def test_rules(self):
        g = lambda name, *args: Guard(name, args)
        assert forced_ground((g("ground_list", L), g("member", X, L))) == {"L", "X"}
        assert forced_ground((g("member", X, L), g("list", L))) == set()
        assert forced_ground((g("member", X, make_list([one, two])),)) == {"X"}
        assert forced_ground((g("ground", X), g("member", X, L))) == {"X"}  # L may hold variables
        assert forced_ground((g("ground", M), g("concat", K, L, M))) == {"M", "K", "L"}
        assert forced_ground((g("ground", K), g("concat", K, L, M))) == {"K"}
        assert forced_ground((g("ground", K), g("ground", L), g("concat", K, L, M))) == {
            "K", "L", "M"}
        assert forced_ground((g("ground", make_list([X])),)) == {"X"}
        # a chain read against the guard order needs more than one round
        chain = (g("eq", X, Y), g("subset", Y, L), g("ground_list", L))
        assert forced_ground(chain) == {"X", "Y", "L"}
        assert forced_ground((g("notin", Pred("q", (X,)), "s"), g("any"))) == set()

    def test_forced_seed_keeps_the_values(self):
        # both arguments are forced ground: the seed of a member is the member
        pattern = AtomPattern(Pred("p", (X, Y)), (Guard("ground_list", (Y,)), Guard("eq", (X, Y))))
        assert pattern.forced == {"X", "Y"}
        member = Pred("p", (make_list([one, two]), make_list([one, two])))
        other = Pred("p", (make_list([one, two]), make_list([two, one])))
        one_set = AtomSet(patterns=(pattern,))
        assert seeds(member, one_set) == [member]
        assert seeds(other, one_set) == []

    def test_seed_with_free_variables(self):
        # the relational guards read only forced variables: the others generalise
        pattern = AtomPattern(Pred("p", (X, Y, L)),
                              (Guard("eq", (X, make_list([one]))), Guard("list", (L,))))
        one_set = AtomSet(patterns=(pattern,))
        assert pattern.forced == {"X"}
        atom = Pred("p", (make_list([one]), two, make_list([two, one])))
        [gen] = seeds(atom, one_set)
        assert variant_equal(gen, Pred("p", (make_list([one]), Y, make_list([K, M]))))
        assert seeds(Pred("p", (one, two, make_list([]))), one_set) == []
        assert seeds(Pred("p", (make_list([one]), two, one)), one_set) == []
        unforced = AtomPattern(Pred("p", (X, Y)), (Guard("eq", (X, Y)),))
        assert unforced.forced == set()
        [gen] = seeds(Pred("p", (one, one)), AtomSet(patterns=(unforced,)))
        assert variant_equal(gen, Pred("p", (X, Y)))

    def test_seeds_hold_every_member_the_oracle_finds(self):
        """Every generalization of the atom that ``contains`` puts in the set,
        as the brute-force oracle lists them, is an instance of a seed; a
        seed that lies in the set is one of them."""
        rng = random.Random(15)
        pool = ground_terms(LIST_ALPHA, 2)
        shallow = ground_terms(LIST_ALPHA, 1)
        counts = {"in set": 0, "outside": 0, "members": 0, "generalizations": 0}
        for _ in range(400):
            names = ["X", "Y", "L", "K"][: rng.randint(2, 3)]
            template = Pred("p", (Var(rng.choice(names)), Var(rng.choice(names))))
            guards = [random_guard(rng, names, RELATIONAL)]
            guards += [random_guard(rng, names) for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.5:
                guards.insert(0, Guard("ground_list", (Var(rng.choice(names)),)))
            s = AtomSet(patterns=(AtomPattern(template, tuple(guards)),))
            members = enumerate_atoms(s, LIST_ALPHA, 1)
            # small depth-2 members hold two-element lists, whose generalizations
            # tell a variable that is forced from one that is not
            deep = [m for m in enumerate_atoms(s, LIST_ALPHA, 2)
                    if sum(term_size(t) for t in m.args) <= 6]
            atoms = rng.sample(members, min(3, len(members)))
            atoms += rng.sample(deep, min(2, len(deep)))
            atoms.append(Pred("p", (rng.choice(shallow), rng.choice(pool))))
            for atom in atoms:
                oracle = Oracle(atom, s, shallow)
                got = seeds(atom, s)
                assert bool(got) == contains(s, atom), (s, atom, got)
                for m in oracle.members():
                    assert any(match(g, m) is not None for g in got), (s, atom, m, got)
                for g in got:
                    if contains(s, g):
                        assert any(variant_equal(g, m) for m in oracle.members()), (s, atom, g)
                        counts["in set"] += 1
                    else:
                        counts["outside"] += 1
                counts["members"] += bool(oracle.members())
                counts["generalizations"] += len(oracle.classes)
        assert counts["in set"] > 250 and counts["outside"] > 100, counts
        assert counts["members"] > 150, counts


class TestClauseCuts:
    @pytest.mark.parametrize("text", ["p(X) :- q(X), r(X).", "p(X) :- q(X), !, r(X).",
                                      "p(X) :- q(X), !, r(X), !, s(X).", "p :- !, !."])
    def test_splits_are_the_slices_at_the_cut_positions(self, text):
        clause = parse_program(text).clauses[0]
        body = clause.body
        cuts = [i for i, x in enumerate(body) if x is CUT]
        if not cuts:
            assert clause.first_cut is clause.last_cut is clause.prefix is None
            return
        first, last = cuts[0], cuts[-1]
        assert clause.first_cut == (body[:first], body[first + 1:])
        assert clause.last_cut == (body[:last], body[last + 1:])
        assert clause.prefix == Clause(clause.head, body[:last])
        assert clause.prefix is clause.prefix  # kept on the clause
