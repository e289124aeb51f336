import pytest

from cutcheck.atomsets import (
    AtomPattern,
    AtomSetTooLarge,
    AtomSet,
    CapHit,
    Guard,
    UNIVERSAL,
    contains,
    enumerate_atoms,
    guard_holds,
    max_generalizations,
    possibly_contains,
)
from cutcheck.terms import (
    Alphabet,
    Pred,
    Subst,
    Var,
    apply,
    const,
    is_ground,
    make_list,
    match,
    most_general_atom,
    vars_of,
)

from derivations import variant_equal

a, b, one, two = const("a"), const("b"), const("1"), const("2")
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
        env = Subst({"X": one, "L": make_list([one, two])})
        assert guard_holds(Guard("member", (Var("X"), Var("L"))), env, None, None)
        assert guard_holds(
            Guard("subset", (make_list([two]), Var("L"))), env, None, None
        )
        assert guard_holds(
            Guard("concat", (make_list([one]), make_list([two]), make_list([one, two]))),
            Subst(),
            None,
            None,
        )
        assert not guard_holds(Guard("member", (const("3"), Var("L"))), env, None, None)

    def test_ground_and_list(self):
        assert guard_holds(Guard("ground", (a,)), Subst(), None, None)
        assert not guard_holds(Guard("ground", (X,)), Subst(), None, None)
        assert guard_holds(Guard("list", (make_list([X]),)), Subst(), None, None)
        assert not guard_holds(Guard("ground_list", (make_list([X]),)), Subst(), None, None)

    def test_notin_resolves_named_set(self):
        resolver = {"other": AtomSet(atoms=(Pred("p", (a,)),))}
        g = Guard("notin", (Pred("p", (Var("X"),)), "other"))
        assert not guard_holds(g, Subst({"X": a}), None, resolver)
        assert guard_holds(g, Subst({"X": b}), None, resolver)


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


class TestMaxGeneralizations:
    def test_universal_gives_most_general(self):
        gens = max_generalizations(Pred("p", (a,)), UNIVERSAL, None)
        assert gens == [most_general_atom("p", 1)]

    def test_extensional_gives_atom_itself(self):
        s = AtomSet(atoms=(Pred("p", (a,)),))
        assert max_generalizations(Pred("p", (a,)), s, None) == [Pred("p", (a,))]
        assert max_generalizations(Pred("p", (b,)), s, None) == []

    def test_pattern_guard_directed(self):
        s = pat(Pred("q", (X, Y)), Guard("any", ()), Guard("ground", (Y,)))
        a_atom = Pred("q", (a, b))
        gens = max_generalizations(a_atom, s, None)
        assert len(gens) == 1
        g = gens[0]
        # first argument generalized away, second kept verbatim
        assert isinstance(g.args[0], Var) and g.args[1] == b
        assert match(g, a_atom) is not None

    def test_generalizations_stay_inside_set(self):
        s = pat(Pred("p", (X,)), Guard("list", (X,)))
        atom = Pred("p", (make_list([one]),))
        for g in max_generalizations(atom, s, None):
            assert contains(s, g)
            assert match(g, atom) is not None

    def test_relational_walk_shares_every_repeated_value(self):
        # eq(X, Y) ties the last two arguments; the six other values come
        # first in the atom, and the most general member still shares c's slot
        s = pat(Pred("p", tuple(Var(n) for n in "ABCDEFXY")), Guard("eq", (X, Y)))
        atom = Pred("p", tuple(const(f"b{i}") for i in range(1, 7)) + (const("c"), const("c")))
        want = Pred("p", tuple(Var(f"G{i}") for i in range(1, 8)) + (Var("G7"),))
        try:
            gens = max_generalizations(atom, s, None)
        except CapHit:
            return
        assert any(variant_equal(g, want) for g in gens), gens

    def test_relational_walk_cap(self):
        s = pat(Pred("p", (X, Y)), Guard("eq", (X, Y)))
        atom = Pred("p", (make_list([one, two]), make_list([one, two])))
        [gen] = max_generalizations(atom, s, None)
        assert variant_equal(gen, Pred("p", (X, X)))
        with pytest.raises(CapHit, match="^generalization cap 10 hit$"):
            max_generalizations(atom, s, None, cap=10)
