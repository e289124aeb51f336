import random

import pytest

import cutcheck.atomsets
from cutcheck.atomsets import (
    _lattice_generalizations,
    AtomPattern,
    AtomSetTooLarge,
    AtomSet,
    CapHit,
    Guard,
    UNIVERSAL,
    contains,
    enumerate_atoms,
    forced_ground,
    guard_holds,
    max_generalizations,
    max_generalizations_pattern,
    possibly_contains,
)
from cutcheck.terms import (
    Alphabet,
    Compound,
    Pred,
    Var,
    apply,
    canonical,
    ground_terms,
    is_ground,
    make_list,
    match,
    most_general_atom,
    term_size,
    vars_of,
)

from derivations import variant_equal

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
        atom = Pred("p", tuple(Compound(f"b{i}") for i in range(1, 7)) + (Compound("c"), Compound("c")))
        want = Pred("p", tuple(Var(f"G{i}") for i in range(1, 8)) + (Var("G7"),))
        try:
            gens = max_generalizations(atom, s, None)
        except CapHit:
            return
        assert any(variant_equal(g, want) for g in gens), gens

    def test_relational_walk_cap(self, monkeypatch):
        s = pat(Pred("p", (X, Y)), Guard("eq", (X, Y)))
        atom = Pred("p", (make_list([one, two]), make_list([one, two])))
        [gen] = max_generalizations(atom, s, None)
        assert variant_equal(gen, Pred("p", (X, X)))
        monkeypatch.setattr(cutcheck.atomsets, "GENERALIZATION_CAP", 10)
        with pytest.raises(CapHit, match="^generalization cap 10 hit$"):
            max_generalizations(atom, s, None)


LIST_ALPHA = Alphabet((("1", 0), ("[]", 0), (".", 2)), (("p", 2),))
K, L, M = Var("K"), Var("L"), Var("M")


RELATIONAL = ["member", "member", "subset", "concat", "eq"]


def random_guard(rng, names, kinds=RELATIONAL + ["ground_list"] * 4 + ["ground", "list", "any"]):
    """A guard over variables drawn from ``names``, at times with a ground side."""
    v = lambda: Var(rng.choice(names))
    side = lambda: rng.choice([v(), v(), v(), make_list([one]), make_list([make_list([])])])
    name = rng.choice(kinds)
    if name in ("ground_list", "ground", "list"):
        return Guard(name, (v(),))
    if name in ("member", "subset"):
        return Guard(name, (v(), side()))
    if name == "concat":
        return Guard(name, (v(), v(), side()))
    if name == "eq":
        return Guard(name, (v(), side()))
    return Guard("any", ())


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

    def test_closed_form_has_no_cap(self, monkeypatch):
        # the walk over the generalizations of a forced pattern's atom can pass
        # its cap; the closed form decides the atom all the same
        pattern = AtomPattern(Pred("p", (X, Y)), (Guard("ground_list", (Y,)), Guard("eq", (X, Y))))
        assert pattern.closed_form == {"X", "Y"}
        member = Pred("p", (make_list([one, two]), make_list([one, two])))
        other = Pred("p", (make_list([one, two]), make_list([two, one])))
        monkeypatch.setattr(cutcheck.atomsets, "GENERALIZATION_CAP", 10)
        for atom, want in ((member, [member]), (other, [])):
            assert max_generalizations_pattern(atom, pattern, None) == want
            with pytest.raises(CapHit, match="^generalization cap 10 hit$"):
                _lattice_generalizations(atom, pattern, None)

    def test_closed_form_with_free_variables(self):
        # the relational guards read only forced variables: the others generalise
        pattern = AtomPattern(Pred("p", (X, Y, L)),
                              (Guard("eq", (X, make_list([one]))), Guard("list", (L,))))
        assert pattern.closed_form == {"X"}
        atom = Pred("p", (make_list([one]), two, make_list([two, one])))
        [gen] = max_generalizations_pattern(atom, pattern, None)
        assert variant_equal(gen, Pred("p", (make_list([one]), Y, make_list([K, M]))))
        assert max_generalizations_pattern(Pred("p", (one, two, make_list([]))), pattern) == []
        assert max_generalizations_pattern(Pred("p", (make_list([one]), two, one)), pattern) == []
        unforced = AtomPattern(Pred("p", (X, Y)), (Guard("eq", (X, Y)),))
        assert unforced.closed_form is None

    def test_closed_form_equals_the_lattice_walk(self, monkeypatch):
        """Wherever a pattern has a closed form, it gives what the lattice walk
        gives, on members and on non-members; every other pattern still takes
        the walk."""
        rng = random.Random(15)
        pool = ground_terms(LIST_ALPHA, 2)
        shallow = ground_terms(LIST_ALPHA, 1)
        monkeypatch.setattr(cutcheck.atomsets, "GENERALIZATION_CAP", 3000)
        counts = {"closed": 0, "walked": 0, "members": 0, "capped": 0}
        for _ in range(400):
            names = ["X", "Y", "L", "K"][: rng.randint(2, 3)]
            template = Pred("p", (Var(rng.choice(names)), Var(rng.choice(names))))
            guards = [random_guard(rng, names, RELATIONAL)]
            guards += [random_guard(rng, names) for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.5:
                guards.insert(0, Guard("ground_list", (Var(rng.choice(names)),)))
            pattern = AtomPattern(template, tuple(guards))
            members = enumerate_atoms(AtomSet(patterns=(pattern,)), LIST_ALPHA, 1)
            if pattern.closed_form is not None:
                # small depth-2 members hold two-element lists, whose generalizations
                # tell a variable that is forced from one that is not
                deep = [m for m in enumerate_atoms(AtomSet(patterns=(pattern,)), LIST_ALPHA, 2)
                        if sum(term_size(t) for t in m.args) <= 6]
                atoms = rng.sample(members, min(3, len(members)))
                atoms += rng.sample(deep, min(2, len(deep)))
                atoms.append(Pred("p", (rng.choice(shallow), rng.choice(pool))))
            else:  # both sides walk: one atom checks the dispatch
                atoms = [Pred("p", (rng.choice(shallow), rng.choice(shallow)))]
            for atom in atoms:
                try:
                    want = _lattice_generalizations(atom, pattern, None)
                except CapHit:
                    counts["capped"] += 1
                    continue
                got = max_generalizations_pattern(atom, pattern, None)
                # the closed form and the walk name their fresh variables apart
                assert [canonical(g) for g in got] == [canonical(g) for g in want], (
                    pattern, atom, got, want)
                counts["walked" if pattern.closed_form is None else "closed"] += 1
                counts["members"] += bool(got)
        assert counts["closed"] > 250 and counts["walked"] > 100, counts
        assert counts["members"] > 150, counts
