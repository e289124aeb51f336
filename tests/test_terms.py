import pytest

from cutcheck.terms import (
    CUT,
    Alphabet,
    Clause,
    Compound,
    CutUnificationError,
    EMPTY_SUBST,
    FreshNames,
    Pred,
    Subst,
    Var,
    apply,
    atom_depth,
    canonical,
    compose,
    cons,
    const,
    enumerate_ground,
    ground_atoms,
    ground_terms,
    infer_alphabet,
    is_ground,
    is_list,
    list_items,
    list_length,
    list_norm,
    make_list,
    match,
    most_general_atom,
    occurs,
    rename_apart,
    resolve,
    term_depth,
    term_size,
    unify,
    variant_equal,
    vars_of,
)

a, b = const("a"), const("b")
X, Y, Z = Var("X"), Var("Y"), Var("Z")


def f(*args):
    return Compound("f", args)


class TestUnify:
    def test_simple_binding(self):
        s = unify(Pred("p", (X,)), Pred("p", (a,)))
        assert s.get("X") == a

    def test_symmetric_var(self):
        s = unify(f(X, a), f(b, Y))
        assert apply(s, f(X, a)) == apply(s, f(b, Y)) == f(b, a)

    def test_clash(self):
        assert unify(f(a), f(b)) is None
        assert unify(Pred("p", (a,)), Pred("q", (a,))) is None
        assert unify(Pred("p", (a,)), Pred("p", (a, b))) is None

    def test_occurs_check(self):
        assert unify(X, f(X)) is None
        assert unify(f(X, X), f(Y, f(Y))) is None

    def test_idempotent_and_relevant(self):
        s = unify(f(X, Y), f(Y, a))
        assert s.is_idempotent()
        assert s.domain | s.range_vars <= {"X", "Y"}

    def test_cut_rejected(self):
        with pytest.raises(CutUnificationError):
            unify(CUT, CUT)

    def test_shared_variable_chains(self):
        s = unify(f(X, f(X)), f(Y, Z))
        assert apply(s, f(X, f(X))) == apply(s, f(Y, Z))


class TestLongTerms:
    """Unification, application and resolution keep their own stacks."""

    N = 5000

    def test_unify_and_apply_long_lists(self):
        items = [a] * self.N
        open_list = make_list(items, Z)
        theta = unify(open_list, make_list(items + [b]))
        assert list_items(theta["Z"]) == [b]
        assert len(list_items(apply(theta, open_list))) == self.N + 1
        assert unify(open_list, make_list(items, f(Z))) is None  # occurs check

    def test_resolve_long_binding_chain(self):
        bindings = {"X": cons(a, Var("K1"))}
        for i in range(1, self.N):
            bindings[f"K{i}"] = cons(a, Var(f"K{i + 1}"))
        answer = resolve(bindings, (Pred("p", (X, Y)),))
        assert answer[0].args[1] == Y
        items = []
        t = answer[0].args[0]
        while isinstance(t, Compound):
            items.append(t.args[0])
            t = t.args[1]
        assert items == [a] * self.N and t == Var(f"K{self.N}")


class TestMatch:
    def test_one_way(self):
        s = match(Pred("p", (X,)), Pred("p", (a,)))
        assert s.get("X") == a
        assert match(Pred("p", (a,)), Pred("p", (X,))) is None

    def test_tuple_sharing(self):
        s = match((Pred("p", (X,)), Pred("q", (X,))), (Pred("p", (a,)), Pred("q", (a,))))
        assert s is not None
        assert match((Pred("p", (X,)), Pred("q", (X,))), (Pred("p", (a,)), Pred("q", (b,)))) is None

    def test_cut_matches_only_itself(self):
        assert match((CUT,), (CUT,)) is not None
        assert match((X,), (a,)) is not None


class TestSubst:
    def test_identity_dropped(self):
        assert Subst({"X": X}).domain == set()

    def test_compose_associates_with_apply(self):
        s = Subst({"X": Var("Y")})
        t = Subst({"Y": a})
        assert apply(compose(s, t), f(X, Y)) == apply(t, apply(s, f(X, Y)))

    def test_restrict(self):
        s = Subst({"X": a, "Y": b})
        assert s.restrict(["X"]).domain == {"X"}

    def test_occurs(self):
        assert occurs("X", f(f(X)))
        assert not occurs("X", f(Y))


class TestRename:
    def test_fresh_against_forbidden(self):
        c = Clause(Pred("p", (X,)), (Pred("q", (X, Y)),))
        v = rename_apart(c, {"X", "Y"})
        assert set(vars_of(v)).isdisjoint({"X", "Y"})
        assert variant_equal(c, v)

    def test_fresh_names_monotone(self):
        fresh = FreshNames()
        v1 = rename_apart(X, {"X"}, fresh)
        v2 = rename_apart(X, {"X", v1.name}, fresh)
        assert v1 != v2


class TestLists:
    def test_make_and_items(self):
        t = make_list([a, b])
        assert is_list(t)
        assert list_items(t) == [a, b]
        assert list_length(t) == 2

    def test_improper(self):
        t = cons(a, X)
        assert list_items(t) is None
        assert not is_list(t)

    def test_norms(self):
        assert list_norm(make_list([a, b])) == 2
        assert list_norm(a) == 0
        with pytest.raises(ValueError):
            list_norm(cons(a, X))
        assert term_size(f(a, f(b))) == term_size(f(f(b), a))


class TestMeasures:
    def test_depth(self):
        assert term_depth(a) == 0
        assert term_depth(f(f(a))) == 2
        assert atom_depth(Pred("p", (f(a), a))) == 1

    def test_canonical_variant_invariance(self):
        t1 = f(X, f(X, Y))
        t2 = f(Z, f(Z, X))
        assert canonical(t1) == canonical(t2)
        assert canonical(t1) != canonical(f(X, f(Y, Y)))


class TestEnumeration:
    def test_ground_terms_exhaustive_depth1(self):
        alpha = Alphabet((("a", 0), ("f", 1)), ())
        terms = ground_terms(alpha, 1)
        assert set(terms) == {a, f(a)}

    def test_ground_atoms(self):
        alpha = Alphabet((("a", 0),), (("p", 1),))
        assert list(ground_atoms(alpha, 0)) == [Pred("p", (a,))]

    def test_enumerate_ground_instances(self):
        alpha = Alphabet((("a", 0), ("b", 0)), ())
        terms = list(enumerate_ground(alpha, 0))
        assert terms == [a, b]
        assert all(is_ground(t) for t in terms)

    def test_infer_alphabet(self):
        alpha = infer_alphabet((Clause(Pred("p", (f(a),)), ()),))
        assert ("f", 1) in alpha.functors and ("a", 0) in alpha.functors
        assert ("p", 1) in alpha.predicates

    def test_most_general_atom(self):
        g = most_general_atom("p", 2)
        assert match(g, Pred("p", (a, b))) is not None
