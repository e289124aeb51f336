import itertools
import random
from unittest import mock

import pytest

from cutcheck import Budget, build_tree, parse_program, parse_query, pruned_tree, terms
from cutcheck.terms import (
    CUT,
    GROUND_TERM_CAP,
    Alphabet,
    CapHit,
    Clause,
    Compound,
    CutUnificationError,
    FreshNames,
    NIL,
    Pred,
    Var,
    _unify_pairs,
    apply,
    atom_depth,
    atom_key,
    collect_symbols,
    cons,
    ground_atoms,
    ground_term_count,
    ground_terms,
    infer_alphabet,
    is_ground,
    is_list,
    list_items,
    list_norm,
    make_list,
    match,
    most_general_atom,
    rename_apart,
    renaming,
    resolve,
    term_depth,
    term_key,
    term_size,
    unify,
    vars_of,
)

from derivations import canonical, variant_equal
from match_reference import recursive_match
from term_key_reference import uncached_term_key
from naive_unify import (
    is_idempotent,
    naive_apply,
    naive_resolve,
    naive_unify,
    naive_vars_of,
    occurs,
    range_vars,
)

a, b = Compound("a"), Compound("b")
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
        assert is_idempotent(s)
        assert set(s) | range_vars(s) <= {"X", "Y"}

    def test_cut_rejected(self):
        with pytest.raises(CutUnificationError):
            unify(CUT, CUT)

    def test_shared_variable_chains(self):
        s = unify(f(X, f(X)), f(Y, Z))
        assert apply(s, f(X, f(X))) == apply(s, f(Y, Z))


class TestHeadUnification:
    """A resolution step unifies the goal with the clause head as written,
    read through the renaming, and skips the occurs check at the one
    occurrence of a head-linear variable."""

    def test_head_linear_names(self):
        clause = parse_program("p(X, f(X, Y), g(Z), [H | T], a) :- q(Y, W, W).").clauses[0]
        assert clause.head_linear == {"Y", "Z", "H", "T"}
        assert parse_program("p(X, Y, X).").clauses[0].head_linear == {"Y"}
        assert parse_program("p.").clauses[0].head_linear == frozenset()

    def test_lazy_head_equals_the_renamed_head(self):
        """On 5,000 seeded heads with repeated and single variables, goals
        and triangular stores, the loop on the head as written with the
        renaming and the head-linear names gives the bindings, in order,
        that it gives on the renamed head with neither, and leaves the store
        as it was.  Resolved through the store, ``naive_unify`` agrees: the
        goal and the head unify or fail alike, and the answer is a variant
        of the naive one."""
        rng = random.Random(36)
        head_names = ("X", "Y", "H")
        goal_names = ("X", "Y", "A")  # X and Y clash with head names: renamed

        def term(names, depth):
            r = rng.random()
            if r < 0.45:
                return Var(rng.choice(names))
            if not depth or r < 0.55:
                return a
            if r < 0.85:
                return f(term(names, depth - 1))
            return Compound("g", (term(names, depth - 1), term(names, depth - 1)))

        real_occurs = terms._occurs_bound
        occurs_failed = [False]

        def recorded_occurs(name, t, bindings):
            found = real_occurs(name, t, bindings)
            occurs_failed[0] |= found
            return found

        seen = {"unified": 0, "clash": 0, "occurs": 0, "linear bound": 0, "through the store": 0}
        for _ in range(5000):
            arity = rng.randint(1, 3)
            clause = Clause(Pred("p", tuple(term(head_names, 2) for _ in range(arity))))
            goal = Pred("p", tuple(term(goal_names, 2) for _ in range(arity)))
            order = list(goal_names)
            rng.shuffle(order)  # each name is bound to a term over the names after it: acyclic
            store = {}
            for i, n in enumerate(order):
                if rng.random() < 0.4:
                    store[n] = apply({m: a for m in order[: i + 1]}, term(goal_names, 2))
            before = dict(store)
            rho = renaming(clause.var_names, set(goal_names), FreshNames())
            renamed = apply(rho, clause.head)
            occurs_failed[0] = False
            with mock.patch.object(terms, "_occurs_bound", recorded_occurs):
                got = _unify_pairs(list(goal.args[::-1]), list(clause.head.args[::-1]), store, rho,
                                   clause.head_linear)
            want = _unify_pairs(list(goal.args[::-1]), list(renamed.args[::-1]), store, {},
                                frozenset())
            assert store == before
            assert (got is None) == (want is None), (clause, goal, store)
            resolved = naive_resolve(store, goal)
            naive = naive_unify(resolved, renamed)
            assert (naive is None) == (got is None), (clause, goal, store)
            if got is None:
                seen["occurs" if occurs_failed[0] else "clash"] += 1
                continue
            assert list(got.items()) == list(want.items()), (clause, goal, store)
            answer = naive_resolve({**store, **got}, goal)
            assert answer == naive_resolve({**store, **got}, renamed), (clause, goal, store)
            assert variant_equal(answer, naive_apply(naive, resolved)), (clause, goal, store)
            seen["unified"] += 1
            linear = {rho.get(n, Var(n)).name for n in clause.head_linear}
            seen["linear bound"] += any(n in linear and v.__class__ is Compound for n, v in got.items())
            seen["through the store"] += any(isinstance(t, Var) and t.name in store for t in goal.args)
        assert min(seen.values()) >= 100, seen


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


    def test_vars_of_and_is_ground_deep_terms(self):
        open_list = make_list([a] * self.N, Z)
        nested = a
        for _ in range(self.N):
            nested = f(nested, Y)
        assert vars_of(Pred("p", (open_list, X, nested))) == ["Z", "X", "Y"]
        assert vars_of(Clause(Pred("p", (nested,)), (CUT, Pred("q", (open_list,))))) == ["Y", "Z"]
        assert is_ground(make_list([a] * self.N)) and not is_ground(open_list)
        assert not is_ground((Pred("q", (nested,)),))

    def test_term_size_deep_terms(self):
        nested = a
        for _ in range(self.N):
            nested = f(nested)
        assert term_size(nested) == self.N + 1
        assert term_size(make_list([a] * self.N)) == 2 * self.N + 1
        with pytest.raises(ValueError):
            term_size(f(nested, X))

    def test_depth_key_and_symbols_deep_terms(self):
        long_list = make_list([a] * self.N)
        nested = a
        for _ in range(self.N):
            nested = f(nested, Y)
        assert term_depth(long_list) == self.N and term_depth(nested) == self.N
        assert atom_depth(Pred("p", (a, long_list))) == self.N
        for t, deep in ((long_list, 1), (nested, 0)):  # the argument that goes deep
            key = term_key(t)
            for level in range(self.N, 0, -1):  # walk the key down, without recursion
                assert key[:3] == (level, 1, t.functor) and len(key[3]) == 2
                assert key[3][1 - deep] == term_key(t.args[1 - deep])
                key, t = key[3][deep], t.args[deep]
            assert key == term_key(t) == (0, 1, t.functor, ())
        functors, predicates = set(), set()
        collect_symbols(Clause(Pred("p", (long_list,)), (CUT, Pred("q", (nested, X)))), functors, predicates)
        assert functors == {(".", 2), ("a", 0), ("[]", 0), ("f", 2)}
        assert predicates == {("p", 1), ("q", 2)}

    def test_equality_and_hash_deep_terms(self):
        def deep(last):  # a long list nested under as many f/2 layers
            t = make_list([a] * self.N + [last])
            for _ in range(self.N):
                t = f(t, X)
            return t

        s, t, u = deep(b), deep(b), deep(a)  # u differs from s only at the bottom
        assert s == t and s is not t and hash(s) == hash(t) and s != u
        assert Pred("p", (s,)) == Pred("p", (t,)) != Pred("p", (u,))
        assert hash(Pred("p", (s,))) == hash(Pred("p", (t,)))
        assert len({s, t, u}) == 2 and {s, u} & {t} == {s}

    def test_match_deep_terms(self):
        long_list = make_list([a] * self.N)
        theta = match(Pred("p", (make_list([a] * (self.N - 1), X), Y)), Pred("p", (long_list, b)))
        assert theta == {"X": make_list([a]), "Y": b}
        assert match(long_list, long_list) == {}
        assert match(make_list([a] * self.N, X), make_list([a] * (self.N - 1))) is None
        general, specific = X, b
        for _ in range(self.N):
            general, specific = f(general, Y), f(specific, a)
        theta = match(general, specific)
        assert theta == {"X": b, "Y": a}
        # a repeated variable compares two equal lists that are different objects
        twice = Pred("p", (X, X))
        assert match(twice, Pred("p", (long_list, make_list([a] * self.N)))).keys() == {"X"}
        assert match(twice, Pred("p", (long_list, make_list([a] * (self.N - 1) + [b])))) is None


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
        assert match((X,), (CUT,)) is None  # a variable never binds to cut
        assert match((CUT,), (X,)) is None

    def test_foreign_object_raises(self):
        with pytest.raises(TypeError, match="cannot match 1"):
            match(f(1), f(a))
        assert match(Pred("p", (a, 1)), Pred("p", (b, a))) is None  # fails before reaching it

    def test_agrees_with_recursive_matcher(self):
        rng = random.Random(7)
        names = ("X", "Y", "Z")  # few names, so variables repeat
        functors = (("a", 0), ("b", 0), ("f", 1), ("f", 2), ("g", 2))  # f/1 and f/2: arity clashes

        def term(depth):
            r = rng.random()
            if r < 0.3:
                return Var(rng.choice(names))
            if r < 0.31:
                return rng.choice((1, None, CUT))  # a foreign object or cut inside a term
            name, k = rng.choice(functors if depth else functors[:2])
            return Compound(name, tuple(term(depth - 1) for _ in range(k)))

        def atom():
            if rng.random() < 0.1:
                return CUT
            name, k = rng.choice((("p", 1), ("p", 2), ("q", 2)))
            return Pred(name, tuple(term(2) for _ in range(k)))

        def instance(e):
            theta = {n: term(1) for n in names if rng.random() < 0.7}
            try:
                return apply(theta, e)
            except (AttributeError, TypeError):  # a foreign object: match the raw form
                return e

        def pair():
            kind = rng.random()
            if kind < 0.4:
                g = term(3)
            elif kind < 0.8:
                g = atom()
            else:
                g = tuple(atom() for _ in range(rng.randint(0, 3)))
            if rng.random() < 0.5:
                return g, instance(g)
            other = rng.random()
            if other < 0.4:
                return g, term(3)
            if other < 0.8:
                return g, atom()
            return g, tuple(atom() for _ in range(rng.randint(0, 3)))

        outcomes = {"match": 0, "none": 0, "error": 0}
        for _ in range(5000):
            g, s = pair()
            try:
                want = recursive_match(g, s)
            except TypeError as exc:
                with pytest.raises(TypeError) as got:
                    match(g, s)
                assert str(got.value) == str(exc), (g, s)
                outcomes["error"] += 1
                continue
            got = match(g, s)
            assert got == want, (g, s)
            outcomes["match" if got is not None else "none"] += 1
        assert min(outcomes.values()) >= 50, outcomes


class TestGroundFlag:
    def test_flag_comes_from_the_arguments(self):
        assert a.ground and f(a, f(b)).ground and make_list([a, f(b)]).ground
        assert not f(a, X).ground and not f(f(a, X)).ground and not cons(a, X).ground
        assert not f(1).ground and not f(a, CUT).ground  # a foreign argument is not ground

    def test_flag_is_not_part_of_the_value(self):
        hash(f(a))  # the cached hash is no part of the value either
        assert repr(f(a)) == "Compound(functor='f', args=(Compound(functor='a', args=()),))"
        assert f(a, b) == Compound("f", (a, b)) and hash(f(a, b)) == hash(Compound("f", (a, b)))
        with pytest.raises(AttributeError):
            f(a).ground = False

    def test_equality_and_hash_agree_with_the_structure(self):
        """``==`` against the (recursive) dataclass ``repr`` as the oracle, on
        seeded shallow terms and equal copies of them; equal terms hash
        alike, and a hash is the dataclass one, ``hash((functor, args))``."""
        rng = random.Random(8)

        def term(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice((a, b, X, Y, NIL))
            return Compound(rng.choice("fg"), tuple(term(depth - 1) for _ in range(rng.randint(1, 2))))

        def copy(t):
            return Compound(t.functor, tuple(map(copy, t.args))) if isinstance(t, Compound) else t

        terms = [term(3) for _ in range(300)]
        terms += [copy(t) for t in terms]
        for _ in range(5000):
            s, t = rng.choice(terms), rng.choice(terms)
            assert (s == t) == (repr(s) == repr(t))
            if s == t:
                assert hash(s) == hash(t)
            if isinstance(s, Compound):
                assert hash(s) == hash((s.functor, s.args))

    def test_ground_subterms_are_kept_as_they_are(self):
        g = make_list([a, f(b)])
        t = f(g, X, f(g))
        out = apply({"X": b}, t)
        assert out == f(g, b, f(g)) and out.args[0] is g and out.args[2] is t.args[2]
        assert apply({"X": b}, g) is g and resolve({"X": g}, (Pred("p", (X,)),))[0].args[0] is g
        assert vars_of(Pred("p", (g, X))) == ["X"] and is_ground(Pred("p", (g, g)))
        assert match(Pred("p", (g, X)), Pred("p", (g, a))) == {"X": a}
        assert match(g, make_list([a, f(b)])) == {} and match(g, make_list([a, b])) is None

    def test_foreign_objects_raise(self):
        for walk in (vars_of, is_ground, lambda t: apply({"X": a}, t),
                     lambda t: resolve({"X": a}, t)):
            with pytest.raises(TypeError):
                walk(f(a, f(b, 1)))

    def test_walks_agree_with_full_walks(self):
        """vars_of, is_ground, apply, resolve and unify against the naive full
        walks of ``naive_unify``, on terms mixing ground and non-ground parts
        that share subterm objects and sometimes hold a foreign object."""
        rng = random.Random(11)
        names = ("X", "Y", "Z", "W")
        shared: list = []  # built subterms without a foreign object, drawn again: objects recur

        def leaves(x):
            """Every variable, constant and foreign object of ``x``."""
            if isinstance(x, Clause):
                x = (x.head,) + x.body
            if isinstance(x, (Compound, Pred)) and x.args:
                x = x.args
            if isinstance(x, tuple):
                for y in x:
                    yield from leaves(y)
            else:
                yield x

        def term(depth, foreign=0.02):
            r = rng.random()
            if shared and r < 0.2:
                return rng.choice(shared)
            if r < 0.35:
                return Var(rng.choice(names))
            if r < 0.35 + foreign:
                return rng.choice((1, None, "x", CUT))
            if not depth or r < 0.5:
                return rng.choice((a, b, NIL))
            k = rng.choice((1, 2, 2, 3))
            t = Compound(rng.choice(("f", ".")) if k == 2 else "g", tuple(term(depth - 1, foreign)
                                                                      for _ in range(k)))
            if rng.random() < 0.3 and all(isinstance(x, (Var, Compound)) for x in leaves(t)):
                shared.append(t)
            return t

        def expression():
            r = rng.random()
            if r < 0.4:
                return term(3)
            atom = lambda: Pred(rng.choice("pq"), tuple(term(2) for _ in range(rng.randint(0, 2))))
            if r < 0.7:
                return atom()
            if r < 0.85:
                return tuple(rng.choice((atom, lambda: CUT))() for _ in range(rng.randint(0, 3)))
            return Clause(atom(), tuple(atom() for _ in range(rng.randint(0, 2))))

        def outcome(fn, *args):
            try:
                return fn(*args)
            except TypeError:
                return TypeError

        def compounds(x):
            if isinstance(x, Compound):
                yield x
            if isinstance(x, (Compound, Pred)):
                x = x.args
            elif isinstance(x, Clause):
                x = (x.head,) + x.body
            if isinstance(x, tuple):
                for y in x:
                    yield from compounds(y)

        seen = {"foreign": 0, "ground": 0, "unified": 0, "clash": 0, "shared": 0}
        for _ in range(5000):
            e = expression()
            want_vars = outcome(naive_vars_of, e)
            assert outcome(vars_of, e) == want_vars, e
            for c in compounds(e):
                assert c.ground == all(isinstance(x, Compound) for x in leaves(c)), c
            if want_vars is TypeError:
                seen["foreign"] += 1
                # is_ground stops at a variable, or raises at the foreign object met first
                has_var = any(isinstance(x, Var) for x in leaves(e))
                assert outcome(is_ground, e) in ((TypeError, False) if has_var else (TypeError,)), e
            else:
                assert is_ground(e) == (want_vars == []), e
                seen["ground"] += want_vars == []
            s = {n: term(2, foreign=0) for n in names if rng.random() < 0.5}
            if s:
                assert outcome(apply, s, e) == outcome(naive_apply, s, e), (s, e)
            else:  # an empty substitution does not walk its input
                assert apply(s, e) is e
            order = list(names)
            rng.shuffle(order)  # each name is bound to a term over the names after it: acyclic
            bindings = {}
            for i, n in enumerate(order):
                if rng.random() < 0.6:
                    later = {m: a for m in order[: i + 1]}
                    bindings[n] = naive_apply(later, term(2, foreign=0))
            assert outcome(resolve, bindings, e) == outcome(naive_resolve, bindings, e), (bindings, e)
            x, y = term(3, foreign=0), term(3, foreign=0)
            if rng.random() < 0.3:
                y = apply({n: term(1, foreign=0) for n in names if rng.random() < 0.5}, x)
            seen["shared"] += x is y or any(p is q for p in compounds(x) for q in compounds(y))
            got, want = unify(x, y), naive_unify(x, y)
            assert (got is None) == (want is None), (x, y)
            if got is not None:
                assert apply(got, x) == apply(got, y) and variant_equal(apply(got, x), naive_apply(want, x))
                seen["unified"] += 1
            else:
                seen["clash"] += 1
        assert min(seen.values()) >= 200, seen


class TestSubst:
    def test_empty_substitution_returns_its_input(self):
        clause = Clause(Pred("p", (X,)), (Pred("q", (X, f(Y))), CUT))
        for e in (f(X, a), Pred("p", (X, f(Y))), clause.body, clause):
            assert apply({}, e) is e

    def test_results_are_dicts(self):
        assert type(unify(f(X, Y), f(Y, a))) is dict and type(unify(a, a)) is dict
        assert type(match(f(X, Y), f(a, Y))) is dict and type(match(a, a)) is dict

    def test_match_identity_binding_leaves_apply_unchanged(self):
        theta = match(f(X, Y), f(X, a))
        assert theta == {"X": X, "Y": a}
        t = Pred("p", (X, f(X, Y), Y))
        assert apply(theta, t) == apply({"Y": a}, t) == Pred("p", (X, f(X, a), a))

    def test_occurs(self):
        assert occurs("X", f(f(X)))
        assert not occurs("X", f(Y))

    def test_a_shared_subterm_is_rebuilt_once(self):
        """Each step binds Y to g(g(b, Y'), Y'), so the term X stands for
        shares its subterms: as a tree it doubles with each step.  A step
        leaves the goals after the selected atom as written and builds only
        the renamed clause, so the builds grow by the same amount per step,
        at most two a step (22, 30, 38 and 46 at 12 to 24 steps; applying
        each mgu to the tail rebuilt r(f(X)) down to its newest binding and
        made 166, 286, 438 and 622, and a rebuild per occurrence made 8,200
        at 12 steps, doubling with each further step)."""
        program = parse_program("q(g(g(b,Y),Y)) :- q(Y).  r(f(g(b,X))) :- p(X).")
        query = parse_query("q(X), !, r(f(b)), r(f(X))")
        real = Compound.__init__
        builds = 0

        def counted(self, *args):
            nonlocal builds
            builds += 1
            real(self, *args)

        counts = []
        with mock.patch.object(Compound, "__init__", counted):
            for steps in (12, 16, 20, 24):
                builds = 0
                pt = pruned_tree(program, query, Budget(nodes=300, steps=steps))
                assert not pt.exact and len(pt.base) == steps + 1
                counts.append(builds)
                assert builds <= 2 * steps, counts
        increments = [b - a for a, b in zip(counts, counts[1:])]
        assert increments[0] == increments[1] == increments[2], counts

    def test_a_shared_subterm_is_resolved_once_per_rebase(self):
        """The breadth-first tree (``cutcheck tree``) rebases a node by
        resolving its goal list through the store, whose bindings share
        their subterms as in the test above.  Resolving a shared subterm
        once per call keeps the builds near linear in the steps (63, 231,
        374, 698 and 919 at 20 to 100 steps); resolving it once per
        occurrence made 16,490 at 30 steps and ran past a minute at 40."""
        program = parse_program("q(g(g(b,Y),Y)) :- q(Y).  r(f(g(b,X))) :- p(X).")
        query = parse_query("q(X), !, r(f(b)), r(f(X))")
        real = Compound.__init__
        builds = 0

        def counted(self, *args):
            nonlocal builds
            builds += 1
            real(self, *args)

        with mock.patch.object(Compound, "__init__", counted):
            for steps in (30, 60, 90):
                builds = 0
                tree = build_tree(program, query, Budget(steps=steps))
                assert not tree.exact
                assert builds <= 10 * steps, (steps, builds)


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

    def test_no_clash_returns_the_input(self):
        c = Clause(Pred("p", (X,)), (Pred("q", (X, Y)),))
        fresh = FreshNames(5)
        assert rename_apart(c, {"Z"}, fresh) is c
        assert rename_apart(c, set(), fresh) is c
        assert fresh.n == 5
        ground = Pred("p", (a,))
        assert rename_apart(ground, {"X"}, fresh) is ground and fresh.n == 5
        assert rename_apart(c, {"Y"}, fresh) is not c and fresh.n == 6


class TestLists:
    def test_make_and_items(self):
        t = make_list([a, b])
        assert is_list(t)
        assert list_items(t) == [a, b]

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

    def test_key_values(self):
        # the keys are those of the plain recursive definition
        def reference_key(t):
            if isinstance(t, Var):
                return (0, 0, t.name, ())
            return (term_depth(t), 1, t.functor, tuple(reference_key(x) for x in t.args))

        def random_term(rng, depth):
            r = rng.random()
            if depth == 0 or r < 0.3:
                return rng.choice([a, b, X, Y, Compound("[]")])
            if r < 0.6:
                return cons(random_term(rng, depth - 1), random_term(rng, depth - 1))
            return f(*(random_term(rng, depth - 1) for _ in range(rng.randint(1, 3))))

        rng = random.Random(7)
        for _ in range(300):
            t = random_term(rng, 5)
            assert term_key(t) == reference_key(t)
            assert atom_key(Pred("p", (t, a))) == ("p", 2, (reference_key(t), reference_key(a)))

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

    @staticmethod
    def depth_filter_terms(alpha: Alphabet, depth: int) -> tuple:
        """The definition ``ground_terms`` built by: at each depth d, every
        product of the terms so far whose deepest argument has depth d - 1."""
        if depth < 0:
            return ()
        current = [Compound(n) for n, k in alpha.functors if k == 0]
        for d in range(1, depth + 1):
            prev = list(current)
            for name, k in alpha.functors:
                if k:
                    current += [Compound(name, args) for args in itertools.product(prev, repeat=k)
                                if max(term_depth(x) for x in args) == d - 1]
        return tuple(sorted(current, key=term_key))

    @pytest.mark.parametrize("functors", [
        (),
        (("a", 0),),
        (("f", 1),),
        (("a", 0), ("f", 1)),
        (("a", 0), ("b", 0), ("f", 1), ("g", 2)),
        (("1", 0), ("2", 0), ("[]", 0), (".", 2)),
        (("a", 0), ("h", 3)),
        (("a", 0), ("f", 1), ("h", 3)),
        (("a", 0), ("g", 2)),
    ])
    def test_ground_term_count(self, functors):
        """Built by levels, the terms are those of the depth-filter
        definition, in the same order, as many as ``ground_term_count``
        says, and each argument of a term is one of the terms returned."""
        alpha = Alphabet(functors, ())
        for depth in range(-1, 4):
            if ground_term_count(alpha, depth) <= 5000:
                got = ground_terms(alpha, depth)
                assert ground_term_count(alpha, depth) == len(got)
                assert got == self.depth_filter_terms(alpha, depth), (functors, depth)
                objects = {id(t) for t in got}
                assert all(id(x) in objects for t in got for x in t.args), (functors, depth)

    def test_ground_term_count_stops_above_the_bound(self):
        alpha = Alphabet((("a", 0), ("g", 2)), ())  # 1, 2, 5, 26, 677, 458330, ...
        assert ground_term_count(alpha, 4) == 677
        assert ground_term_count(alpha, 5, stop=100) == 677  # the first level above 100
        assert ground_term_count(alpha, 10**6, stop=100) == 677
        assert ground_term_count(Alphabet((("a", 0), ("f", 1)), ()), 10**4) == 10**4 + 1
        assert ground_term_count(Alphabet((("f", 1),), ()), 10**9) == 0  # no term at any depth

    def test_ground_terms_cap_before_building(self):
        alpha = Alphabet((("1", 0), ("[]", 0), ("a", 0), ("b", 0), ("c", 0), (".", 2)), ())
        assert ground_term_count(alpha, 3) == 819_030 > GROUND_TERM_CAP
        with pytest.raises(CapHit, match=f"^ground term cap {GROUND_TERM_CAP} hit at depth 3$"):
            ground_terms(alpha, 3)
        assert len(ground_terms(alpha, 2)) == 905

    def test_ground_atoms(self):
        alpha = Alphabet((("a", 0),), (("p", 1),))
        assert list(ground_atoms(alpha, 0)) == [Pred("p", (a,))]

    def test_enumerate_ground_instances(self):
        alpha = Alphabet((("a", 0), ("b", 0)), ())
        terms = list(ground_terms(alpha, 0))
        assert terms == [a, b]
        assert all(is_ground(t) for t in terms)

    def test_infer_alphabet(self):
        alpha = infer_alphabet((Clause(Pred("p", (f(a),)), ()),))
        assert ("f", 1) in alpha.functors and ("a", 0) in alpha.functors
        assert ("p", 1) in alpha.predicates

    def test_most_general_atom(self):
        g = most_general_atom("p", 2)
        assert match(g, Pred("p", (a, b))) is not None


class TestSortKeyCache:
    """``term_key`` caches the key of a ground compound on the instance; the
    uncached walk in ``tests/term_key_reference.py`` is the oracle."""

    @staticmethod
    def terms(rng, count):
        """Seeded ground and non-ground terms that share subterm objects."""
        made = [a, b, NIL]

        def term(depth):
            r = rng.random()
            if depth == 0 or r < 0.25:
                return rng.choice(made + [X, Y, a, b])
            if r < 0.55:
                return cons(term(depth - 1), term(depth - 1))
            return Compound(rng.choice("fg"), tuple(term(depth - 1) for _ in range(rng.randint(1, 3))))

        for _ in range(count):
            t = term(rng.randint(0, 5))
            if term_depth(t) <= 2:  # reused whole: keeps the trees the oracle walks small
                made.append(t)
            yield t

    @staticmethod
    def copy(t):
        stack, done = [t], {}
        while stack:  # own stack: the 5,000-cell list is copied too
            x = stack[-1]
            if x.__class__ is not Compound or id(x) in done:
                stack.pop()
                continue
            todo = [y for y in x.args if y.__class__ is Compound and id(y) not in done]
            if todo:
                stack += todo
                continue
            stack.pop()
            done[id(x)] = Compound(x.functor, tuple(done.get(id(y), y) for y in x.args))
        return done.get(id(t), t)

    @staticmethod
    def same(k1, k2) -> bool:
        """``k1 == k2`` for nested tuples, with its own stack: the tuple ``==``
        recurses once per level of a 5,000-deep key."""
        stack = [(k1, k2)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if x.__class__ is not tuple or y.__class__ is not tuple:
                if x != y:
                    return False
            elif len(x) != len(y):
                return False
            else:
                stack += zip(x, y)
        return True

    def test_cached_key_equals_the_uncached_walk(self):
        rng = random.Random(13)
        long_list = make_list([a, f(b)] * 2500)
        for t in [long_list, cons(X, long_list), f(long_list, long_list)] + list(self.terms(rng, 1500)):
            fresh = self.copy(t)
            shallow = term_depth(fresh) < 100  # repr recurses
            before = (repr(fresh) if shallow else None, hash(fresh))
            want = uncached_term_key(fresh)
            assert self.same(term_key(t), want)  # t may share subterms keyed earlier
            assert self.same(term_key(fresh), want)  # cold
            assert self.same(term_key(fresh), want)  # cached
            assert fresh == t and fresh == self.copy(t)
            assert (repr(fresh) if shallow else None, hash(fresh)) == before
            assert self.same(atom_key(Pred("p", (fresh, t))), ("p", 2, (want, want)))
        assert not self.same(term_key(long_list), term_key(make_list([a, f(b)] * 2499 + [a, b])))

    def test_only_ground_compounds_keep_a_key(self):
        g = make_list([a, f(b)])
        t = f(g, X, f(g, Y))
        key = term_key(t)
        assert "_key" not in t.__dict__ and "_key" not in t.args[2].__dict__
        assert g.__dict__["_key"] is key[3][0] is key[3][2][3][0]  # shared, not copied
        assert a.__dict__["_key"] == (0, 1, "a", ())
        assert "_key" not in repr(g) and g == make_list([a, f(b)])
        with pytest.raises(AttributeError):
            g._key = None  # the instance stays frozen

    def test_ground_terms_sort_as_before(self):
        alphabet = Alphabet((("a", 0), ("f", 1), ("g", 2)), (("p", 1),))
        pool = ground_terms(alphabet, 2)
        assert list(pool) == sorted((self.copy(t) for t in pool), key=uncached_term_key)
