import concurrent.futures
import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import cutcheck
import cutcheck.atomsets
import cutcheck.cli
import cutcheck.verify
from cutcheck import (
    acceptable_check,
    completeness_check,
    correct_check,
    cs_correct,
    parse_program,
    parse_query,
    parse_spec,
    recurrent_check,
    semi_complete,
)
from cutcheck.atomsets import GUARDS
from cutcheck.cli import CHECK_KINDS, build_parser, main
from cutcheck.terms import InputError

import corpus
from conftest import load_program, load_spec_text
from smoke import RELATIONAL_PRE_PROGRAM, RELATIONAL_PRE_SPEC


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def program_path(fixtures_dir):
    return str(fixtures_dir / "pruning_tree.pl")


ALPHABET_AFG = "[alphabet]\nfunctor a/0.\nfunctor f/1.\nfunctor g/2.\n\n"


@pytest.fixture
def p5(tmp_path):
    """The p/5 program and a spec with S but no level mappings and no bounds."""
    prog = tmp_path / "p5.pl"
    prog.write_text("p(A, B, C, D, E) :- q.\nq.\n")
    spec = tmp_path / "p5.spec"
    spec.write_text(ALPHABET_AFG + "[S]\nq.\np(a, B, C, D, E).\n")
    return str(prog), str(spec)


class TestRun:
    def test_answers(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "run", str(fixtures_dir / "artificial.pl"), "p(a, Z)")
        assert code == 0
        assert out.strip() == "p(a, c)"

    def test_no_answers(self, capsys, program_path):
        code, out, _ = run(capsys, "run", program_path, "p")
        assert code == 0 and "no answers" in out

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "run", str(fixtures_dir / "artificial.pl"),
                           "p(a, Z)", "--json")
        obj = json.loads(out)
        assert obj == {"answers": ["p(a, c)"], "exact": True}

    def test_budget_exhausted_exit_3(self, capsys, tmp_path):
        p = tmp_path / "loop.pl"
        p.write_text("p :- p.\n")
        code, out, _ = run(capsys, "run", str(p), "p", "--nodes", "5", "--steps", "5")
        assert code == 3

    @pytest.mark.parametrize("command, budget, n", [("run", "--nodes", "20"), ("oracle", "--steps", "8")])
    @pytest.mark.parametrize("prog, query, want", [
        ("append.pl", "app(X, Y, Z)",
         ["app([], Z, Z)", "app([H], M, [H | M])", "app([H, H3], M6, [H, H3 | M6])"]),
        ("in.pl", "in(X, Y)", ["in([], Y)", "in([E], [E | L3])", "in([E, E], [E | L3])"]),
    ])
    def test_answers_keep_the_older_names(self, capsys, fixtures_dir, command, budget, n, prog, query,
                                          want):
        """A step binds a renamed head variable to the goal's variable, not
        the other way round, so an answer keeps the query's names and the
        first renamed name of each chain."""
        code, out, _ = run(capsys, command, str(fixtures_dir / prog), query, budget, n)
        assert code == 3 and out.splitlines()[:3] == want


class TestTreeAndPrune:
    def test_tree_json(self, capsys, program_path):
        code, out, _ = run(capsys, "tree", program_path, "p", "--json")
        obj = json.loads(out)
        assert code == 0 and obj["nodes"] == 10 and obj["pruned"] == []

    def test_prune_json(self, capsys, program_path):
        code, out, _ = run(capsys, "prune", program_path, "p", "--json")
        obj = json.loads(out)
        assert obj["kept"] == [0, 1, 2, 3, 5, 6]
        assert obj["pruned"] == [4]

    def test_golden_dot(self, capsys, program_path, fixtures_dir, tmp_path):
        target = tmp_path / "out.dot"
        code, _, _ = run(capsys, "prune", program_path, "p", "--dot", str(target))
        assert code == 0
        assert target.read_text() == (fixtures_dir / "pruning_tree.dot").read_text()

    def test_prune_exactness_agrees_across_outputs(self, capsys, tmp_path):
        # the unpruned tree is infinite, but the cut removes its infinite branch
        p = tmp_path / "inf.pl"
        p.write_text("p :- q, !.\nq.\nq :- q.\n")
        code, out, _ = run(capsys, "prune", str(p), "p", "--nodes", "500", "--json")
        obj = json.loads(out)
        assert code == 0 and obj["exact"] is True and len(obj["kept"]) == 4
        code, out, _ = run(capsys, "prune", str(p), "p", "--nodes", "500")
        assert code == 0 and out.strip() == "pruned tree: 4 of 5 nodes, exact=True"
        code, out, _ = run(capsys, "tree", str(p), "p", "--nodes", "500")
        assert code == 3 and "exact=False" in out


class TestDotOfPrunedTree:
    def test_run_draws_materialised_nodes_only(self, capsys, program_path, tmp_path):
        target = tmp_path / "run.dot"
        code, _, _ = run(capsys, "run", program_path, "p", "--dot", str(target))
        text = target.read_text()
        assert code == 0
        # the 6 kept nodes and the one dropped sibling; its subtree is never built
        assert text.count("[label=") == 7
        assert text.count("pruned by") == 1
        assert r'n4 [label="n4: t, !\\npruned by n5", style=dashed];' in text

    def test_check_complete_draws_the_tree_it_checked(self, capsys, fixtures_dir, tmp_path,
                                                      monkeypatch):
        calls = []
        real = cutcheck.verify.pruned_tree

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cutcheck.verify, "pruned_tree", counting)
        target = tmp_path / "check.dot"
        code, _, _ = run(
            capsys, "check", "complete", str(fixtures_dir / "artificial.pl"),
            "--spec", str(fixtures_dir / "artificial.spec"), "--query", "p(a, Z)",
            "--dot", str(target),
        )
        assert code == 0 and len(calls) == 1
        expected = tmp_path / "run.dot"
        run(capsys, "run", str(fixtures_dir / "artificial.pl"), "p(a, Z)", "--dot", str(expected))
        assert target.read_text() == expected.read_text()


class TestOracle:
    def test_answers(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "oracle", str(fixtures_dir / "in.pl"),
                           "in([X], [1, 2])", "--json")
        obj = json.loads(out)
        assert code == 0 and obj["answers"] == ["in([1], [1, 2])"] and obj["exact"]


class TestCheck:
    @pytest.mark.parametrize("argv", [
        ["check", "correct", "in.pl", "--spec", "in.spec", "--depth", "-1"],
        ["check", "complete", "in.pl", "--spec", "in.spec", "--query", "in([], [])",
         "--nodes=-5"],
        ["run", "in.pl", "in([], [])", "--steps", "-3"],
        ["oracle", "in.pl", "in([], [])", "--steps", "-2"],
    ], ids=" ".join)
    def test_negative_bound_exit_2(self, capsys, fixtures_dir, argv):
        argv = [str(fixtures_dir / a) if a.endswith((".pl", ".spec")) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        option, value = argv[-1].split("=") if "=" in argv[-1] else argv[-2:]
        assert exc.value.code == 2 and capsys.readouterr().err.endswith(
            f"error: argument {option}: must not be negative: {value}\n")

    def test_zero_bound_is_accepted(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "check", "correct", str(fixtures_dir / "in.pl"),
                           "--spec", str(fixtures_dir / "in.spec"), "--depth", "0")
        assert code == 1 and "bounds: depth=0 " in out

    def test_complete_without_query_exit_2(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "check", "complete", str(fixtures_dir / "in.pl"),
                             "--spec", str(fixtures_dir / "in.spec"))
        assert (code, out) == (2, "") and err == "error: check complete needs a query: give --query\n"

    @pytest.mark.parametrize("argv", [
        ["run", "in.pl", "in([], [])", "--depth", "2"],
        ["tree", "in.pl", "in([], [])", "--depth", "2"],
        ["prune", "in.pl", "in([], [])", "--depth", "0"],
        ["oracle", "in.pl", "in([], [])", "--nodes", "9"],
        ["oracle", "in.pl", "in([], [])", "--dot", "t.dot"],
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_exit_2(self, capsys, fixtures_dir, argv):
        argv = [str(fixtures_dir / a) if a.endswith(".pl") else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    def test_spec_constants_join_the_alphabet(self, capsys, tmp_path):
        """A spec without ``[alphabet]`` still grounds over the constants its
        sets list: here the ground search past the branch cap finds the
        witness it finds with the constants declared."""
        consts = [f"a{i}" for i in range(9)]
        qs = " ".join(f"q({k})." for k in consts)
        rs = " ".join(f"r({k})." for k in consts)
        sets = f"[pre]\np. {qs}\n[post]\np. {qs} {rs}\n"
        declared = "[alphabet]\n" + " ".join(f"functor {k}/0." for k in consts) + "\n"
        (tmp_path / "p.pl").write_text("p :- r(W), q(X), q(Y), q(Z).\n")
        outputs = []
        for name, text in (("listed.spec", sets), ("declared.spec", declared + sets)):
            (tmp_path / name).write_text(text)
            outputs.append(run(capsys, "check", "cscorrect", str(tmp_path / "p.pl"),
                               "--spec", str(tmp_path / name), "--depth", "1"))
        assert outputs[0] == outputs[1]
        code, out, _ = outputs[0]
        assert code == 1 and "verdict: refuted" in out
        assert "instance=p :- r(a0), q(a0), q(a0), q(a0)." in out

    @pytest.mark.parametrize("kind", [k for k in CHECK_KINDS if k != "complete"])
    @pytest.mark.parametrize("flag", ["--dot", "--query"])
    def test_dot_and_query_apply_to_complete_only(self, capsys, fixtures_dir, tmp_path, kind,
                                                  flag):
        target = tmp_path / "t.dot"
        value = str(target) if flag == "--dot" else "in([], [])"
        code, out, err = run(capsys, "check", kind, str(fixtures_dir / "in.pl"),
                             "--spec", str(fixtures_dir / "in.spec"), flag, value)
        assert (code, out) == (2, "") and err == f"error: {flag} applies to check complete only\n"
        assert not target.exists()

    def test_complete_verified_exit_0(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "check", "complete", str(fixtures_dir / "artificial.pl"),
            "--spec", str(fixtures_dir / "artificial.spec"), "--query", "p(a, Z)",
        )
        assert code == 0 and "verdict: verified" in out

    def test_correct_refuted_exit_1(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "check", "correct", str(fixtures_dir / "append.pl"),
            "--spec", str(fixtures_dir / "append.spec"), "--depth", "2",
        )
        assert code == 1 and "verdict: refuted" in out and "witness:" in out

    def test_json_report_shape(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "check", "recurrent", str(fixtures_dir / "in.pl"),
            "--spec", str(fixtures_dir / "in.spec"), "--depth", "1",
        )
        assert code == 0
        code, out, _ = run(
            capsys, "check", "recurrent", str(fixtures_dir / "in.pl"),
            "--spec", str(fixtures_dir / "in.spec"), "--depth", "1", "--json",
        )
        obj = json.loads(out)
        assert list(obj) == ["check", "verdict", "bounds", "witnesses", "per_atom", "timing_ms"]
        assert obj["verdict"]["status"] == "verified"
        assert set(obj["bounds"]) == {"depth", "nodes", "steps"}

    def test_semicomplete(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "check", "semicomplete", str(fixtures_dir / "append.pl"),
            "--spec", str(fixtures_dir / "append.spec"), "--depth", "2",
        )
        assert code == 0

    def test_acceptable(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "check", "acceptable", str(fixtures_dir / "artificial.pl"),
            "--spec", str(fixtures_dir / "artificial.spec"),
        )
        assert code in (0, 1)

    def test_cut_query_extension_cap_is_unknown(self, capsys, tmp_path):
        # 5 query variables over a/0, f/1, g/2: the S extension of the
        # rewritten query would need more ground instances than the cap allows
        prog = tmp_path / "p5.pl"
        prog.write_text("p(A, B, C, D, E) :- q.\nq.\n")
        spec = tmp_path / "p5.spec"
        spec.write_text("[alphabet]\nfunctor a/0.\nfunctor f/1.\nfunctor g/2.\n\n"
                        "[S]\nq.\np(a, B, C, D, E).\n\n[bounds]\ndepth = 2.\n")
        code, out, _ = run(capsys, "check", "complete", str(prog), "--spec", str(spec),
                           "--query", "p(A, B, C, D, E), !")
        assert code == 3
        assert "verdict: unknown" in out and "reason: instance cap 50000 hit at depth 2" in out

    def test_cut_query_extension_honours_depth_flag(self, capsys, p5):
        prog, spec = p5
        code, out, _ = run(capsys, "check", "complete", prog, "--spec", spec,
                           "--query", "p(A, B, C, D, E), !", "--depth", "2")
        assert code == 3 and "bounds: depth=2 " in out
        assert "reason: instance cap 50000 hit at depth 2" in out

    def test_level_loop_refuted_then_unknown(self, capsys, tmp_path):
        prog = tmp_path / "lv.pl"
        prog.write_text("p(A, B, C, D, E) :- r(A).\nr(a).\n")
        spec = tmp_path / "lv.spec"
        spec.write_text(ALPHABET_AFG + "[level]\np(A, B, C, D, E) = 3.\nr(X) = size(X).\n")
        code, out, _ = run(capsys, "check", "recurrent", str(prog), "--spec", str(spec),
                           "--depth", "1")
        assert code == 1 and "instance=p(g(a, a), a, a, a, a) :- r(g(a, a))." in out
        # the levels read only A: 13 groundings at depth 2 reach the same witness
        code, out, _ = run(capsys, "check", "recurrent", str(prog), "--spec", str(spec),
                           "--depth", "2")
        assert code == 1 and "instance=p(g(a, a), a, a, a, a) :- r(g(a, a))." in out

    @pytest.mark.parametrize("kind", ["semicomplete", "complete"])
    def test_guard_variable_outside_the_template(self, capsys, tmp_path, kind):
        # X is in no atom of S, so member(X, L) holds for none and S is empty
        prog = tmp_path / "p.pl"
        prog.write_text("p([]).\np([X|L]) :- p(L).\n")
        spec = tmp_path / "p.spec"
        spec.write_text("[alphabet]\nfunctor 1/0.\nfunctor '[]'/0.\nfunctor '.'/2.\n\n"
                        "[S]\np(L) where ground_list(L), member(X, L).\n\n[bounds]\ndepth = 2.\n")
        query = ["--query", "p([1])"] if kind == "complete" else []
        code, out, err = run(capsys, "check", kind, str(prog), "--spec", str(spec), *query)
        assert code == 0 and err == "" and "verdict: verified" in out

    @pytest.mark.parametrize("post_var", ["X", "W"])
    def test_post_pattern_variable_named_like_a_later_clause_variable(self, capsys, tmp_path,
                                                                     post_var):
        # the list fact of q's post pattern must not land on the clause's X
        prog = tmp_path / "p.pl"
        prog.write_text("p :- q(Y), r(X).\n")
        spec = tmp_path / "p.spec"
        spec.write_text("[alphabet]\nfunctor a/0.\nfunctor '[]'/0.\n\n"
                        "[pre]\np.\nr(Z) where list(Z).\nq(A).\n\n"
                        f"[post]\np.\nq({post_var}) where list({post_var}).\nr(B).\n")
        code, out, err = run(capsys, "check", "cscorrect", str(prog), "--spec", str(spec),
                             "--depth", "1")
        assert code == 1 and err == "" and "verdict: refuted" in out
        assert "instance=p :- q([]), r(a)." in out


# SHA-256 of ``json.dumps(obj, sort_keys=True)`` of the ``--json`` report, with
# ``timing_ms`` removed. The append/3 report is as commit 4f8e775 printed it before the
# coverage fast paths; the notp/1 one is the query-slice report over notp(b) alone, and
# the in/2 one the query-slice report over in([1], [1, 2]), in([], [1, 2]) and
# m(1, [1, 2]).
COVERAGE_GOLDEN = [
    (("complete", "in.pl", "in.spec", "--query", "in([1], [1, 2])"), 0,
     "553af19e9cc6985a49fe2d75461fa08ead9738fa715967c69c682ff7b3185087"),
    (("semicomplete", "append.pl", "append.spec"), 0,
     "dd79f71f9b265f609ae88b5dbfdccfbc6e3b4791c21402fb72a76cb1843515c4"),
    # refuted: condition 2 fails for notp(b)
    (("complete", "notp.pl", "notp_nonground.spec", "--query", "notp(b)"), 1,
     "3e7bb23ae8a273f7db350a6d829a9997049a28ea1de0af595679cb0d8bf035bc"),
]


class TestCoverageGolden:
    @pytest.mark.parametrize("args, exit_code, digest", COVERAGE_GOLDEN)
    def test_report_unchanged(self, capsys, fixtures_dir, args, exit_code, digest):
        kind, prog, spec, *extra = args
        code, out, _ = run(capsys, "check", kind, str(fixtures_dir / prog),
                           "--spec", str(fixtures_dir / spec), *extra, "--json")
        obj = json.loads(out)
        del obj["timing_ms"]
        assert code == exit_code
        assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == digest

    def test_ground_term_cap_is_unknown(self, fixtures_dir):
        # the query's constants a, b, c join the alphabet: 819,030 ground terms at depth 3
        start = time.perf_counter()
        proc = cli(["check", "complete", str(fixtures_dir / "append.pl"), "--spec",
                    str(fixtures_dir / "append.spec"), "--query", "app(X, Y, [a, b, c])"])
        assert time.perf_counter() - start < 10.0
        assert proc.returncode == 3 and proc.stderr == ""
        assert "reason: ground term cap 50000 hit at depth 3" in proc.stdout

    def test_relational_pre_at_depth_2(self, tmp_path):
        # the pre pattern's guards force both arguments ground, so each of the
        # 722 atoms of S is its own seed in condition 3; CI bounds its time.
        # All of them are S-true instances of the query; m(1, []) is not c-covered
        (tmp_path / "rel.pl").write_text(RELATIONAL_PRE_PROGRAM)
        (tmp_path / "rel.spec").write_text(RELATIONAL_PRE_SPEC)
        proc = cli(["check", "complete", str(tmp_path / "rel.pl"), "--spec",
                    str(tmp_path / "rel.spec"), "--query", "m(X, Y)", "--depth", "2"])
        assert proc.returncode == 1 and proc.stderr == ""
        assert proc.stdout.count("\n") == 745
        assert "witness: atom=m(1, []), note=no clause c-covers the atom\n" in proc.stdout


class TestLinearity:
    # counts the lines run in cutcheck/terms.py during one CLI call, in a fresh
    # interpreter, so that no cache of an earlier call saves work
    COUNT_TERMS_LINES = (
        "import contextlib, io, sys\n"
        "import cutcheck.terms\n"
        "from cutcheck.cli import main\n"
        "count = 0\n"
        "def local(frame, event, arg):\n"
        "    global count\n"
        "    count += event == 'line'\n"
        "    return local\n"
        "def enter(frame, event, arg):\n"
        "    return local if frame.f_code.co_filename == cutcheck.terms.__file__ else None\n"
        "sys.settrace(enter)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "sys.settrace(None)\n"
        "print(count, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def test_term_walks_grow_linearly_with_a_ground_list(self, fixtures_dir):
        """The lines run in ``cutcheck/terms.py`` stand for the subterms its
        walks visit: a resolution step must not walk the ground tail of the
        query's list again."""

        def lines_run(cells):
            query = "in([" + ", ".join(["1"] * cells) + "], [1])"
            proc = cli(["check", "complete", str(fixtures_dir / "in.pl"), "--spec",
                        str(fixtures_dir / "in.spec"), "--depth", "1", "--query", query],
                       prefix=["-c", self.COUNT_TERMS_LINES])
            assert proc.returncode == 0, proc.stderr
            return int(proc.stderr)

        small, large = lines_run(1000), lines_run(4000)
        assert large <= 5 * small, (small, large)


P, Q, S = "prog.pl", "p(X)", "prog.spec"
PARSER_ARGVS = [
    ["run", P, Q], ["run", P, Q, "--json", "--dot", "t.dot", "--nodes", "9", "--steps", "4"],
    ["tree", P, Q], ["tree", P, Q, "--json"], ["prune", P, Q], ["prune", P, Q, "--nodes=5"],
    ["oracle", P, Q], ["oracle", "--json", P, Q, "--steps", "3"],
    *[["check", kind, P, "--spec", S] for kind in CHECK_KINDS],
    ["check", "complete", P, "--query", Q, "--spec", S, "--json", "--depth", "1"],
    ["check", "--spec", S, "recurrent", P],
    ["-h"], ["--help"], ["run", "-h"], ["tree", "-h"], ["prune", "--help"], ["oracle", "-h"],
    ["check", "-h"], ["check", "complete", "-h"], ["run", P, Q, "-h", "--bogus"],
    ["run", P, Q, "--bogus"], ["check", "correct", P, "--bogus", "--json"], ["tree", P, Q, "R"],
    ["check", "bogus", P], ["run"], ["oracle", P], ["check"], ["check", "complete"],
    ["bogus"], ["bogus", P, Q], ["ru", P, Q], [], ["--json", "run", P, Q], ["--bogus", "run"],
    ["run", P, Q, "--dep", "1"], ["check", "acceptable", P, "--dep", "1", "--spe", S],
    ["run", P, Q, "--d", "1"], ["prune", P, Q, "--nodes", "x"], ["tree", P, Q, "--nodes"],
    ["run", P, Q, "--depth", "-1"], ["check", "correct", P, "--nodes=-5"],
    ["oracle", P, Q, "--steps", "-3"], ["prune", P, Q, "--nodes", "0", "--steps", "0"],
]

# The flags each command reads beside --json: --dot and its bounds.
COMMAND_FLAGS = {
    "run": {"--dot", "--nodes", "--steps"},
    "tree": {"--dot", "--nodes", "--steps"},
    "prune": {"--dot", "--nodes", "--steps"},
    "oracle": {"--steps"},
    "check": {"--dot", "--depth", "--nodes", "--steps"},
}


def parse_outcome(parser, argv):
    """What ``parse_args`` gives: the Namespace or the SystemExit code, and
    what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


# ``corpus.run_once`` on a fresh import in a child process; prints the run as a JSON list
FRESH_RUN = ("import corpus, dataclasses, json, sys\n"
             "print(json.dumps(dataclasses.astuple(corpus.run_once(json.loads(sys.argv[1])))))")


def fresh_run(argv, cwd) -> corpus.Run:
    """One run of ``argv`` on a fresh import, in a child process working in
    ``cwd``, under this interpreter's warning options."""
    path = [str(Path(cutcheck.__file__).parent.parent), str(Path(__file__).parent)]
    proc = subprocess.run(
        [sys.executable, *(f"-W{w}" for w in sys.warnoptions), "-c", FRESH_RUN, json.dumps(argv)],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return corpus.Run(*json.loads(proc.stdout))


class TestParser:
    @pytest.fixture(scope="class")
    def kept_parser(self):
        """A parser as ``main`` keeps it, after it has parsed every argv of the table."""
        parser = build_parser()
        for argv in PARSER_ARGVS:
            parse_outcome(parser, argv)
        return parser

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_one_command_parser_agrees_with_the_full_parser(self, kept_parser, argv):
        """The one parser a process keeps answers as a freshly built one."""
        assert parse_outcome(kept_parser, argv) == parse_outcome(build_parser(), argv)

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_the_flags_the_command_reads(self, command):
        _, out, _ = parse_outcome(build_parser(), [command, "-h"])
        assert set(re.findall(r"--(?:dot|depth|nodes|steps)\b", out)) == COMMAND_FLAGS[command]
        steps = "resolution step budget" if command == "oracle" else "derivation length bound"
        assert steps in out

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_a_flag_prefix_exit_2(self, capsys, fixtures_dir, tmp_path, monkeypatch, command):
        # every proper prefix of a flag is unrecognized; none writes a file
        monkeypatch.chdir(tmp_path)
        program = str(fixtures_dir / "in.pl")
        base = ([command, program, "in([1], [1])"] if command != "check"
                else ["check", "correct", program, "--spec", str(fixtures_dir / "in.spec")])
        flags = COMMAND_FLAGS[command] | {"--json"}
        if command == "check":
            flags |= {"--spec", "--query"}
        for flag in sorted(flags):
            for end in range(3, len(flag)):
                with pytest.raises(SystemExit) as exc:
                    main(base + [flag[:end], "1"])
                assert exc.value.code == 2, flag[:end]
                assert capsys.readouterr().err.endswith(
                    f"error: unrecognized arguments: {flag[:end]} 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_kept_parser_answers_as_a_fresh_import(self, fixtures_dir, tmp_path, monkeypatch):
        """``main`` builds the parser once and keeps it; calls that give a
        flag and then leave it out, a usage error, then a valid call, and
        help each print and exit as on a fresh import.  The fresh imports run
        in child processes, at most four at a time, while this process runs
        the argvs in order; each side writes the DOT files in a directory of
        its own, and each argv names its own file."""
        built = []
        monkeypatch.setattr(cutcheck.cli, "_PARSER", None)
        monkeypatch.setattr(cutcheck.cli, "build_parser", lambda: built.append(1) or build_parser())
        pl, spec = str(fixtures_dir / "append.pl"), str(fixtures_dir / "append.spec")
        query = "app(X, Y, [1, 2])"
        complete = ["check", "complete", pl, "--spec", spec, "--query", query]
        argvs = [
            ["run", pl, query, "--dot", "run.dot", "--nodes", "4"],
            complete + ["--depth", "1", "--dot", "complete.dot"],
            ["run", pl, query], complete, ["tree", pl, query, "--nodes", "2"],
            ["tree", pl, query, "--nodes"], ["tree", pl, query], ["check", "correct", pl, "--spec", spec],
            ["check", "correct", pl, "--spec", spec, "--depth", "1", "--json"],
            ["oracle", pl, query, "--steps", "3"], ["oracle", pl, query],
            ["prune", pl, query, "--dot", "prune.dot"],
            ["prune", pl, query, "--bogus"], ["prune", pl, query], ["-h"], ["run", "-h"], ["check", "-h"],
            ["bogus", pl], [], ["run", pl, "app(X"],
        ]
        (tmp_path / "fresh").mkdir()
        (tmp_path / "kept").mkdir()
        monkeypatch.chdir(tmp_path / "kept")
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            fresh = [pool.submit(fresh_run, argv, tmp_path / "fresh") for argv in argvs]
            kept = [corpus.stripped(corpus.run_once(argv, main)) for argv in argvs]
            fresh = [corpus.stripped(future.result()) for future in fresh]
        for argv, kept_run, fresh_run_ in zip(argvs, kept, fresh):
            assert kept_run == fresh_run_, argv
        assert built == [1]
        assert corpus.run_once(["tree", pl, query, "--nodes"], main).rc == 2

    def test_messages_name_every_command(self):
        _, _, err = parse_outcome(build_parser(), ["run", P, Q, "--bogus"])
        assert err.startswith("usage: cutcheck [-h] {run,tree,prune,oracle,check} ...\n")
        _, _, err = parse_outcome(build_parser(), [])
        assert err.endswith("error: the following arguments are required: command\n")


class TestPublicSurface:
    def test_no_exported_function_takes_a_cap_or_a_context(self):
        """Each search's cap is a named module constant, and each checker
        builds its own context: no exported function but ``enumerate_atoms``
        takes ``cap``, and none takes ``ctx``."""
        takers = []
        for name in cutcheck.__all__:
            obj = getattr(cutcheck, name)
            if inspect.isfunction(obj):
                params = inspect.signature(obj).parameters
                if "ctx" in params or ("cap" in params and name != "enumerate_atoms"):
                    takers.append(name)
        assert takers == []

    def test_no_checker_takes_an_alphabet_a_depth_a_resolver_or_a_budget(self):
        """Every public function of ``cutcheck.verify`` reads its alphabet,
        depth, set resolver and tree budget from the spec suite it is given."""
        takers = []
        for name, obj in vars(cutcheck.verify).items():
            if inspect.isfunction(obj) and obj.__module__ == "cutcheck.verify" \
                    and not name.startswith("_"):
                params = inspect.signature(obj).parameters
                if {"alphabet", "depth", "resolver", "budget"} & set(params):
                    takers.append(name)
        assert takers == []

    def test_each_stage_reads_its_program_and_suite_from_the_context(self):
        """No function or method of ``cutcheck.verify`` takes ``ctx`` beside a
        ``program`` or a ``suite``: a stage reads both from its context."""
        found = list(vars(cutcheck.verify).items())
        found += [(f"{name}.{attr}", value) for name, obj in vars(cutcheck.verify).items()
                  if inspect.isclass(obj) and obj.__module__ == "cutcheck.verify"
                  for attr, value in vars(obj).items()]
        takers = [name for name, obj in found
                  if inspect.isfunction(obj) and obj.__module__ == "cutcheck.verify"
                  and "ctx" in (params := inspect.signature(obj).parameters)
                  and {"program", "suite"} & set(params)]
        assert takers == []

    def test_the_public_checkers_are_the_commands(self):
        """The public functions of ``cutcheck.verify`` are the checkers that
        ``check KIND`` runs, and the completeness oracle."""
        public = {name for name, obj in vars(cutcheck.verify).items()
                  if inspect.isfunction(obj) and obj.__module__ == "cutcheck.verify"
                  and not name.startswith("_")}
        commands = {"completeness_check", *cutcheck.cli.CHECKERS.values()}
        assert len(commands) == len(CHECK_KINDS) == 6
        assert public == commands | {"oracle_tree_complete"}

    def test_every_exported_name_is_in_the_readme(self):
        """The README names every name of ``cutcheck.__all__`` in backquotes."""
        readme = (Path(cutcheck.__file__).parent.parent.parent / "README.md").read_text(
            encoding="utf-8")
        assert [name for name in cutcheck.__all__ if f"`{name}`" not in readme] == []

    def test_the_readme_guard_table_mirrors_the_code(self):
        """The README's guard table lists the guards of ``atomsets.GUARDS``,
        each with the arity of its signature."""
        readme = (Path(cutcheck.__file__).parent.parent.parent / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = readme.index(
            "| guard | arity | ground test | generation mode | forcing rules | facts | output facts |")
        rows = {}
        for line in readme[start + 2:]:
            if not line.startswith("|"):
                break
            m = re.match(r"\| `(\w+)(?:\(([^)]*)\))?` \| (\d+) \|", line)
            assert m, line
            name, params, arity = m.groups()
            assert (len(params.split(", ")) if params else 0) == int(arity), line
            rows[name] = int(arity)
        assert rows == {name: len(kind.signature) for name, kind in GUARDS.items()}


FIXTURE_PAIRS = (
    ("append.pl", "append.spec"),
    ("in.pl", "in.spec"),
    ("artificial.pl", "artificial.spec"),
    ("artificial.pl", "artificial_posthb.spec"),
    ("notp.pl", "notp.spec"),
    ("notp.pl", "notp_nonground.spec"),
)
COMPLETE_QUERIES = {
    "append.pl": "app(X, Y, [1, 2])",
    "in.pl": "in([X], [1, 2])",
    "artificial.pl": "p(a, Z)",
    "notp.pl": "notp(b)",
}
LIBRARY_CHECKERS = {
    "semicomplete": semi_complete,
    "correct": correct_check,
    "cscorrect": cs_correct,
    "recurrent": recurrent_check,
    "acceptable": acceptable_check,
}


class TestLibraryEqualsCli:
    """A checker called with the parsed spec suite answers what ``check KIND
    --json`` prints on the same files: verdict, witnesses and per-atom
    statuses, the time aside."""

    @pytest.mark.parametrize("pl, spec", FIXTURE_PAIRS)
    @pytest.mark.parametrize("kind", sorted(LIBRARY_CHECKERS))
    def test_query_free_kinds(self, capsys, fixtures_dir, pl, spec, kind):
        code, out, err = run(capsys, "check", kind, str(fixtures_dir / pl),
                             "--spec", str(fixtures_dir / spec), "--json")
        prog, suite = load_program(pl), parse_spec(load_spec_text(spec))
        if code == 2:  # a predicate without a level mapping: the library raises the error printed
            with pytest.raises(InputError) as info:
                LIBRARY_CHECKERS[kind](prog, suite)
            assert err == f"error: {info.value}\n"
            return
        v = LIBRARY_CHECKERS[kind](prog, suite)
        printed = json.loads(out)
        assert printed["verdict"] == json.loads(json.dumps(v.to_json_obj()))
        assert printed["witnesses"] == ([] if v.witness is None else [v.witness])
        assert printed["per_atom"] == [[label, part.status] for label, part in v.parts]
        assert code == {"verified": 0, "refuted": 1, "unknown": 3}[v.status]

    @pytest.mark.parametrize("pl, spec", FIXTURE_PAIRS)
    @pytest.mark.parametrize("cut", ["", ", !"])
    def test_complete(self, capsys, fixtures_dir, pl, spec, cut):
        """At depth 2: the flag's depth reaches the library as the suite's
        (``append.spec``'s depth 3 takes seconds per check)."""
        query = COMPLETE_QUERIES[pl] + cut
        code, out, _ = run(capsys, "check", "complete", str(fixtures_dir / pl),
                           "--spec", str(fixtures_dir / spec), "--query", query, "--json",
                           "--depth", "2")
        suite = parse_spec(load_spec_text(spec))
        suite = replace(suite, budget=replace(suite.budget, depth=2))
        report = completeness_check(load_program(pl), parse_query(query), suite)
        want = json.loads(json.dumps(report.to_json_obj()))
        assert json.loads(out) | {"timing_ms": 0} == want | {"timing_ms": 0}
        assert code == {"verified": 0, "refuted": 1, "unknown": 3}[report.verdict.status]

    def test_notin_guards_read_the_suite_sets(self, capsys, tmp_path):
        """S = {q(X) : X ground, r(X) not in post} holds q(b), which no clause
        covers.  The library used to resolve no set, so every ``notin``
        guard failed, S enumerated empty and the check read Verified."""
        (tmp_path / "p.pl").write_text("q(a).\nr(a).\n")
        spec = ("[alphabet]\nfunctor a/0.\nfunctor b/0.\n[S]\nq(X) where ground(X), "
                "notin(r(X), post).\n[post]\nr(a). q(a). q(b).\n[bounds]\ndepth = 0.\n")
        (tmp_path / "p.spec").write_text(spec)
        code, out, _ = run(capsys, "check", "semicomplete", str(tmp_path / "p.pl"),
                           "--spec", str(tmp_path / "p.spec"), "--json")
        v = semi_complete(parse_program("q(a).\nr(a).\n"), parse_spec(spec))
        witness = {"atom": "q(b)", "note": "not covered"}
        assert code == 1 and json.loads(out)["witnesses"] == [witness]
        assert v.is_refuted and v.witness == witness

    def test_spec_constants_reach_the_library_alphabet(self):
        """Without ``[alphabet]``, the constants the sets list join the
        alphabet in the library as in ``check cscorrect`` (see
        ``TestCheck::test_spec_constants_join_the_alphabet``).  The library
        used to ground over the program's symbols alone and stopped at the
        branch cap, Unknown."""
        consts = [f"a{i}" for i in range(9)]
        qs = " ".join(f"q({k})." for k in consts)
        rs = " ".join(f"r({k})." for k in consts)
        suite = parse_spec(f"[pre]\np. {qs}\n[post]\np. {qs} {rs}\n[bounds]\ndepth = 1.\n")
        v = cs_correct(parse_program("p :- r(W), q(X), q(Y), q(Z).\n"), suite)
        assert v.is_refuted
        assert v.witness["instance"] == "p :- r(a0), q(a0), q(a0), q(a0)."


def cli(argv, prefix=("-m", "cutcheck.cli")):
    """Run the CLI in a fresh interpreter, as ``python -m cutcheck.cli``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cutcheck.__file__).parent.parent))
    return subprocess.run([sys.executable, *prefix, *argv], capture_output=True, text=True,
                          env=env, timeout=60)


class TestErrorsAndEnv:
    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.pl"
        p.write_text("p(a\n")
        code, _, err = run(capsys, "run", str(p), "p")
        assert code == 2 and "parse error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "run", "/nonexistent.pl", "p")
        assert code == 2

    @pytest.mark.parametrize("kind", ["semicomplete", "correct", "complete"])
    def test_undeclared_notin_set_exit_2(self, fixtures_dir, tmp_path, kind):
        spec = tmp_path / "notp.spec"
        spec.write_text((fixtures_dir / "notp.spec").read_text().replace("post)", "postt)"))
        query = ["--query", "notp(a)"] if kind == "complete" else []
        proc = cli(["check", kind, str(fixtures_dir / "notp.pl"), "--spec", str(spec), *query])
        assert proc.returncode == 2
        assert proc.stderr.strip() == "parse error: 3:38: undeclared set 'postt' in notin guard"
        assert "Traceback" not in proc.stderr

    def test_spec_parse_error_gives_the_file_line(self, fixtures_dir, tmp_path):
        spec = tmp_path / "bogus.spec"
        spec.write_text(ALPHABET_AFG + "[S]\n\nq.\np(X) where bogus(X).\n")
        proc = cli(["check", "correct", str(fixtures_dir / "notp.pl"), "--spec", str(spec)])
        assert proc.returncode == 2
        assert proc.stderr.strip() == "parse error: 9:12: unknown guard 'bogus'"

    def test_internal_error_exit_4(self, fixtures_dir):
        # a checker that fails is reported as an internal error, never as a verdict
        code = (
            "import runpy, cutcheck.verify\n"
            "def boom(*args, **kwargs):\n"
            "    raise RuntimeError('boom')\n"
            "cutcheck.verify.correct_check = boom\n"
            "runpy.run_module('cutcheck.cli', run_name='__main__')\n"
        )
        argv = ["check", "correct", str(fixtures_dir / "append.pl"),
                "--spec", str(fixtures_dir / "append.spec")]
        proc = cli(argv, prefix=["-c", code])
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == "internal error: RuntimeError('boom')\n"

    def test_closed_stdout_exit_141(self, fixtures_dir):
        # the reader is gone before the report is written: no internal error
        argv = ["check", "semicomplete", str(fixtures_dir / "append.pl"),
                "--spec", str(fixtures_dir / "append.spec"), "--json"]
        env = dict(os.environ, PYTHONPATH=str(Path(cutcheck.__file__).parent.parent))
        proc = subprocess.Popen([sys.executable, "-m", "cutcheck.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141 and err == b""

    def test_closed_stdout_in_process(self, fixtures_dir, monkeypatch):
        class Closed(io.StringIO):  # a stdout that is no file, whose reader is gone
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        code = main(["check", "correct", str(fixtures_dir / "in.pl"),
                     "--spec", str(fixtures_dir / "in.spec")])
        assert code == cutcheck.cli.EXIT_BROKEN_PIPE == 141

    @pytest.mark.parametrize("cells", [1500, 5000])
    @pytest.mark.parametrize("command", ["run", "oracle", "tree", "prune"])
    def test_deep_list_query_no_traceback(self, fixtures_dir, command, cells):
        query = "app(X, Y, [" + ", ".join(["1"] * cells) + "])"
        nodes = [] if command == "oracle" else ["--nodes", "20"]  # oracle has no node budget
        proc = cli([command, str(fixtures_dir / "append.pl"), query, *nodes, "--steps", "10"])
        if command in ("run", "oracle"):
            assert proc.returncode in (0, 3) and proc.stderr == ""
            assert proc.stdout.startswith("app([], [1, 1, 1")
        else:
            # ten steps cover ten of the cells: the tree is cut off by the budget
            assert proc.returncode == 3 and proc.stderr == ""
            shown = "tree" if command == "tree" else "pruned tree"
            assert proc.stdout.startswith(f"{shown}: ") and proc.stdout.endswith(" exact=False\n")

    @pytest.mark.parametrize("cells", [1500, 5000])
    def test_deep_list_check_no_traceback(self, fixtures_dir, cells):
        # the alphabet, depth and sort-key walks of the checker reach every cell
        query = "in([" + ", ".join(["1"] * cells) + "], [1])"
        proc = cli(["check", "complete", str(fixtures_dir / "in.pl"), "--spec",
                    str(fixtures_dir / "in.spec"), "--depth", "1", "--nodes", "50", "--query", query])
        assert proc.returncode == 3 and proc.stderr == ""
        assert "reason: tree node budget 50 exhausted; pruned tree is not exact" in proc.stdout

    def test_deep_query_under_a_repeated_variable_pattern(self, tmp_path):
        # pre's p(X, X) compares the query's two 5,000-cell lists
        prog = tmp_path / "p.pl"
        prog.write_text("p(X, Y).\n")
        spec = tmp_path / "p.spec"
        spec.write_text("[alphabet]\nfunctor 1/0.\nfunctor '[]'/0.\nfunctor '.'/2.\n\n"
                        "[S]\np(X, Y).\n\n[pre]\np(X, X).\n\n[bounds]\ndepth = 1.\n")
        cells = "[" + ", ".join(["1"] * 5000) + "]"
        proc = cli(["check", "complete", str(prog), "--spec", str(spec), "--nodes", "50",
                    "--query", f"p({cells}, {cells})"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("check: complete\nverdict: verified\n")

    NAT = "nat(0).\nnat(s(X)) :- nat(X).\n"

    def test_deeply_nested_answers(self, tmp_path):
        # the k-th answer nests s/1 k deep; the last ones are far past the recursion limit
        prog = tmp_path / "nat.pl"
        prog.write_text(self.NAT)
        proc = cli(["run", str(prog), "nat(X)", "--nodes", "3000"])
        assert proc.returncode == 3 and proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[-1] == "(budget exhausted; answer list may be incomplete)"
        assert len(lines) - 1 == 1499
        assert lines[:2] == ["nat(0)", "nat(s(0))"]
        assert lines[-2] == "nat(" + "s(" * 1498 + "0" + ")" * 1498 + ")"

    def test_deeply_nested_query(self, tmp_path):
        prog = tmp_path / "nat.pl"
        prog.write_text(self.NAT)
        query = "nat(" + "s(" * 1500 + "0" + ")" * 1500 + ")"
        proc = cli(["run", str(prog), query])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == query + "\n"

    @pytest.mark.parametrize("kind", ["semicomplete", "correct", "cscorrect", "recurrent",
                                      "acceptable"])
    def test_long_list_in_the_program(self, fixtures_dir, tmp_path, kind):
        # big/1 holds a 5,000-cell list; size(L) walks all of it
        cells = "[" + ", ".join(["1"] * 5000) + "]"
        prog = tmp_path / "big.pl"
        prog.write_text((fixtures_dir / "in.pl").read_text()
                        + f"big({cells}).\nq :- big(L), in(L, L).\n")
        spec = tmp_path / "big.spec"
        spec.write_text("[S]\nbig(L) where ground_list(L).\n"
                        "m(X, L) where ground_list(L), member(X, L).\n"
                        "in(U, T) where ground_list(U), ground_list(T), subset(U, T).\nq.\n\n"
                        "[pre]\nbig(L) where ground_list(L).\nm(U, T) where list(T).\n"
                        "in(U, T) where ground_list(U), ground_list(T).\nq.\n\n"
                        "[post]\nany.\n\n"
                        "[level]\nbig(L) = size(L).\nm(S, T) = len(T).\n"
                        "in(S, T) = len(S) + len(T).\nq = 20002.\n\n"
                        "[bounds]\ndepth = 1.\n")
        proc = cli(["check", kind, str(prog), "--spec", str(spec)])
        assert proc.returncode in (0, 1, 3) and proc.stderr == ""
        assert proc.stdout.startswith(f"check: {kind}\nverdict: ")

    @pytest.mark.parametrize("kind", CHECK_KINDS)
    def test_deep_ground_atom_in_the_spec(self, fixtures_dir, tmp_path, kind):
        # building the spec's atom set hashes and compares the 5,000-cell atom
        cells = "[" + ", ".join(["1"] * 5000) + "]"
        spec = tmp_path / "deep.spec"
        spec.write_text((fixtures_dir / "in.spec").read_text() + f"\n[S]\nin({cells}, [1]).\n")
        argv = ["check", kind, str(fixtures_dir / "in.pl"), "--spec", str(spec), "--depth", "1"]
        if kind == "complete":
            argv += ["--query", "in([1], [1])"]
        proc = cli(argv)
        assert proc.returncode in (0, 1, 3) and proc.stderr == ""
        assert proc.stdout.startswith(f"check: {kind}\nverdict: ")

    def test_long_list_query_is_verified(self, fixtures_dir):
        query = "in([" + ", ".join(["1"] * 5000) + "], [1])"
        proc = cli(["check", "complete", str(fixtures_dir / "in.pl"), "--spec",
                    str(fixtures_dir / "in.spec"), "--depth", "1", "--query", query])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("check: complete\nverdict: verified\n")

    def test_unbounded_answers_are_not_kept(self, fixtures_dir):
        # the k-th answer of in(X, [1]) is a k-cell list: the check must not hold them
        code = ("import resource, sys\n"
                "from cutcheck.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024, file=sys.stderr)\n"
                "sys.exit(code)\n")
        proc = cli(["check", "complete", str(fixtures_dir / "in.pl"), "--spec",
                    str(fixtures_dir / "in.spec"), "--query", "in(X, [1])"], prefix=["-c", code])
        assert proc.returncode in (1, 3), proc.stderr
        assert int(proc.stderr) < 200  # peak RSS in MB

    @pytest.mark.parametrize("kind", ["recurrent", "acceptable"])
    def test_missing_level_mapping_exit_2(self, p5, kind):
        prog, spec = p5
        proc = cli(["check", kind, prog, "--spec", spec])
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: no level mapping declared for p/5"
        assert "Traceback" not in proc.stderr


class TestNoMemoOutlivesACall:
    """Two ``main()`` calls in one process answer as two fresh processes do,
    and leave none of their sets behind."""

    @staticmethod
    def spec(fixtures_dir, tmp_path, name, atoms):
        text = (fixtures_dir / "in.spec").read_text()
        head, _, rest = text.partition("[S]\n")
        _, _, rest = rest.partition("\n\n")  # drop in.spec's S patterns
        path = tmp_path / name
        path.write_text(head + "[S]\n" + "".join(a + "\n" for a in atoms) + "\n" + rest)
        return str(path)

    @pytest.mark.parametrize("kind", [["semicomplete"], ["complete", "--query", "in([1], [1])"]])
    def test_specs_differing_in_one_atom(self, capsys, fixtures_dir, tmp_path, monkeypatch, kind):
        atoms = ["m(1, [1]).", "in([1], [1]).", "in([], [1])."]
        # with in([], [1]) in S, in([1], [1]) is covered; without it, it is not
        specs = [self.spec(fixtures_dir, tmp_path, "with.spec", atoms),
                 self.spec(fixtures_dir, tmp_path, "without.spec", atoms[:2])]
        sets = []
        parse_spec = cutcheck.cli.parse_spec

        def recording_parse_spec(text):
            suite = parse_spec(text)
            sets.extend(weakref.ref(x) for x in (suite.s, suite.pre, suite.post)
                        if x != cutcheck.atomsets.UNIVERSAL)  # post: any., the universal set
            return suite

        monkeypatch.setattr(cutcheck.cli, "parse_spec", recording_parse_spec)
        argvs = [["check", kind[0], str(fixtures_dir / "in.pl"), "--spec", spec, *kind[1:]]
                 for spec in specs]
        in_process = [run(capsys, *argv) for argv in argvs]
        fresh = [cli(argv) for argv in argvs]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
        assert [code for code, _, _ in in_process] == [0, 1]
        gc.collect()
        assert len(sets) == 4 and all(ref() is None for ref in sets)

    def test_no_function_keeps_a_functools_cache(self):
        # a functools cache lives as long as its module; a check's memos live on its context
        modules = [importlib.import_module(f"cutcheck.{m.name}")
                   for m in pkgutil.iter_modules(cutcheck.__path__)]
        cached = [
            f"{module.__name__}.{name}"
            for module in modules
            for name, value in vars(module).items()
            for f in [value, *(vars(value).values() if inspect.isclass(value) else ())]
            if hasattr(f, "cache_info")
        ]
        assert len(modules) >= 10 and cached == []
