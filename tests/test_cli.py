import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutcheck
import cutcheck.verify
from cutcheck.cli import main


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


class TestTreeAndPrune:
    def test_tree_json(self, capsys, program_path):
        code, out, _ = run(capsys, "tree", program_path, "p", "--json")
        obj = json.loads(out)
        assert code == 0 and obj["nodes"] == 10 and obj["pruned"] == []

    def test_prune_json(self, capsys, program_path):
        code, out, _ = run(capsys, "prune", program_path, "p", "--json")
        obj = json.loads(out)
        assert obj["kept"] == [0, 1, 2, 3, 5, 8]
        assert obj["pruned"] == [4, 6, 7, 9]

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
        assert code == 0 and out.strip() == "pruned tree: 4 of 500 nodes, exact=True"
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
        code, out, _ = run(capsys, "check", "recurrent", str(prog), "--spec", str(spec),
                           "--depth", "2")
        assert code == 3
        assert "verdict: unknown" in out and "reason: instance cap 50000 hit at depth 2" in out


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
        env = dict(os.environ, PYTHONPATH=str(Path(cutcheck.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "cutcheck.cli", "check", kind, str(fixtures_dir / "notp.pl"),
             "--spec", str(spec), "--query", "notp(a)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.strip() == "parse error: 3:38: undeclared set 'postt' in notin guard"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["recurrent", "acceptable"])
    def test_missing_level_mapping_exit_2(self, p5, kind):
        prog, spec = p5
        env = dict(os.environ, PYTHONPATH=str(Path(cutcheck.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "cutcheck.cli", "check", kind, prog, "--spec", spec],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: no level mapping declared for p/5"
        assert "Traceback" not in proc.stderr
