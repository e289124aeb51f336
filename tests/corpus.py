"""The behaviour corpus: a fixed set of ``cutcheck`` command lines, each run
in text and in ``--json`` on a fresh import of the package, digested so that
two versions of the package can be compared run by run.

Usage, from the repository root, with the package under test on PYTHONPATH:

    PYTHONPATH=src python3 tests/corpus.py --out FILE   # digest every run into FILE
    python3 tests/corpus.py --diff A B                  # the argvs whose output or exit differ

The argv set:

- every job of the ``appmem``, ``cuts`` and ``checks`` workloads of
  ``bench/workloads.py`` at seeds 1 and 7;
- the five query-free check kinds on the six fixture program/spec pairs, at
  the spec's depth and at ``--depth 1``;
- ``check complete`` on each pair with the pair's query, with and without a
  trailing cut, at both depths;
- ``tree``, and ``tree``, ``run`` and ``prune`` with ``--dot``, on the
  fixture programs with and without a trailing cut, one tree cut off at
  ``--nodes``; ``check complete`` with ``--dot`` on each pair;
- ``run`` and ``oracle`` on queries whose answers share, repeat or leave
  variables unbound, each at two budgets: ``app(X, X, Z)``,
  ``app(X, [a | T], Z)``, ``in(X, Y)``, the ``appmem`` query on 14 cells
  and a query ending in ``!``;
- the ``cutcheck.cli`` rows of the smoke table, ``tests/smoke.py``, with
  the inputs the table runs;
- ``check complete`` on a spec whose pre pattern forces neither argument
  ground, so that its seed lies outside pre, with and without a trailing
  cut, and on a program that loses an S-true instance of its query only
  through such a pattern, at depths 2 to 4;
- ``check complete`` on a program that loses an S-true instance of its
  query only through a body atom deeper than the depth, at depths 2 and 3;
- stage paths no other argv reaches: ``correct`` and ``acceptable``
  answering Verified, a refuted level decrease, a refuted premise S
  subset-of post, the tree step budget, an occurs check that fails, an S
  pattern that builds a term deeper than the depth, a ``[set NAME]``
  section, an obligation of c-coverage's conditions 2 and 3 that stays
  undecided, and their searches over post exhausting the depth;
- malformed inputs, each exit 2: a bad character on line 3 of a program, an
  unterminated quote, an error inside a spec section, an undeclared
  ``notin`` set, a bad query, an unknown flag, a bad ``[bounds]`` value and
  an unknown bound name.

A digest covers the exit code, stdout and stderr of one run, and the text of
the DOT file a ``--dot`` run writes, with the ``timing_ms`` field of a check
report stripped.  Every run is also checked against three invariants, and
``--out`` exits 1 when one fails:

- the text output, the ``--json`` output and the exit code agree;
- the text run and the ``--json`` run write the same DOT file;
- exit 2 comes only with an input error (``error: …`` or ``parse error: …``
  on stderr, or argparse's ``usage: …`` and ``cutcheck …: error: …``), and
  exit 4 never happens.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import smoke

ROOT = smoke.ROOT
SEEDS = (1, 7)
FIXTURE_PAIRS = (
    ("append.pl", "append.spec"),
    ("in.pl", "in.spec"),
    ("artificial.pl", "artificial.spec"),
    ("artificial.pl", "artificial_posthb.spec"),
    ("notp.pl", "notp.spec"),
    ("notp.pl", "notp_nonground.spec"),
)
QUERY_FREE_KINDS = ("semicomplete", "correct", "cscorrect", "recurrent", "acceptable")
QUERIES = {
    "append.pl": "app(X, Y, [1, 2])",
    "in.pl": "in([X], [1, 2])",
    "artificial.pl": "p(a, Z)",
    "notp.pl": "notp(b)",
}
# the tree commands' programs and queries, each also with a trailing cut, and their bounds
TREE_RUNS = (
    ("pruning_tree.pl", "p", ()),
    ("pruning_tree_modified.pl", "p", ()),
    ("append.pl", "app(X, Y, [1, 2])", ()),
    ("artificial.pl", "p(X, Z)", ()),
    ("notp.pl", "notp(b)", ()),
    ("in.pl", "in(X, [1, 2])", ("--nodes", "200")),  # an infinite tree, cut off
)
# the answer commands' programs and queries; each runs at every budget of ANSWER_BUDGETS
ANSWER_RUNS = (
    ("append.pl", "app(X, X, Z)"),
    ("append.pl", "app(X, [a | T], Z)"),
    ("in.pl", "in(X, Y)"),
    ("appmem.pl", "app(X, Y, [" + ", ".join(["a"] * 14) + "]), mem(a, X)"),
    ("append.pl", "app(X, Y, [1, 2, 3]), !"),
)
ANSWER_BUDGETS = ("30", "300")  # run: --nodes; oracle: --steps
EXIT_BY_STATUS = {"verified": 0, "refuted": 1, "unknown": 3}


@dataclass(frozen=True)
class Case:
    key: str  # the argv as the digest file names it: files relative to their directory
    argv: tuple  # the argv run, without --json


@dataclass(frozen=True)
class Run:
    rc: object  # the exit code
    out: str
    err: str
    dot: Optional[str] = None  # the text of the DOT file a --dot run wrote


# ---------------------------------------------------------------------------
# The argv set
# ---------------------------------------------------------------------------


def workload_cases(workdir: Path, workloads=("appmem", "cuts", "checks"), seeds=SEEDS) -> list:
    """The jobs of the bench workloads, their files written under ``workdir``."""
    bench_workloads = smoke.bench_module("workloads")
    cases = []
    for name in workloads:
        for seed in seeds:
            built = bench_workloads.generate(name, seed, ROOT)
            where = workdir / f"{name}-{seed}"
            where.mkdir(parents=True, exist_ok=True)
            for file, text in built.files.items():
                (where / file).write_text(text, encoding="utf-8")
            for job in built.jobs:
                argv = tuple(str(where / a) if a in built.files else a for a in job.args)
                cases.append(Case(f"{name}:{seed} " + " ".join(job.args), argv))
    return cases


def fixture_cases() -> list:
    """The query-free kinds and ``check complete`` on the fixture pairs."""
    cases = []
    for pl, spec in FIXTURE_PAIRS:
        files = (f"fixtures/{pl}", "--spec", f"fixtures/{spec}")
        for depth in ((), ("--depth", "1")):
            for kind in QUERY_FREE_KINDS:
                cases.append(_case(("check", kind) + files + depth))
            for cut in ("", ", !"):
                query = ("--query", QUERIES[pl] + cut)
                cases.append(_case(("check", "complete") + files + query + depth))
    return cases


def _case(args: tuple, workdir: Optional[Path] = None, files: tuple = ()) -> Case:
    """The case of ``args``, whose ``fixtures/`` arguments name the repository's
    files; ``files``, (name, text) pairs, are written under ``workdir``, and a
    ``--dot`` file is written there too.  The key is the argv as written, each
    argument longer than 200 characters given by its length and a hash."""
    for name, text in files:
        (workdir / name).write_text(text, encoding="utf-8")
    names = {name for name, _ in files} | {b for a, b in zip(args, args[1:]) if a == "--dot"}
    argv = tuple(str(workdir / a) if a in names else smoke.repo_path(a) for a in args)
    return Case(" ".join(map(_key_argument, args)), argv)


def _key_argument(arg: str) -> str:
    if len(arg) <= 200:
        return arg
    return f"<{len(arg)} characters, sha1 {hashlib.sha1(arg.encode()).hexdigest()[:12]}>"


def tree_cases(workdir: Path) -> list:
    """``tree`` and the ``--dot`` runs, each DOT file written under ``workdir``."""
    dot = ("--dot", "tree.dot")
    cases = []
    for pl, query, bounds in TREE_RUNS:
        for cut in ("", ", !"):
            args = (f"fixtures/{pl}", query + cut) + bounds
            cases.append(_case(("tree",) + args))
            for command in ("tree", "run", "prune"):
                cases.append(_case((command,) + args + dot, workdir))
    for pl, spec in FIXTURE_PAIRS:
        for cut in ("", ", !"):
            cases.append(_case(("check", "complete", f"fixtures/{pl}", "--spec",
                                f"fixtures/{spec}", "--query", QUERIES[pl] + cut,
                                "--depth", "1") + dot, workdir))
    return cases


def answer_cases(workdir: Path) -> list:
    """``run`` and ``oracle`` on the answer queries, ``appmem.pl`` written
    under ``workdir``."""
    appmem = (("appmem.pl", smoke.bench_module("workloads").APPMEM_PROGRAM),)
    cases = []
    for pl, query in ANSWER_RUNS:
        for budget in ANSWER_BUDGETS:
            for command, flag in (("run", "--nodes"), ("oracle", "--steps")):
                if pl == "appmem.pl":
                    cases.append(_case((command, pl, query, flag, budget), workdir, appmem))
                else:
                    cases.append(_case((command, f"fixtures/{pl}", query, flag, budget)))
    return cases


def smoke_cases(workdir: Path) -> list:
    """The ``cutcheck.cli`` rows of the smoke table, their files written
    under ``workdir``."""
    return [_case(tuple(a for a in row.argv[2:] if a != "--json"),  # every case runs with --json too
                  workdir, row.files)
            for row in smoke.rows() if row.argv[:2] == smoke.CLI]


# a pre pattern that forces neither argument ground, so that its seed lies
# outside pre: the files, as (name, text) pairs
LATTICE_FILES = (
    ("lattice.pl", "p(X, Y) :- q(X), !, q(Y).\nq(a).\nq(b).\n"),
    ("lattice.spec", "[alphabet]\nfunctor a/0.\nfunctor b/0.\npredicate p/2.\npredicate q/1.\n"
                     "[S]\np(a, a).\nq(a).\nq(b).\n[pre]\np(X, Y) where eq(X, Y).\nq(X).\n"
                     "[post]\nany.\n"),
)


# a pre pattern whose member guard leaves the list's elements free, on a program
# that loses an S-true instance of the query
MEMBER_PRE_FILES = (("member.pl", smoke.MEMBER_PRE_PROGRAM), ("member.spec", smoke.MEMBER_PRE_SPEC))


# a program that loses the S-true instance p(b, [b, b]) of the query: clause 1 of q cuts
# on the call q(b, L), and only the body atom q(b, [b, [a]]), of depth 3, shows it
DEEP_BODY_FILES = (
    ("deep_body.pl", "r([a], a).\nq(b, [b]) :- !, r(b, [b, a]).\nq(b, [b, X]) :- r(X, L).\n"
                     "p(X, [X, X]) :- q(X, L).\n"),
    ("deep_body.spec", "[S]\np(b, [b, b]).\nq(b, [b, [a]]).\nr([a], a).\n[pre]\nany.\n"
                       "[post]\np(b, [b, b]).\nq(b, [b, [a]]).\nr([a], a).\n"),
)
DEEP_BODY_QUERY = "p(X, [Z, Y])"


def lattice_cases(workdir: Path) -> list:
    """``check complete`` on the lattice files, on the member-pre files at
    depths 2 to 4 and on the deep-body files at depths 2 and 3, their files
    written under ``workdir``."""
    return [_case(("check", "complete", "lattice.pl", "--spec", "lattice.spec", "--query", query,
                   "--depth", "1"), workdir, LATTICE_FILES)
            for query in ("p(a, a)", "p(a, a), !")] + [
        _case(("check", "complete", "member.pl", "--spec", "member.spec", "--query",
               smoke.MEMBER_PRE_QUERY, "--depth", depth), workdir, MEMBER_PRE_FILES)
        for depth in ("2", "3", "4")] + [
        _case(("check", "complete", "deep_body.pl", "--spec", "deep_body.spec", "--query",
               DEEP_BODY_QUERY, "--depth", depth), workdir, DEEP_BODY_FILES)
        for depth in ("2", "3")]


# the paths of the check stages no other argv reaches: the files the argv
# names, as (name, text) pairs, and the argv
WELL_FOUNDED_SPEC = ("[S]\napp(K, L, M) where ground_list(K), ground(L), concat(K, L, M).\n"
                     "[level]\napp(K, L, M) = len(K).\n")
# over the constants a and b, pre holds every instance of p(a, Y), which contains cannot show
UNDECIDED_PROGRAM = "p(X, Y) :- q(X, Y), !, fail.\np(X, Y).\nq(a, b).\n"
UNDECIDED_SPEC = ("[alphabet]\nfunctor a/0.\nfunctor b/0.\npredicate p/2.\npredicate q/2.\n"
                  "predicate fail/0.\n[S]\np(a, a).\n[pre]\np(X, Y) where eq(X, Y).\np(a, b).\n"
                  "p(b, a).\n[post]\nq(a, b).\n")
STAGE_RUNS = (
    # correct answers Verified, and acceptable reaches its level stage
    ((("wf.spec", WELL_FOUNDED_SPEC),),
     ("check", "correct", "fixtures/append.pl", "--spec", "wf.spec")),
    ((("wf.spec", WELL_FOUNDED_SPEC),),
     ("check", "acceptable", "fixtures/append.pl", "--spec", "wf.spec")),
    # a refuted level decrease
    ((("second.spec", "[level]\napp(K, L, M) = len(L).\n"),),
     ("check", "recurrent", "fixtures/append.pl", "--spec", "second.spec")),
    # the premise S subset-of post refutes
    ((("narrow.spec", "[S]\napp(K, L, M) where ground_list(K), ground_list(L), ground_list(M), "
                      "concat(K, L, M).\n[pre]\nany.\n[post]\napp([], L, L).\n"),),
     ("check", "complete", "fixtures/append.pl", "--spec", "narrow.spec",
      "--query", "app(X, Y, [1])", "--depth", "2")),
    # the tree step budget, and the ground search's cap
    ((), ("check", "complete", "fixtures/in.pl", "--spec", "fixtures/in.spec",
          "--query", "in(X, [1, 2])", "--steps", "3", "--depth", "1")),
    # an occurs check that fails
    ((("occurs.pl", "p(X, H, f(H)).\n"),), ("run", "occurs.pl", "p(Z, g(Z), Z)")),
    ((("occurs.pl", "p(X, H, f(H)).\n"),), ("oracle", "occurs.pl", "p(Z, g(Z), Z)")),
    # an S pattern that builds a term deeper than the depth, which the term pool adds
    ((("nested.pl", "p([X]).\n"), ("nested.spec", "[S]\np([X]) where ground(X).\n")),
     ("check", "semicomplete", "nested.pl", "--spec", "nested.spec", "--depth", "1")),
    # a [set NAME] section, read by notin
    ((("q.pl", "q(a).\nq(b).\n"),
      ("q.spec", "[set bad]\nq(b).\n[S]\nq(X) where notin(q(X), bad).\n"
                 "[pre]\nq(X) where notin(q(X), bad).\n[post]\nany.\n")),
     ("check", "cscorrect", "q.pl", "--spec", "q.spec")),
    # conditions 2 and 3 each keep an obligation that pre may hold (p(a, Y) loses p(a, a))
    ((("u.pl", UNDECIDED_PROGRAM), ("u.spec", UNDECIDED_SPEC)),
     ("check", "complete", "u.pl", "--spec", "u.spec", "--query", "p(a, Y)", "--depth", "1")),
    # a post pattern of q: condition 2's cover search and condition 3's eta
    # enumeration each exhaust the depth
    ((("c2.pl", "p(X, Y) :- q(X, Y), !.\np(X, Y).\n"),
      ("c2.spec", "[alphabet]\nfunctor a/0.\nfunctor b/0.\npredicate p/2.\npredicate q/2.\n"
                  "[S]\np(a, a).\n[pre]\np(X, Y) where eq(X, a).\n[post]\np(X, Y).\nq(b, Y).\n")),
     ("check", "complete", "c2.pl", "--spec", "c2.spec", "--query", "p(a, Y)", "--depth", "1")),
)


def stage_cases(workdir: Path) -> list:
    """The stage paths, their files written under ``workdir``."""
    return [_case(args, workdir, files) for files, args in STAGE_RUNS]


# malformed inputs: the files the argv names, as (name, text) pairs, and the argv
MALFORMED_RUNS = (
    ((("bad3.pl", "p.\nq :- p.\nr :- q, #.\n"),), ("run", "bad3.pl", "r")),
    ((("quote.pl", "p :- q.\nq :- 'open.\n"),), ("tree", "quote.pl", "p")),
    ((("section.spec", "[S]\napp([], [], []).\n\n% the guard\n[pre]\napp(X, Y, Z) where odd(X).\n"),),
     ("check", "correct", "fixtures/append.pl", "--spec", "section.spec")),
    ((("notin.spec", "[S]\napp(X, Y, Z) where ground(X),\n  notin(app(X, X, X), nowhere).\n"),),
     ("check", "semicomplete", "fixtures/append.pl", "--spec", "notin.spec")),
    ((), ("run", "fixtures/append.pl", "app(X, Y")),
    ((), ("prune", "fixtures/append.pl", "app(X, Y, [1])", "--bogus")),
    ((("badbound.spec", "[S]\napp([], [], []).\n\n[bounds]\ndepth = 2.\nnodes = 5O000.\n"),),
     ("check", "semicomplete", "fixtures/append.pl", "--spec", "badbound.spec")),
    ((("bound.spec", "[S]\napp([], [], []).\n[bounds]\ndeph = 1.\n"),),
     ("check", "semicomplete", "fixtures/append.pl", "--spec", "bound.spec")),
)


def malformed_cases(workdir: Path) -> list:
    """The malformed inputs, their files written under ``workdir``."""
    cases = []
    for files, args in MALFORMED_RUNS:
        case = _case(args, workdir, files)
        cases.append(Case("malformed " + case.key, case.argv))
    return cases


def all_cases(workdir: Path) -> list:
    """The whole argv set, each argv once."""
    cases = (workload_cases(workdir) + fixture_cases() + tree_cases(workdir)
             + answer_cases(workdir) + smoke_cases(workdir) + lattice_cases(workdir)
             + stage_cases(workdir) + malformed_cases(workdir))
    return list({c.key: c for c in cases}.values())


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def fresh_import():
    """``cutcheck.cli.main`` from a fresh import of the package; the modules
    imported before are put back on exit."""
    saved = _drop_package()
    try:
        yield importlib.import_module("cutcheck.cli").main
    finally:
        _drop_package()
        sys.modules.update(saved)


def _drop_package() -> dict:
    """Remove the modules of ``cutcheck`` from ``sys.modules``; return them."""
    names = [m for m in sys.modules if m == "cutcheck" or m.startswith("cutcheck.")]
    return {m: sys.modules.pop(m) for m in names}


def run_once(argv, main=None) -> Run:
    """One run of ``argv``: by ``main`` if given, else on a fresh import."""
    dot = Path(argv[argv.index("--dot") + 1]) if "--dot" in argv else None
    if dot is not None and dot.exists():
        dot.unlink()  # so that a run that writes none reads no earlier run's
    out, err = io.StringIO(), io.StringIO()
    entry = fresh_import() if main is None else contextlib.nullcontext(main)
    with entry as main, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    dot_text = dot.read_text(encoding="utf-8") if dot is not None and dot.exists() else None
    return Run(rc, out.getvalue(), err.getvalue(), dot_text)


def _usage_error(err: str) -> bool:
    """Whether ``err`` is argparse's report of a command line it rejected."""
    lines = err.splitlines()
    return (len(lines) >= 2 and lines[0].startswith("usage: cutcheck")
            and lines[-1].startswith("cutcheck") and ": error: " in lines[-1])


def run_case(case: Case) -> tuple:
    """The text run and the --json run of one argv."""
    return run_once(case.argv), run_once(case.argv + ("--json",))


def stripped(run: Run) -> Run:
    """The run with the check report's ``timing_ms`` removed from its JSON."""
    try:
        obj = json.loads(run.out)
    except ValueError:
        return run
    if isinstance(obj, dict) and "timing_ms" in obj:
        obj.pop("timing_ms")
        return Run(run.rc, json.dumps(obj), run.err, run.dot)
    return run


def digest(run: Run) -> str:
    run = stripped(run)
    parts = [run.rc, run.out, run.err] + ([] if run.dot is None else [run.dot])
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _text_of(command: str, obj: dict) -> str:
    """What the text mode prints for the report ``obj`` that --json printed."""
    if command == "check":
        verdict = obj["verdict"]
        lines = [f"check: {obj['check']}", f"verdict: {verdict['status']}"]
        if verdict.get("reason"):
            lines.append(f"reason: {verdict['reason']}")
        lines.append("bounds: depth={depth} nodes={nodes} steps={steps}".format(**obj["bounds"]))
        lines += ["witness: " + ", ".join(f"{k}={v}" for k, v in w.items())
                  for w in obj["witnesses"]]
        lines += [f"  {label}: {status}" for label, status in obj["per_atom"]]
    elif command in ("run", "oracle"):
        lines = [a or "yes" for a in obj["answers"]] or ["no answers"]
        if not obj["exact"]:
            note = "step budget" if command == "oracle" else "budget"
            lines.append(f"({note} exhausted; answer list may be incomplete)")
    else:
        shown = "tree" if command == "tree" else "pruned tree"
        lines = [f"{shown}: {len(obj['kept'])} of {obj['nodes']} nodes, exact={obj['exact']}"]
    return "\n".join(lines) + "\n"


def _exit_of(command: str, obj: dict) -> int:
    if command == "check":
        return EXIT_BY_STATUS[obj["verdict"]["status"]]
    return 0 if obj["exact"] else 3


def problems(case: Case, text: Run, as_json: Run) -> list:
    """The invariants the two runs of one argv break, each as one line."""
    found = []
    for mode, run in (("text", text), ("json", as_json)):
        if run.rc == 4 or "internal error" in run.err:
            found.append(f"{mode}: internal error, exit {run.rc}: {run.err.strip()}")
        elif run.rc == 2 and not (run.err.startswith(("error: ", "parse error: "))
                                  or _usage_error(run.err)):
            found.append(f"{mode}: exit 2 without an input error: {run.err.strip()!r}")
    if text.dot != as_json.dot:
        found.append("the text run and the --json run write different DOT files")
    if text.rc != as_json.rc or text.err != as_json.err:
        found.append(f"text exit {text.rc} but --json exit {as_json.rc}")
    elif text.rc in EXIT_BY_STATUS.values():
        try:
            obj = json.loads(as_json.out)
            want_text, want_rc = _text_of(case.argv[0], obj), _exit_of(case.argv[0], obj)
        except (ValueError, KeyError, TypeError) as exc:
            return found + [f"unreadable --json output: {exc!r}"]
        if want_rc != as_json.rc:
            found.append(f"--json reads exit {want_rc} but the exit is {as_json.rc}")
        if want_text != text.out:
            found.append("the text output disagrees with --json")
    return found


# ---------------------------------------------------------------------------
# The command line
# ---------------------------------------------------------------------------


def write_corpus(out: Path) -> int:
    digests: dict = {}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="cutcheck-corpus-") as tmp:
        for case in all_cases(Path(tmp)):
            text, as_json = run_case(case)
            digests[case.key] = {"text": [text.rc, digest(text)],
                                 "json": [as_json.rc, digest(as_json)]}
            for line in problems(case, text, as_json):
                failed += 1
                print(f"{case.key}: {line}", file=sys.stderr)
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} argvs, {2 * len(digests)} runs, {failed} invariant failures")
    return 1 if failed else 0


def diff(a: Path, b: Path) -> int:
    old = json.loads(a.read_text(encoding="utf-8"))
    new = json.loads(b.read_text(encoding="utf-8"))
    differing = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for key in differing:
        print(f"{key}: {old.get(key)} -> {new.get(key)}")
    print(f"{len(differing)} of {len(old.keys() | new.keys())} argvs differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, metavar="FILE", help="run the corpus, write its digests")
    group.add_argument("--diff", type=Path, nargs=2, metavar=("A", "B"),
                       help="list the argvs whose digests differ between two files")
    args = parser.parse_args(argv)
    return write_corpus(args.out) if args.out else diff(*args.diff)


if __name__ == "__main__":
    sys.exit(main())
