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
- the inputs of the CI smoke steps.

A digest covers the exit code, stdout and stderr of one run, with the
``timing_ms`` field of a check report stripped.  Every run is also checked
against two invariants, and ``--out`` exits 1 when one fails:

- the text output, the ``--json`` output and the exit code agree;
- exit 2 comes only with an input error (``error: …`` or ``parse error: …``
  on stderr), and exit 4 never happens.
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

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
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
EXIT_BY_STATUS = {"verified": 0, "refuted": 1, "unknown": 3}
# the CI relational-pre smoke step's files
REL_PROGRAM = "n(X) :- !, !.\nm([], [1 | T]) :- !.\nn([1]) :- !, m(T, [X, 1]).\n"
REL_SPEC = (
    "[alphabet]\nfunctor 1/0.\nfunctor '[]'/0.\nfunctor '.'/2.\npredicate m/2.\npredicate n/1.\n"
    "[S]\nm(X, L) where list(L).\nm(X, L) where ground_list(L), member(X, L).\nm([], [1]).\n"
    "[pre]\nm(X, L) where ground_list(L), member(X, L).\n[post]\nany.\n"
)


@dataclass(frozen=True)
class Case:
    key: str  # the argv as the digest file names it: files relative to their directory
    argv: tuple  # the argv run, without --json


@dataclass(frozen=True)
class Run:
    rc: object  # the exit code
    out: str
    err: str


# ---------------------------------------------------------------------------
# The argv set
# ---------------------------------------------------------------------------


def workload_cases(workdir: Path, workloads=("appmem", "cuts", "checks"), seeds=SEEDS) -> list:
    """The jobs of the bench workloads, their files written under ``workdir``."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads as bench_workloads
    finally:
        sys.path.pop(0)
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
                cases.append(_fixture_case(("check", kind) + files + depth))
            for cut in ("", ", !"):
                query = ("--query", QUERIES[pl] + cut)
                cases.append(_fixture_case(("check", "complete") + files + query + depth))
    return cases


def _fixture_case(args: tuple) -> Case:
    return Case(" ".join(args), tuple(str(ROOT / a) if a.startswith("fixtures/") else a
                                      for a in args))


def smoke_cases(workdir: Path) -> list:
    """The inputs of the CI smoke steps, their files written under ``workdir``."""
    cells = ", ".join(["1"] * 5000)
    deep = workdir / "deep.spec"
    deep.write_text((FIXTURES / "in.spec").read_text(encoding="utf-8")
                    + f"\n[S]\nin([{cells}], [1]).\n", encoding="utf-8")
    (workdir / "rel.pl").write_text(REL_PROGRAM, encoding="utf-8")
    (workdir / "rel.spec").write_text(REL_SPEC, encoding="utf-8")
    in_files = ("check", "complete", "fixtures/in.pl", "--spec", "fixtures/in.spec")
    cases = [
        _fixture_case(("check", "semicomplete", "fixtures/append.pl", "--spec",
                       "fixtures/append.spec")),
        _fixture_case(in_files + ("--depth", "1", "--query", f"in([{cells}], [1])")),
        _fixture_case(in_files + ("--depth", "3", "--query", "in([1], [1, 2])")),
        _fixture_case(("check", "complete", "fixtures/artificial.pl", "--spec",
                       "fixtures/artificial.spec", "--query", "p(a, Z), !", "--depth", "1")),
    ]
    cases.append(Case("smoke check semicomplete fixtures/in.pl --spec deep.spec --depth 1",
                      ("check", "semicomplete", str(FIXTURES / "in.pl"), "--spec", str(deep),
                       "--depth", "1")))
    cases.append(Case("smoke check complete rel.pl --spec rel.spec --query m(1, []) --depth 2",
                      ("check", "complete", str(workdir / "rel.pl"), "--spec",
                       str(workdir / "rel.spec"), "--query", "m(1, [])", "--depth", "2")))
    return cases


def all_cases(workdir: Path) -> list:
    """The whole argv set, each argv once."""
    cases = workload_cases(workdir) + fixture_cases() + smoke_cases(workdir)
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


def run_once(argv) -> Run:
    out, err = io.StringIO(), io.StringIO()
    with fresh_import() as main, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    return Run(rc, out.getvalue(), err.getvalue())


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
        return Run(run.rc, json.dumps(obj), run.err)
    return run


def digest(run: Run) -> str:
    run = stripped(run)
    return hashlib.sha256(json.dumps([run.rc, run.out, run.err]).encode()).hexdigest()


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
        elif run.rc == 2 and not run.err.startswith(("error: ", "parse error: ")):
            found.append(f"{mode}: exit 2 without an input error: {run.err.strip()!r}")
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
