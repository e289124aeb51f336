"""The smoke checks: one table of rows, and the runner that CI runs.

Usage, from any directory, with no options:

    python -W error tests/smoke.py

Each row is one process, ``python -W error argv``, run under
``timeout`` in one temporary directory, into which the row first writes its
input files.  An argument that starts with ``fixtures/`` or ``bench/`` names
that file of the repository, and the repository's ``src/`` is on PYTHONPATH.
A row fails on an exit it does not accept (``timeout`` exits 124), on a peak
RSS above its bound, or when its extra check fails.  The runner prints one
line per row (exit, seconds, peak RSS), then names every row that failed and
exits 1 if any did.

A row's peak RSS is that of its own process: a small process spawns the row
alone and reads its resource usage from ``os.wait4``, so neither an earlier
row nor the runner's own memory sets the reading.

``tests/corpus.py`` runs the ``cutcheck.cli`` rows as corpus argvs, and the
tests import the input texts below, so that each input is written once.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
CLI = ("-m", "cutcheck.cli")
ANY_VERDICT = frozenset({0, 1, 3})  # Verified, Refuted or Unknown: no input or internal error

# A pre pattern whose guards force both arguments ground; with S over 1, []
# and '.'/2 at depth 2 (722 atoms), the lattice walk of condition 3 took
# about 27 s, the closed form well under a second.
RELATIONAL_PRE_PROGRAM = "n(X) :- !, !.\nm([], [1 | T]) :- !.\nn([1]) :- !, m(T, [X, 1]).\n"
RELATIONAL_PRE_SPEC = """\
[alphabet]
functor 1/0.
functor '[]'/0.
functor '.'/2.
predicate m/2.
predicate n/1.
[S]
m(X, L) where list(L).
m(X, L) where ground_list(L), member(X, L).
m([], [1]).
[pre]
m(X, L) where ground_list(L), member(X, L).
[post]
any.
"""
# a cut at each of 300 nested calls of c, between a query atom before the calls and one after
SCOPE_PROGRAM = "c(0) :- a, !.\nc(s(N)) :- c(N), a, !.\na.\na.\nb(1).\nb(2).\nd(1).\nd(2).\n"
SCOPE_QUERY = "b(X), c(" + "s(" * 300 + "0" + ")" * 300 + "), d(Y)"
# each step binds Y to a term that holds the next Y twice
SHARED_PROGRAM = "q(g(g(b,Y),Y)) :- q(Y).\nr(f(g(b,X))) :- p(X).\n"
SHARED_QUERY = "q(X), !, r(f(b)), r(f(X))"
# the goal list of p(s(...s(z)...)) grows by one q/1 goal per step
DEEP_PROGRAM = "p(z).\np(s(X)) :- p(X), q(X).\nq(X).\n"
# a quoted name that holds a %, with a comment after the section header and after the entry
QUOTED_PROGRAM = "p('a%b').\n"
QUOTED_SPEC = "[S] % the one atom\np('a%b'). % a % in a quoted name\n"


def deep_query(n: int) -> str:
    return "p(" + "s(" * n + "z" + ")" * n + ")"


def chain_program(m: int) -> str:
    """A cut chain of ``m`` links, the shape of the cuts workload's chains."""
    links = [f"p{i} :- !, p{i + 1}.\np{i}." for i in range(1, m + 1)]
    return "\n".join(links + [f"p{m + 1}."]) + "\n"


def bench_module(name: str):
    """The module ``name`` of ``bench/``, with ``bench/`` on sys.path for the import only."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


@dataclass(frozen=True)
class Result:
    rc: int
    seconds: float
    peak_mb: float
    out: bytes
    err: bytes


@dataclass(frozen=True)
class Row:
    name: str  # the smoke step, and which of its runs when it has more than one
    argv: tuple  # what follows ``python -W error``: interpreter flags, then -m, -c or a script
    files: tuple = ()  # (name, text) pairs, written into the run directory first
    timeout: float = 60  # seconds
    exits: frozenset = frozenset({0})  # the exit codes the row accepts
    rss_mb: Optional[float] = None  # the bound on the peak RSS
    # one extra check, check(result, earlier results by row name, run directory): what
    # failed, or None; the runner closes stdout after one byte for ``closed_pipe``
    check: Optional[Callable] = None


def cli(*args) -> tuple:
    return CLI + args


# ---------------------------------------------------------------------------
# The extra checks
# ---------------------------------------------------------------------------


def same_stdout_as(name: str):
    def check(result, earlier, cwd):
        if result.out != earlier[name].out:
            return f"stdout differs from that of {name}"
    return check


def answer_count(n: int):
    def check(result, earlier, cwd):
        count = len(result.out.splitlines())
        if count != n:
            return f"{count} answers, want {n}"
    return check


def non_empty(file: str):
    def check(result, earlier, cwd):
        if not (cwd / file).is_file() or (cwd / file).stat().st_size == 0:
            return f"{file} is missing or empty"
    return check


def parse_error_at(line: int, col: int):
    prefix = f"parse error: {line}:{col}: ".encode()

    def check(result, earlier, cwd):
        if not result.err.startswith(prefix):
            return f"stderr does not start with {prefix.decode()!r}"
    return check


def closed_pipe(result, earlier, cwd):
    """The reader closed stdout after one byte: stderr stays empty."""
    if result.err:
        return "stderr is not empty"


def bench_results(result, earlier, cwd):
    """One result line per workload, each correct and with no failed job."""
    lines = [json.loads(line) for line in result.out.decode().splitlines() if line.startswith("{")]
    bad = [r for r in lines if not r["correct"] or r["failed"] != 0]
    if len(lines) != 3 or bad:
        return f"{len(lines)} result lines, failing: {bad}"


# ---------------------------------------------------------------------------
# The rows
# ---------------------------------------------------------------------------


def rows() -> list:
    """The smoke rows, in the order they run."""
    cells = ", ".join(["1"] * 5000)
    in_spec = (ROOT / "fixtures" / "in.spec").read_text(encoding="utf-8")
    chain = chain_program(20000)
    in_complete = cli("check", "complete", "fixtures/in.pl", "--spec", "fixtures/in.spec")
    append_semicomplete = ("check", "semicomplete", "fixtures/append.pl",
                           "--spec", "fixtures/append.spec")
    appmem = (("appmem.pl", bench_module("workloads").APPMEM_PROGRAM),)
    split = "app(X, Y, [" + ", ".join(["b"] * 299 + ["a"]) + "]), mem(a, X)"
    prefixes = "app(X, Y, [" + ", ".join(["a"] * 200) + "]), mem(a, X)"
    scope = (("scope.pl", SCOPE_PROGRAM),)
    deep = (("deep.pl", DEEP_PROGRAM),)
    shared = (("shared.pl", SHARED_PROGRAM),)
    quoted = (("q.pl", QUOTED_PROGRAM), ("q.spec", QUOTED_SPEC))
    return [
        # site-packages off: fails if anything under src/ imports a third-party package
        Row("Stdlib-only smoke: import", ("-S", "-c", "import cutcheck, cutcheck.cli, cutcheck.dot")),
        Row("Stdlib-only smoke: check", ("-S", *cli(*append_semicomplete))),
        # a ground 5,000-cell list: fails if a resolution step walks the list again
        Row("Long-input smoke", in_complete + ("--depth", "1", "--query", f"in([{cells}], [1])"),
            timeout=30),
        # a 5,000-cell ground atom in [S]: fails if hashing or comparing terms recurses
        Row("Deep-spec smoke", cli("check", "semicomplete", "fixtures/in.pl", "--spec", "deep.spec",
                                   "--depth", "1"),
            files=(("deep.spec", in_spec + f"\n[S]\nin([{cells}], [1]).\n"),), timeout=30,
            exits=ANY_VERDICT),
        # a pre pattern whose member guard forces its arguments ground, over 722 S atoms (the
        # query's slice of S gives way to all of S, since m(1, []) is not c-covered): fails if
        # condition 3 walks the generalization lattice of each atom again
        Row("Relational-pre smoke", cli("check", "complete", "rel.pl", "--spec", "rel.spec",
                                        "--query", "m(1, [])", "--depth", "2"),
            files=(("rel.pl", RELATIONAL_PRE_PROGRAM), ("rel.spec", RELATIONAL_PRE_SPEC)),
            timeout=10, exits=ANY_VERDICT),
        # a ground query at depth 3: fails if the check c-covers all 117,964 atoms of S instead
        # of the query's slice
        Row("Query-slice smoke", in_complete + ("--depth", "3", "--query", "in([1], [1, 2])"),
            timeout=10),
        # semi-completeness over all 117,964 atoms of in.pl's S at depth 3 (measured: 5.3 s and
        # 78 MB on a 2-vCPU host; without one pool of terms per check, 13.6 s and 190 MB)
        Row("Whole-S smoke", cli("check", "semicomplete", "fixtures/in.pl", "--spec",
                                 "fixtures/in.spec", "--depth", "3"),
            timeout=30, rss_mb=120),
        # post holds the marker pattern of the cut query's clause: fails if a pattern of another
        # predicate makes the cover search non-exhaustive (Unknown, exit 3)
        Row("Cut-query smoke", cli("check", "complete", "fixtures/artificial.pl", "--spec",
                                   "fixtures/artificial.spec", "--query", "p(a, Z), !", "--depth", "1"),
            timeout=10),
        # the LD-tree commands, a DOT file, and the 50,000-node tree of a check complete
        Row("Tree smoke: tree", cli("tree", "fixtures/append.pl", "app(X, Y, [1, 2])"),
            exits=ANY_VERDICT),
        Row("Tree smoke: prune", cli("prune", "fixtures/in.pl", "in(X, [1, 2])", "--nodes", "2000",
                                     "--dot", "t.dot"),
            exits=ANY_VERDICT, check=non_empty("t.dot")),
        Row("Tree smoke: check", in_complete + ("--depth", "2", "--query", "in(X, [1, 2])"),
            exits=ANY_VERDICT),
        # a 20,000-link cut chain read and built up to 10 nodes; then the same program with a
        # bad character on a new last line, whose position must be reported
        Row("Reader smoke: chain", cli("tree", "chain.pl", "p1", "--nodes", "10"),
            files=(("chain.pl", chain),), timeout=30, exits=ANY_VERDICT),
        Row("Reader smoke: bad character", cli("tree", "chain_bad.pl", "p1", "--nodes", "10"),
            files=(("chain_bad.pl", chain + "^\n"),), timeout=30, exits=frozenset({2}),
            check=parse_error_at(chain.count("\n") + 1, 1)),
        # the quoted spec must verify; the same spec with a [bounds] value that is no number
        # must report that value's line and column
        Row("Spec reader smoke: quoted", cli("check", "semicomplete", "q.pl", "--spec", "q.spec"),
            files=quoted, timeout=10),
        Row("Spec reader smoke: bad bound", cli("check", "semicomplete", "q.pl", "--spec",
                                                "q_bad.spec"),
            files=quoted + (("q_bad.spec", QUOTED_SPEC + "[bounds]\nnodes = 5O000.\n"),),
            timeout=10, exits=frozenset({2}), check=parse_error_at(4, 10)),
        # both resolution engines, the LD-tree walk (run) and the choice-point search (oracle),
        # on 300 splits of a 300-cell list: about 1 s each on a 2-vCPU x86 host, 4-5 s when
        # binding mem's T to the rest of the list ran the occurs check over that rest
        Row("Resolution smoke: run", cli("run", "appmem.pl", split), files=appmem),
        Row("Resolution smoke: oracle", cli("oracle", "appmem.pl", split), files=appmem,
            check=same_stdout_as("Resolution smoke: run")),
        # 20,100 answers, one per a of each prefix of a 200-cell list, each printing the prefix
        # twice and the rest of the list: about 2.4 s each on a 2-vCPU x86 host, 3.3-3.5 s when
        # each answer re-walked the whole query
        Row("Answer-text smoke: run", cli("run", "appmem.pl", prefixes), files=appmem,
            rss_mb=150, check=answer_count(20100)),
        Row("Answer-text smoke: oracle", cli("oracle", "appmem.pl", prefixes), files=appmem,
            rss_mb=150, check=same_stdout_as("Answer-text smoke: run")),
        # 300 nested calls of c, each bringing in its own cut
        Row("Cut-scope smoke: run", cli("run", "scope.pl", SCOPE_QUERY), files=scope, timeout=30,
            check=answer_count(4)),
        Row("Cut-scope smoke: oracle", cli("oracle", "scope.pl", SCOPE_QUERY), files=scope,
            timeout=30, check=same_stdout_as("Cut-scope smoke: run")),
        # the goal r(f(X)) doubles with each step as a tree: the 60-step budget must run out
        # (exit 3) within the timeout, which needs a substitution to rebuild a shared subterm
        # once, and the breadth-first tree's rebase to resolve it once
        Row("Shared-term smoke: run", cli("run", "shared.pl", SHARED_QUERY, "--steps", "60"),
            files=shared, timeout=10, exits=frozenset({3})),
        Row("Shared-term smoke: tree", cli("tree", "shared.pl", SHARED_QUERY, "--steps", "60"),
            files=shared, timeout=10, exits=frozenset({3})),
        # answers that grow with the budget, printed from the binding store (kept answer terms
        # took the oracle to 347 MB at 5,000 steps)
        Row("Answer-stream smoke: oracle", cli("oracle", "fixtures/in.pl", "in(X, Y)", "--steps",
                                               "5000"),
            exits=frozenset({0, 3}), rss_mb=100),
        Row("Answer-stream smoke: run", cli("run", "fixtures/in.pl", "in(X, Y)", "--nodes", "5000"),
            exits=frozenset({0, 3}), rss_mb=100),
        # a goal list that grows by one q/1 goal per step, 4,000 s deep (applying each mgu to the
        # whole goal list took run to 163 MB at 1,000 s)
        Row("Deep goal-list smoke: run", cli("run", "deep.pl", deep_query(4000), "--nodes",
                                             "100000"),
            files=deep, timeout=30, rss_mb=100),
        Row("Deep goal-list smoke: oracle", cli("oracle", "deep.pl", deep_query(4000), "--steps",
                                                "100000"),
            files=deep, timeout=30, rss_mb=100),
        # exit 0 when the output fits the pipe before the reader closes it, else 141
        Row("Closed-pipe smoke", cli(*append_semicomplete, "--json"), exits=frozenset({0, 141}),
            check=closed_pipe),
        Row("Benchmark smoke", ("bench/run.py", "--workload", "all", "--seed", "1", "--seconds", "1"),
            timeout=600, check=bench_results),
    ]


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def repo_path(arg: str) -> str:
    """``arg``, made absolute when it names a file under ``fixtures/`` or ``bench/``."""
    return str(ROOT / arg) if arg.startswith(("fixtures/", "bench/")) else arg


# A process's peak RSS starts at that of the process it was spawned from, and the
# runner's grows with what the rows print.  So this small process spawns each row,
# waits for it with os.wait4, writes its peak RSS (KiB on Linux) to the file
# argv[1], and exits with its exit code.
WAIT4 = """\
import os, sys
pid = os.spawnvp(os.P_NOWAIT, sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_row(row: Row, cwd: Path) -> Result:
    """Run ``row`` in ``cwd`` and wait for it."""
    for name, text in row.files:
        (cwd / name).write_text(text, encoding="utf-8")
    rss = cwd / ".peak_rss"
    cmd = [sys.executable, "-W", "error", "-S", "-c", WAIT4, str(rss),
           "timeout", f"{row.timeout:g}", sys.executable, "-W", "error", *map(repo_path, row.argv)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    closed = row.check is closed_pipe
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=cwd, env=env, stderr=err,
                              stdout=subprocess.PIPE if closed else out) as proc:
            if closed:
                proc.stdout.read(1)
        seconds = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        peak_mb = int(rss.read_text(encoding="utf-8")) / 1024
        return Result(proc.returncode, seconds, peak_mb, out.read(), err.read())


def failure(row: Row, result: Result, earlier: dict, cwd: Path) -> Optional[str]:
    """Why ``row`` failed with ``result``, or None."""
    if result.rc not in row.exits:
        timed_out = " (timeout)" if result.rc == 124 else ""
        return f"exit {result.rc}{timed_out}, want one of {sorted(row.exits)}"
    if row.rss_mb is not None and result.peak_mb > row.rss_mb:
        return f"peak RSS above {row.rss_mb:g} MB"
    return None if row.check is None else row.check(result, earlier, cwd)


def run(table: list) -> list:
    """Run every row of ``table``, printing one line each; return the names of
    the rows that failed."""
    failed, earlier = [], {}
    with tempfile.TemporaryDirectory(prefix="cutcheck-smoke-") as tmp:
        for row in table:
            result = earlier[row.name] = run_row(row, Path(tmp))
            why = failure(row, result, earlier, Path(tmp))
            print(f"{row.name}: exit {result.rc}, {result.seconds:.1f} s, "
                  f"peak RSS {result.peak_mb:.1f} MB" + (f": FAILED, {why}" if why else ""),
                  flush=True)
            if why:
                failed.append(row.name)
                for line in result.err.decode(errors="replace").splitlines()[-20:]:
                    print(f"    {line}")
    if failed:
        print(f"{len(failed)} of {len(table)} rows failed: " + "; ".join(failed))
    return failed


def main() -> int:
    return 1 if run(rows()) else 0


if __name__ == "__main__":
    sys.exit(main())
