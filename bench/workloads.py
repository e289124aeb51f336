"""Seeded job lists for the three workloads.

Each generator returns the program and spec files to write into a fresh
directory, and the jobs, each an argument list for ``cutcheck.cli.main``
plus its reference.  The mix of job kinds and sizes is
fixed per workload; the seed chooses the list contents, the random programs,
the in/2 queries and the order of the jobs, so that different seeds give
different inputs with the same shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref

WORKLOADS = ("appmem", "cuts", "checks")


@dataclass
class Job:
    id: int
    kind: str  # what the job exercises
    command: str  # run | oracle | prune | check
    args: list  # cutcheck argv without --json; file names relative to the work dir
    size: tuple  # (parameter name, value): n, k, m, clauses or depth
    reference: dict
    known_defect: str = ""  # the documented program defect this job is expected to show
    text: bool = False  # also re-run without --json in the untimed text pass


class Inputs:
    """The files to write and the jobs of one workload run."""

    def __init__(self):
        self.files: dict = {}
        self.jobs: list = []

    def file(self, name: str, text: str) -> str:
        self.files[name] = text
        return name

    def add(self, kind, command, args, size, reference, known_defect="", text=False):
        self.jobs.append(Job(len(self.jobs), kind, command, list(args), size, reference, known_defect, text))


# ---------------------------------------------------------------------------
# appmem: deep substitutions, no cut
# ---------------------------------------------------------------------------

APPMEM_PROGRAM = """\
app([], L, L).
app([H|K], L, [H|M]) :- app(K, L, M).
mem(X, [X|T]).
mem(X, [H|T]) :- mem(X, T).
"""

APPMEM_LENGTHS = range(4, 15)
APPMEM_REPEATS = 5


def appmem(rng: random.Random, root: Path) -> Inputs:
    """``run`` and ``oracle`` alternate on ``app(X, Y, L), mem(a, X)``.

    Every length 4..14 appears APPMEM_REPEATS times per engine.  The r-th
    repeat of length n holds a fixed number of ``a`` (spread over 1..n) and
    a fixed number of answers; the seed places the ``a`` among the lists
    that meet both.
    """
    b = Inputs()
    prog = b.file("appmem.pl", APPMEM_PROGRAM)
    plan = [(n, r) for n in APPMEM_LENGTHS for r in range(APPMEM_REPEATS)]
    rng.shuffle(plan)
    for i, (n, r) in enumerate(plan):
        n_a = 1 + (r * (n - 1)) // (APPMEM_REPEATS - 1)
        items = _list_with_answers(rng, n, n_a, (n_a * (n + 1)) // 2)
        query = f"app(X, Y, {ref.list_text(items)}), mem(a, X)"
        answers = {"answers": ref.appmem_answers(items), "complete": True}
        for command in ("run", "oracle"):
            b.add(command, command, [command, prog, query], ("n", n), answers, text=i == 0)
    return b


def _list_with_answers(rng: random.Random, n: int, n_a: int, answers: int) -> list:
    """A list of n items over {a, b} with n_a ``a`` and the given number of
    answers: an ``a`` at 0-based position p answers in n - p prefixes."""
    while True:
        positions = rng.sample(range(n), n_a)
        if sum(n - p for p in positions) == answers:
            return ["a" if p in positions else "b" for p in range(n)]


# ---------------------------------------------------------------------------
# cuts: cut-heavy trees with small terms
# ---------------------------------------------------------------------------

LADDER_PROGRAM = """\
loop(z).
loop(s(N)) :- c, !, loop(N).
c.
c.
c.
"""
LADDER_DEFAULT_K = (3, 4, 5, 6)
LADDER_CAPPED_K = (7, 8, 9)
LADDER_CAP = 2000  # nodes; the pruned tree (3k+2 nodes) would fit
LADDER_REPEATS = 2
CHAIN_LENGTHS = tuple(range(100, 401, 50))
INFINITE_PROGRAM = "p :- q, !.\nq.\nq :- q.\n"
RANDOM_NODES = 400
# random programs per class: the full LD-tree fits in RANDOM_NODES ("small");
# it does not but the reference search finishes, so the pruned tree is
# finite ("overbuilt"); the reference search hits its limits ("unfinished")
RANDOM_CLASSES = {"small": 56, "overbuilt": 16, "unfinished": 8}


def chain_program(m: int) -> str:
    lines = []
    for i in range(1, m + 1):
        lines.append(f"p{i} :- !, p{i + 1}.")
        lines.append(f"p{i}.")
    lines.append(f"p{m + 1}.")
    return "\n".join(lines) + "\n"


def random_propositional_program(rng: random.Random, preds, max_clauses=6, max_body=3, max_cuts=2) -> str:
    """Same shape as the generator of the Criterion-2 differential test."""
    clauses, cuts = [], 0
    for _ in range(rng.randint(1, max_clauses)):
        body = []
        for _ in range(rng.randint(0, max_body)):
            if cuts < max_cuts and rng.random() < 0.25:
                body.append("!")
                cuts += 1
            else:
                body.append(rng.choice(preds))
        clauses.append(rng.choice(preds) + (" :- " + ", ".join(body) if body else "") + ".")
    return "\n".join(clauses) + "\n"


def _random_class(clauses, goal: str):
    count, complete = ref.prolog_count(clauses, goal)
    if not complete:
        return "unfinished", count, complete
    if ref.ld_tree_size(clauses, goal, RANDOM_NODES) <= RANDOM_NODES:
        return "small", count, complete
    return "overbuilt", count, complete


def cuts(rng: random.Random, root: Path) -> Inputs:
    b = Inputs()
    ladder = b.file("ladder.pl", LADDER_PROGRAM)
    for rep in range(LADDER_REPEATS):
        for k in LADDER_DEFAULT_K + LADDER_CAPPED_K:
            query = f"loop({ref.peano(k)})"
            args = ["run", ladder, query]
            kind = "run-ladder"
            if k in LADDER_CAPPED_K:
                args += ["--nodes", str(LADDER_CAP)]
                kind = "run-ladder-capped"
            first = rep == 0 and k in (LADDER_DEFAULT_K[0], LADDER_CAPPED_K[0])
            b.add(kind, "run", args, ("k", k), {"answers": [query], "complete": True, "kept": 3 * k + 2}, text=first)
    for m in CHAIN_LENGTHS:
        prog = b.file(f"chain{m}.pl", chain_program(m))
        b.add("prune-chain", "prune", ["prune", prog, "p1"], ("m", m), {"kept": 2 * m + 2},
              text=m == CHAIN_LENGTHS[0])
    inf = b.file("infinite.pl", INFINITE_PROGRAM)
    b.add("prune-infinite", "prune", ["prune", inf, "p"], ("m", "inf"), {"kept": 4},
          known_defect="prune reports exact=False and exit 3 while --json says exact: true", text=True)
    wanted = dict(RANDOM_CLASSES)
    while any(wanted.values()):
        preds = ["a", "b", "c"]
        text = random_propositional_program(rng, preds)
        goal = rng.choice(preds)
        clauses = ref.parse_propositional(text)
        cls, count, complete = _random_class(clauses, goal)
        if not wanted[cls]:
            continue
        wanted[cls] -= 1
        first = not any(j.kind == "run-random" for j in b.jobs)
        prog = b.file(f"random{len(b.jobs)}.pl", text)
        b.add("run-random", "run", ["run", prog, goal, "--nodes", str(RANDOM_NODES)],
              ("clauses", len(clauses)), {"answers": [goal] * count, "complete": complete, "class": cls},
              text=first)
    rng.shuffle(b.jobs)
    for i, job in enumerate(b.jobs):
        job.id = i
    return b


# ---------------------------------------------------------------------------
# checks: the checker pipeline on tiny trees
# ---------------------------------------------------------------------------

P5_PROGRAM = "p(A, B, C, D, E) :- q.\nq.\n"
P5_SPEC = """\
[alphabet]
functor a/0.
functor f/1.
functor g/2.

[S]
q.
p(a, B, C, D, E).
p(f(X), B, C, D, E).
"""
IN_QUERIES = {1: 69, 2: 23}  # ground in/2 `complete` queries per depth

# (kind, fixture program, fixture spec, extra args, depth, accepted verdicts,
#  known defect, re-run as text).  Accepted verdicts are what the paper's
#  examples, the acceptance tests and the ROADMAP establish by hand.
FIXTURE_CHECKS = (
    ("semicomplete", "append.pl", "append.spec", [], 3, {"verified"}, "", False),
    ("recurrent", "append.pl", "append.spec", ["--depth", "2"], 2, {"verified"}, "", False),
    ("correct", "in.pl", "in.spec", [], 2, {"refuted"}, "", True),  # in([], 1) is not in S
    ("cscorrect", "in.pl", "in.spec", [], 2, {"verified"}, "", True),
    ("acceptable", "in.pl", "in.spec", [], 2, {"refuted"}, "", True),  # not correct w.r.t. S
    ("semicomplete", "artificial.pl", "artificial.spec", [], 1, {"verified"}, "", True),
    ("recurrent", "artificial.pl", "artificial.spec", [], 1, {"verified"}, "", True),
    ("complete", "artificial.pl", "artificial.spec", ["--query", "p(a, Z)"], 1, {"verified"}, "", False),
    # with post = any, clause 2 is not c-covered (conditions 2 and 3 fail)
    ("complete", "artificial.pl", "artificial_posthb.spec", ["--query", "p(a, Z)"], 1, {"refuted"}, "", False),
    ("complete", "notp.pl", "notp.spec", ["--query", "notp(b)"], 1, {"verified"}, "", True),
    # a non-ground pre lets notp(a) :- p(a) cover, so condition 2 fails
    ("complete", "notp.pl", "notp_nonground.spec", ["--query", "notp(b)"], 1, {"refuted"}, "", False),
    # incomplete: the cut after m/2 loses in([2], [1, 2])
    ("complete", "in.pl", "in.spec", ["--query", "in([X], [1, 2])"], 2, {"refuted"}, "", False),
    # refuted at depth 1 by p(g(a, a), a, a, a, a), so it cannot hold at depth 2
    ("correct", "p5.pl", "p5.spec", ["--depth", "2"], 2, {"refuted"},
     "correct_check stops silently at its instance cap and answers verified", False),
)


def checks(rng: random.Random, root: Path) -> Inputs:
    b = Inputs()
    fixtures = root / "fixtures"
    for name in ("append.pl", "append.spec", "in.pl", "in.spec", "artificial.pl", "artificial.spec",
                 "artificial_posthb.spec", "notp.pl", "notp.spec", "notp_nonground.spec"):
        b.file(name, (fixtures / name).read_text(encoding="utf-8"))
    b.file("p5.pl", P5_PROGRAM)
    b.file("p5.spec", P5_SPEC)
    plan = [("fixture", entry) for entry in FIXTURE_CHECKS]
    plan += [("in", depth) for depth, count in IN_QUERIES.items() for _ in range(count)]
    rng.shuffle(plan)
    for what, entry in plan:
        if what == "fixture":
            kind, prog, spec, extra, depth, accepted, defect, text = entry
            b.add(f"check-{kind}", "check", ["check", kind, prog, "--spec", spec] + extra,
                  ("depth", depth), {"accepted": accepted}, known_defect=defect, text=text)
            continue
        depth = entry
        u = [rng.choice("12") for _ in range(rng.randint(0, 2))]
        t = [rng.choice("12") for _ in range(rng.randint(0, 3))]
        query = f"in({ref.list_text(u)}, {ref.list_text(t)})"
        args = ["check", "complete", "in.pl", "--spec", "in.spec", "--query", query]
        if depth != 2:
            args += ["--depth", str(depth)]
        # in/2 is complete for ground queries: the cut follows a ground member test
        b.add("check-complete-in", "check", args, ("depth", depth), {"accepted": {"verified"}})
    return b


GENERATORS = {"appmem": appmem, "cuts": cuts, "checks": checks}


def generate(workload: str, seed: int, root: Path) -> Inputs:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), root)
