"""Reference outcomes for benchmark jobs, and the rules that classify a job.

Nothing here imports ``cutcheck``: the references are closed forms or come
from a small propositional interpreter written for the benchmark, so they do
not share the code path being timed.

A job's output is first normalised (from ``--json`` or from the plain text)
into an *outcome* dict, then classified as ``decided``, ``undecided`` or
``failed``:

* failed: the job raised, exited 2 on valid input, printed something that
  cannot be read, has an exit code that disagrees with its own output, or
  gave a definite outcome that contradicts its reference;
* decided: exact answers (``run``/``oracle``/``prune``) or a ``verified`` /
  ``refuted`` verdict, agreeing with the reference;
* undecided: everything else (budget exhausted, ``unknown``, or a
  ``verified`` whose reason says a cap was hit).
"""

from __future__ import annotations

import json
import re

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"

EXIT_FOR_STATUS = {"verified": 0, "refuted": 1, "unknown": 3}


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def list_text(items) -> str:
    return "[" + ", ".join(items) + "]"


def appmem_answers(items) -> list:
    """Answers of ``app(X, Y, L), mem(a, X)`` for a ground list ``L``.

    Splits come in order of prefix length; each split answers once per
    ``a`` in its prefix (``mem/2`` finds every occurrence).
    """
    whole = list_text(items)
    out = []
    for i in range(len(items) + 1):
        prefix = list_text(items[:i])
        text = f"app({prefix}, {list_text(items[i:])}, {whole}), mem(a, {prefix})"
        out.extend([text] * items[:i].count("a"))
    return out


def peano(k: int) -> str:
    return "s(" * k + "z" + ")" * k


# ---------------------------------------------------------------------------
# Propositional programs with cut: an independent depth-first interpreter
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """The interpreter ran out of steps or depth."""


class _Cut(Exception):
    def __init__(self, owner):
        super().__init__()
        self.owner = owner


def prolog_count(clauses, goal: str, max_steps: int = 5000, max_depth: int = 200):
    """Number of answers standard Prolog gives for a propositional goal.

    ``clauses`` is a sequence of ``(head, body)`` with ``body`` a tuple of
    names, ``"!"`` for cut.  Returns ``(answers, complete)``; ``complete`` is
    False when the step or depth limit stopped the search, in which case
    ``answers`` counts the ones found first.
    """
    steps = 0

    def solve(goals, depth):
        nonlocal steps
        if not goals:
            yield
            return
        (atom, owner), rest = goals[0], goals[1:]
        if atom == "!":
            yield from solve(rest, depth)
            raise _Cut(owner)  # backtracking into a cut ends its owner's call
        if depth >= max_depth:
            raise _Stop
        me = object()
        for head, body in clauses:
            if head != atom:
                continue
            steps += 1
            if steps > max_steps:
                raise _Stop
            try:
                yield from solve(tuple((b, me) for b in body) + rest, depth + 1)
            except _Cut as cut:
                if cut.owner is not me:
                    raise
                return

    count = 0
    try:
        for _ in solve(((goal, None),), 0):
            count += 1
    except _Stop:
        return count, False
    return count, True


def ld_tree_size(clauses, goal: str, cap: int) -> int:
    """Nodes of the full (unpruned) LD-tree of a propositional goal, counting
    stops once the count exceeds ``cap``."""
    count = 0
    stack = [(goal,)]
    while stack and count <= cap:
        query = stack.pop()
        count += 1
        if not query:
            continue
        if query[0] == "!":
            stack.append(query[1:])
            continue
        for head, body in reversed(clauses):
            if head == query[0]:
                stack.append(tuple(body) + query[1:])
    return count


def parse_propositional(text: str):
    clauses = []
    for line in text.splitlines():
        line = line.strip().rstrip(".")
        if not line:
            continue
        head, _, body = line.partition(":-")
        clauses.append((head.strip(), tuple(b.strip() for b in body.split(",") if b.strip())))
    return clauses


# ---------------------------------------------------------------------------
# Output normalisation
# ---------------------------------------------------------------------------


class Unreadable(ValueError):
    """The program's output has not the form its command promises."""


def outcome_from_json(command: str, stdout: str) -> dict:
    try:
        obj = json.loads(stdout)
        if command in ("run", "oracle"):
            return {"exact": bool(obj["exact"]), "answers": list(obj["answers"])}
        if command == "prune":
            return {"exact": bool(obj["exact"]), "kept": len(obj["kept"]), "nodes": int(obj["nodes"])}
        verdict = obj["verdict"]
        return {"status": verdict["status"], "reason": verdict.get("reason")}
    except (ValueError, KeyError, TypeError) as exc:
        raise Unreadable(f"unreadable --json output: {exc}") from exc


_PRUNE_LINE = re.compile(r"pruned tree: (\d+) of (\d+) nodes, exact=(True|False)$")


def outcome_from_text(command: str, stdout: str) -> dict:
    lines = stdout.splitlines()
    if command in ("run", "oracle"):
        exact = not (lines and lines[-1].startswith("(") and "exhausted" in lines[-1])
        if not exact:
            lines = lines[:-1]
        answers = [] if lines == ["no answers"] else lines
        return {"exact": exact, "answers": answers}
    if command == "prune":
        m = _PRUNE_LINE.match(lines[0]) if lines else None
        if m is None:
            raise Unreadable("unreadable prune text output")
        return {"exact": m.group(3) == "True", "kept": int(m.group(1)), "nodes": int(m.group(2))}
    status = reason = None
    for line in lines:
        if line.startswith("verdict: "):
            status = line[len("verdict: "):]
        elif line.startswith("reason: ") and reason is None:
            reason = line[len("reason: "):]
    if status is None:
        raise Unreadable("no verdict line in check text output")
    return {"status": status, "reason": reason}


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _is_prefix(short, long) -> bool:
    return len(short) <= len(long) and list(long[: len(short)]) == list(short)


def classify(job, rc: int, outcome: dict):
    """Return ``(class, note)`` for a job's exit code and normalised outcome."""
    if rc == 2:
        return FAILED, "exit 2 on valid input"
    ref = job.reference
    if job.command in ("run", "oracle", "prune"):
        if rc not in (0, 3) or outcome["exact"] != (rc == 0):
            return FAILED, f"exact={outcome['exact']} but exit {rc}"
        if job.command == "prune":
            if not outcome["exact"]:
                return UNDECIDED, "tree budget exhausted"
            if outcome["kept"] != ref["kept"]:
                return FAILED, f"kept {outcome['kept']} nodes, reference {ref['kept']}"
            return DECIDED, ""
        got, want = outcome["answers"], ref["answers"]
        complete = ref["complete"]
        if outcome["exact"]:
            ok = got == want if complete else _is_prefix(want, got)
            return (DECIDED, "") if ok else (FAILED, "answers differ from the reference")
        ok = _is_prefix(got, want) or (not complete and _is_prefix(want, got))
        return (UNDECIDED, "budget exhausted") if ok else (FAILED, "partial answers are not a prefix of the reference")
    status = outcome["status"]
    if EXIT_FOR_STATUS.get(status) != rc:
        return FAILED, f"verdict {status} but exit {rc}"
    if status == "unknown":
        return UNDECIDED, "unknown"
    if status == "verified" and "cap" in (outcome.get("reason") or ""):
        return UNDECIDED, "verified only up to a cap"
    if status not in ref["accepted"]:
        return FAILED, f"verdict {status}, reference {'/'.join(sorted(ref['accepted']))}"
    return DECIDED, ""
