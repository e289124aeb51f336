"""Command line interface.

Exit codes: 0 the check Verified (or the command succeeded), 1 Refuted,
2 the input is malformed, 3 Unknown or budget exhausted, 4 internal error,
141 (128 + SIGPIPE) the reader closed stdout before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from .dot import tree_dot
from .engine import Budget, build_tree
from .pruning import prolog_search, pruned_tree
from .syntax import (
    ParseError,
    SpecSuite,
    answer_printer,
    parse_program,
    parse_query,
    parse_spec,
)
from .terms import InputError
from .verdicts import Verdict
from .verify import (
    CheckReport,
    acceptable_check,
    completeness_check,
    correct_check,
    cs_correct,
    recurrent_check,
    semi_complete,
)

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_PARSE_ERROR = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL_ERROR = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process a closed pipe ended

# the query-free check kinds, each with its checker
CHECKERS = {
    "semicomplete": semi_complete,
    "correct": correct_check,
    "cscorrect": cs_correct,
    "recurrent": recurrent_check,
    "acceptable": acceptable_check,
}
CHECK_KINDS = ("complete", *CHECKERS)


def _bound(text: str) -> int:
    """A bound given on the command line: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _make_budget(args, suite: SpecSuite | None) -> Budget:
    """The spec's bounds (or the defaults), each overridden by its flag when
    the command reads that flag and it was given."""
    base = suite.budget if suite is not None else Budget()
    given = {name: getattr(args, name, None) for name in ("depth", "nodes", "steps")}
    return replace(base, **{name: v for name, v in given.items() if v is not None})


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


def _load_spec(path: str | None) -> SpecSuite:
    if path is None:
        return SpecSuite()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _verdict_exit(verdict: Verdict) -> int:
    if verdict.is_verified:
        return EXIT_VERIFIED
    if verdict.is_refuted:
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _emit_tree(args, tree, pruned):
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(tree_dot(tree, pruned))


def _report_nodes(args, shown: str, tree, kept: set, exact: bool) -> int:
    if args.json:
        obj = {
            "nodes": len(tree),
            "exact": exact,
            "kept": sorted(kept),
            "pruned": sorted(set(tree.ids) - kept),
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"{shown}: {len(kept)} of {len(tree)} nodes, exact={exact}")
    return EXIT_VERIFIED if exact else EXIT_UNKNOWN


def cmd_tree(args) -> int:
    program = _load_program(args.program)
    query = parse_query(args.query)
    tree = build_tree(program, query, _make_budget(args, None))
    _emit_tree(args, tree, None)
    return _report_nodes(args, "tree", tree, set(tree.ids), tree.exact)


def cmd_prune(args) -> int:
    program = _load_program(args.program)
    query = parse_query(args.query)
    pruned = pruned_tree(program, query, _make_budget(args, None))
    _emit_tree(args, pruned.base, pruned)
    return _report_nodes(args, "pruned tree", pruned.base, pruned.kept, pruned.exact)


def _report_answers(args, answers: list, exact: bool, note: str, extra: dict) -> int:
    """Print the answers of ``run`` or ``oracle``, given as texts; ``note``
    names the budget an inexact search exhausted, ``extra`` holds further
    JSON fields."""
    if args.json:
        obj = {"answers": answers, "exact": exact, **extra}
        print(json.dumps(obj, sort_keys=True))
    else:
        for a in answers:
            print(a or "yes")  # the empty answer of a query that succeeded
        if not answers:
            print("no answers")
        if not exact:
            print(f"({note} exhausted; answer list may be incomplete)")
    return EXIT_VERIFIED if exact else EXIT_UNKNOWN


def cmd_run(args) -> int:
    program = _load_program(args.program)
    query = parse_query(args.query)
    answers: list = []  # as texts, printed from the walk's binding store
    print_answer = answer_printer(query)
    pruned = pruned_tree(program, query, _make_budget(args, None),
                         on_answer=lambda store: answers.append(print_answer(store)))
    _emit_tree(args, pruned.base, pruned)
    return _report_answers(args, answers, pruned.exact, "budget", {})


def cmd_oracle(args) -> int:
    program = _load_program(args.program)
    query = parse_query(args.query)
    answers: list = []  # as texts, printed from the search's binding store
    print_answer = answer_printer(query)
    result = prolog_search(program, query, _make_budget(args, None),
                           on_answer=lambda store: answers.append(print_answer(store)))
    return _report_answers(args, answers, result.exact, "step budget", {"steps": result.steps})


def cmd_check(args) -> int:
    if args.kind != "complete":
        for flag, value in (("--query", args.query), ("--dot", args.dot)):
            if value is not None:
                raise InputError(f"{flag} applies to check complete only")
    program = _load_program(args.program)
    suite = _load_spec(args.spec)
    suite = replace(suite, budget=_make_budget(args, suite))
    if args.kind == "complete":
        if args.query is None:
            raise InputError("check complete needs a query: give --query")
        report = completeness_check(program, parse_query(args.query), suite)
        if report.pruned is not None:  # None when the S extension of a query with cut hit its cap
            _emit_tree(args, report.pruned.base, report.pruned)
    else:
        start = time.perf_counter()
        verdict = CHECKERS[args.kind](program, suite)
        report = CheckReport.of(args.kind, verdict, suite, start,
                                [] if verdict.witness is None else [verdict.witness],
                                verdict.parts)

    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        print(report.to_text(), end="")
    return _verdict_exit(report.verdict)


_DOT = ("--dot", "write Graphviz output")
_NODES = ("--nodes", "tree node budget")
_STEPS = ("--steps", "derivation length bound (tree depth)")

# The commands, in the order help lists them: (name, help, handler, the
# flags the command reads beside --json, with their help).  --dot names the
# output file; every other flag is a bound.
COMMANDS = (
    ("run", "answers of the pruned LD-tree", cmd_run, (_DOT, _NODES, _STEPS)),
    ("tree", "build the LD-tree", cmd_tree, (_DOT, _NODES, _STEPS)),
    ("prune", "build the pruned LD-tree", cmd_prune, (_DOT, _NODES, _STEPS)),
    ("oracle", "standard Prolog search (reference engine)", cmd_oracle,
     (("--steps", "resolution step budget"),)),
    ("check", "run a declarative check", cmd_check,
     (("--dot", "write Graphviz output ('complete' only)"), ("--depth", "term depth bound"),
      _NODES, _STEPS)),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every command's subparser, or with only
    ``command``'s when it names a command.

    The one-command parser parses that command's arguments as the full one
    does and prints the same help and errors: its top-level usage still
    lists every command.
    """
    parser = argparse.ArgumentParser(
        prog="cutcheck",
        allow_abbrev=False,
        description="Build pruned LD-trees for logic programs with cut and "
        "check completeness, correctness, and termination conditions.",
    )
    names = [entry[0] for entry in COMMANDS]
    one = command in names
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(names) + "}" if one else None
    )
    for name, help_text, handler, flags in COMMANDS:
        if one and name != command:
            continue
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name == "check":
            p.add_argument("kind", choices=CHECK_KINDS)
            p.add_argument("program")
            p.add_argument("--spec", default=None, help="specification file")
            p.add_argument("--query", default=None, help="query ('complete' only, required)")
        else:
            p.add_argument("program")
            p.add_argument("query")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        for flag, flag_help in flags:
            if flag == "--dot":
                p.add_argument(flag, metavar="FILE", default=None, help=flag_help)
            else:
                p.add_argument(flag, type=_bound, default=None, help=flag_help)
        p.set_defaults(func=handler)
    return parser


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at os.devnull, so that flushing what is
    left in its buffer at exit does not fail on the closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not a file, as under a captured stdout
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except Exception as exc:  # a fault in cutcheck, never a verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
