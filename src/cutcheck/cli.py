"""Command line interface.

Exit codes: 0 the check Verified (or the command succeeded), 1 Refuted,
2 the input is malformed, 3 Unknown or budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .atomsets import CapHit
from .dot import tree_dot
from .engine import Budget, build_tree
from .pruning import answers_of_pruned, prolog_search, prune, pruned_tree
from .syntax import (
    ParseError,
    SpecSuite,
    parse_program,
    parse_query,
    parse_spec,
    query_text,
    resolve_alphabet,
)
from .terms import CUT, CutUnificationError
from .verdicts import Verdict
from .verify import (
    CheckReport,
    acceptable_check,
    completeness_check,
    correct_check,
    cs_correct,
    query_transform,
    recurrent_check,
    semi_complete,
)

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_PARSE_ERROR = 2
EXIT_UNKNOWN = 3

CHECK_KINDS = ("complete", "semicomplete", "correct", "cscorrect", "recurrent", "acceptable")


def _budget_args(parser: argparse.ArgumentParser):
    parser.add_argument("--depth", type=int, default=None, help="term depth bound")
    parser.add_argument("--nodes", type=int, default=None, help="tree node budget")
    parser.add_argument("--steps", type=int, default=None, help="derivation step budget")


def _make_budget(args, suite: SpecSuite | None) -> Budget:
    base = suite.budget if suite is not None else Budget()
    depth = args.depth if args.depth is not None else base.depth
    nodes = args.nodes if args.nodes is not None else base.nodes
    steps = args.steps if args.steps is not None else base.steps
    return Budget(depth=depth, nodes=nodes, steps=steps)


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


def cmd_tree(args) -> int:
    program = _load_program(args.program)
    query = parse_query(args.query)
    budget = _make_budget(args, None)
    tree = build_tree(program, query, budget)
    pruned = prune(tree) if args.prune else None
    _emit_tree(args, tree, pruned)
    kept = pruned.kept if pruned else set(tree.ids)
    exact = pruned.exact if pruned else tree.exact
    if args.json:
        obj = {
            "nodes": len(tree),
            "exact": exact,
            "kept": sorted(kept),
            "pruned": sorted(set(tree.ids) - kept),
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        shown = "pruned tree" if pruned else "tree"
        print(f"{shown}: {len(kept)} of {len(tree)} nodes, exact={exact}")
    return EXIT_VERIFIED if exact else EXIT_UNKNOWN


def cmd_run(args) -> int:
    program = _load_program(args.program)
    query = parse_query(args.query)
    budget = _make_budget(args, None)
    pruned = pruned_tree(program, query, budget)
    _emit_tree(args, pruned.base, pruned)
    answers = answers_of_pruned(pruned)
    if args.json:
        obj = {
            "answers": [query_text(a) for a in answers],
            "exact": pruned.exact,
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for a in answers:
            print(query_text(a) if a else "yes")
        if not answers:
            print("no answers")
        if not pruned.exact:
            print("(budget exhausted; answer list may be incomplete)")
    return EXIT_VERIFIED if pruned.exact else EXIT_UNKNOWN


def cmd_oracle(args) -> int:
    program = _load_program(args.program)
    query = parse_query(args.query)
    budget = _make_budget(args, None)
    result = prolog_search(program, query, budget)
    if args.json:
        obj = {
            "answers": [query_text(a) for a in result.answers],
            "exact": result.exact,
            "steps": result.steps,
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for a in result.answers:
            print(query_text(a) if a else "yes")
        if not result.answers:
            print("no answers")
        if not result.exact:
            print("(step budget exhausted; answer list may be incomplete)")
    return EXIT_VERIFIED if result.exact else EXIT_UNKNOWN


def cmd_check(args) -> int:
    program = _load_program(args.program)
    suite = _load_spec(args.spec)
    budget = _make_budget(args, suite)
    alphabet = resolve_alphabet(program, (), suite)
    resolver = suite.resolver
    start = time.perf_counter()

    report = None
    if args.kind == "complete":
        query = parse_query(args.query or "")
        try:
            extra, query2, suite2 = (
                query_transform(query, suite, program, depth=budget.depth)
                if any(a is CUT for a in query)
                else ([], query, suite)
            )
        except CapHit as exc:  # the S extension of a query with cut is too large
            verdict = Verdict.unknown(str(exc))
        else:
            program2 = type(program)(program.clauses + tuple(extra))
            report = completeness_check(program2, query2, suite2, budget=budget)
            _emit_tree(args, report.pruned.base, report.pruned)
    else:
        if args.kind == "semicomplete":
            verdict = semi_complete(
                program, suite.s, alphabet=alphabet, depth=budget.depth, resolver=resolver
            )
        elif args.kind == "correct":
            verdict = correct_check(
                program, suite.s, alphabet=alphabet, depth=budget.depth, resolver=resolver
            )
        elif args.kind == "cscorrect":
            verdict = cs_correct(
                program, suite.pre, suite.post,
                alphabet=alphabet, depth=budget.depth, resolver=resolver,
            )
        elif args.kind == "recurrent":
            verdict = recurrent_check(
                program, suite.level_maps, alphabet=alphabet, depth=budget.depth
            )
        elif args.kind == "acceptable":
            verdict = acceptable_check(
                program, suite.s, suite.level_maps,
                alphabet=alphabet, depth=budget.depth, resolver=resolver,
            )
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(args.kind)
    if report is None:
        witnesses = []
        if verdict.witness is not None:
            witnesses.append(verdict.witness)
        report = CheckReport(
            check=args.kind,
            verdict=verdict,
            bounds={"depth": budget.depth, "nodes": budget.nodes, "steps": budget.steps},
            witnesses=witnesses,
            per_atom=[(label, v.status) for label, v in verdict.parts],
            timing_ms=int((time.perf_counter() - start) * 1000),
        )

    if args.json:
        print(json.dumps(report.to_json_obj(), indent=2, sort_keys=False))
    else:
        print(report.to_text(), end="")
    return _verdict_exit(report.verdict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutcheck",
        description="Build pruned LD-trees for logic programs with cut and "
        "check completeness, correctness, and termination conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="answers of the pruned LD-tree")
    p_run.add_argument("program")
    p_run.add_argument("query")
    p_tree = sub.add_parser("tree", help="build the LD-tree")
    p_tree.add_argument("program")
    p_tree.add_argument("query")
    p_prune = sub.add_parser("prune", help="build and prune the LD-tree")
    p_prune.add_argument("program")
    p_prune.add_argument("query")
    p_oracle = sub.add_parser("oracle", help="standard Prolog search (reference engine)")
    p_oracle.add_argument("program")
    p_oracle.add_argument("query")
    p_check = sub.add_parser("check", help="run a declarative check")
    p_check.add_argument("kind", choices=CHECK_KINDS)
    p_check.add_argument("program")
    p_check.add_argument("--spec", default=None, help="specification file")
    p_check.add_argument("--query", default=None, help="query (required for 'complete')")

    for p in (p_run, p_tree, p_prune, p_oracle, p_check):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--dot", metavar="FILE", default=None, help="write Graphviz output")
        _budget_args(p)

    p_run.set_defaults(func=cmd_run)
    p_tree.set_defaults(func=cmd_tree, prune=False)
    p_prune.set_defaults(func=cmd_tree, prune=True)
    p_oracle.set_defaults(func=cmd_oracle)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except CutUnificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
