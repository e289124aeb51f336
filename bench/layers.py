"""Per-layer metrics from a traced pass.

The layers are the modules of ``cutcheck``.  Counts come from the spans
(calls across a module boundary) and from what the wrapped functions return
or raise: ``len(tree)``, ``len(pt.kept)``, ``len(pt.iteration_log)``,
``SearchResult.steps``, the length of an atom list, a verdict's status and
reason.  A function that is no longer there, or whose return value has no
longer the shape a hook reads, is reported by name, not fatal.
"""

from __future__ import annotations

from spans import Tracer

REQUIRED = (
    "terms.unify", "terms.apply", "terms.compose", "terms.rename_apart", "terms.ground_terms",
    "engine.build_tree", "pruning.prune", "pruning.prolog_search",
    "syntax.parse_program", "syntax.parse_query", "syntax.parse_spec",
    "atomsets.enumerate_atoms", "atomsets.contains", "levels.level_of",
    "verify.completeness_check", "verify.c_covered", "verify.covered", "verify.cs_correct",
    "verify.correct_check", "verify.semi_complete", "verify.recurrent_check", "verify.acceptable_check",
)
PARSERS = ("syntax.parse_program", "syntax.parse_query", "syntax.parse_spec")
VERIFY_SELF = ("completeness_check", "c_covered", "cs_correct", "correct_check", "semi_complete",
               "recurrent_check", "acceptable_check")


def trace_hooks(tracer: Tracer) -> dict:
    """Counts taken from what the wrapped functions return or raise."""
    count = tracer.count

    def unify(result):
        if result is None:
            count("terms.unify_failed")

    def tree(t):
        count("engine.nodes_built", len(t))
        if not t.exact:
            count("engine.truncated_trees")

    def pruned(pt):
        count("pruning.nodes_kept", len(pt.kept))
        count("pruning.nodes_in", len(pt.base))
        count("pruning.cuts_executed", len(pt.iteration_log))

    def search(res):
        count("pruning.search_steps", res.steps)

    def atoms(result):
        count("atomsets.atoms_enumerated", len(result))

    def too_large(exc):
        if type(exc).__name__ == "AtomSetTooLarge":
            count("atomsets.too_large")

    def verdict(result):
        v = getattr(result, "verdict", result)  # a CheckReport or a Verdict
        if v.status == "unknown":
            count("verify.unknown_verdicts")
        elif v.status == "verified" and "cap" in (v.reason or ""):
            count("verify.cap_verdicts")

    hooks = {
        "terms.unify": (unify, None),
        "engine.build_tree": (tree, None),
        "pruning.prune": (pruned, None),
        "pruning.prolog_search": (search, None),
        "atomsets.enumerate_atoms": (atoms, too_large),
    }
    for name in VERIFY_SELF + ("covered",):
        hooks[f"verify.{name}"] = (verdict, None)
    return hooks


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    calls, incl, self_s, layers = tracer.summary()
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "terms.self_s": (layers["terms"], "s"),
        "terms.unify_calls": (calls["terms.unify"], "count"),
        "terms.unify_fail_ratio": (ratio(c["terms.unify_failed"], calls["terms.unify"]), "ratio"),
        "terms.apply_calls": (calls["terms.apply"], "count"),
        "terms.compose_calls": (calls["terms.compose"], "count"),
        "terms.rename_apart_calls": (calls["terms.rename_apart"], "count"),
        "terms.ground_terms_calls": (calls["terms.ground_terms"], "count"),
        "engine.build_tree_calls": (calls["engine.build_tree"], "count"),
        "engine.build_tree_self_s": (self_s["engine.build_tree"], "s"),
        "engine.nodes_built": (c["engine.nodes_built"], "count"),
        "engine.nodes_per_s": (ratio(c["engine.nodes_built"], incl["engine.build_tree"]), "1/s"),
        "engine.truncated_trees": (c["engine.truncated_trees"], "count"),
        "pruning.prune_self_s": (self_s["pruning.prune"], "s"),
        "pruning.nodes_kept": (c["pruning.nodes_kept"], "count"),
        "pruning.keep_ratio": (ratio(c["pruning.nodes_kept"], c["pruning.nodes_in"]), "ratio"),
        "pruning.cuts_executed": (c["pruning.cuts_executed"], "count"),
        "pruning.search_self_s": (self_s["pruning.prolog_search"], "s"),
        "pruning.search_steps": (c["pruning.search_steps"], "count"),
        "syntax.parse_calls": (sum(calls[n] for n in PARSERS), "count"),
        "syntax.parse_s": (sum(incl[n] for n in PARSERS), "s"),
        "cli.self_s": (layers["cli"], "s"),
        "atomsets.enumerate_calls": (calls["atomsets.enumerate_atoms"], "count"),
        "atomsets.enumerate_self_s": (self_s["atomsets.enumerate_atoms"], "s"),
        "atomsets.atoms_enumerated": (c["atomsets.atoms_enumerated"], "count"),
        "atomsets.too_large": (c["atomsets.too_large"], "count"),
        "atomsets.contains_calls": (calls["atomsets.contains"], "count"),
        "atomsets.contains_self_s": (self_s["atomsets.contains"], "s"),
        "levels.level_of_calls": (calls["levels.level_of"], "count"),
        "levels.self_s": (layers["levels"], "s"),
        "verify.c_covered_calls": (calls["verify.c_covered"], "count"),
        "verify.covered_calls": (calls["verify.covered"], "count"),
        "verify.unknown_verdicts": (c["verify.unknown_verdicts"], "count"),
        "verify.cap_verdicts": (c["verify.cap_verdicts"], "count"),
    }
    for name in VERIFY_SELF:
        m[f"verify.{name}_self_s"] = (self_s[f"verify.{name}"], "s")
    return m
