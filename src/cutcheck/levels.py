"""Level mappings: linear combinations of list-length and term-size norms.

A level mapping assigns each ground atom a natural number; the cut atom has
level 0 by convention.  Mappings are declared per predicate as
``c0 + c1*norm(arg_i) + ...`` with norms ``len`` (list cells along the spine)
and ``size`` (constructor count).
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import CUT, Compound, Pred, Var, is_ground, list_norm, term_size, vars_of

NORMS = ("len", "size")


@dataclass(frozen=True)
class LevelMapping:
    predicate: str
    arity: int
    constant: int = 0
    terms: tuple = ()  # of (coefficient, norm name, argument index)

    def __post_init__(self):
        for coeff, norm, idx in self.terms:
            if norm not in NORMS:
                raise ValueError(f"unknown norm {norm!r}")
            if not 0 <= idx < self.arity:
                raise ValueError(f"argument index {idx} out of range for /{self.arity}")
            if coeff < 0:
                raise ValueError("negative coefficients would break well-foundedness")

    @property
    def indicator(self) -> str:
        return f"{self.predicate}/{self.arity}"


def _norm_value(norm: str, t) -> int:
    return list_norm(t) if norm == "len" else term_size(t)


def _mapping(atom: Pred, mappings: dict) -> LevelMapping:
    lm = mappings.get(atom.indicator)
    if lm is None:
        raise KeyError(f"no level mapping declared for {atom.indicator}")
    return lm


def level_of(atom, mappings: dict) -> int:
    """Level of a ground atom; ``!`` has level 0."""
    if atom is CUT:
        return 0
    if not is_ground(atom):
        raise ValueError(f"level_of requires a ground atom, got {atom!r}")
    lm = _mapping(atom, mappings)
    total = lm.constant
    for coeff, norm, idx in lm.terms:
        total += coeff * _norm_value(norm, atom.args[idx])
    return total


def _spine_end(t):
    """The term that ends t's list spine."""
    while isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
        t = t.args[1]
    return t


def level_reads(atom, mappings: dict) -> set:
    """Variables of ``atom`` whose values can change the level of a ground
    instance of it: under ``len`` the variable ending an argument's spine
    (list elements and what ends a spine in a non-list term are not
    counted), under ``size`` every variable of the argument.  ``!`` and
    arguments with coefficient 0 read none."""
    if atom is CUT:
        return set()
    out: set = set()
    for coeff, norm, idx in _mapping(atom, mappings).terms:
        if coeff == 0:
            continue
        arg = atom.args[idx]
        if norm == "len":
            tail = _spine_end(arg)
            if isinstance(tail, Var):
                out.add(tail.name)
        else:
            out.update(vars_of(arg))
    return out
