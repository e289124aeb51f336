"""Three-valued check results.

Every checker returns Verified, Refuted (with a replayable witness), or
Unknown (with the bound that was exhausted).  Bounded search never fakes a
definite answer: Verified means no counterexample exists within the stated
bound for universal checks, or a witness was found for existential ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

VERIFIED = "verified"
REFUTED = "refuted"
UNKNOWN = "unknown"

_ORDER = {REFUTED: 0, UNKNOWN: 1, VERIFIED: 2}


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[dict] = None
    reason: Optional[str] = None
    parts: tuple = ()  # nested (label, Verdict) details

    @staticmethod
    def verified(reason: Optional[str] = None, parts: tuple = ()) -> "Verdict":
        return Verdict(VERIFIED, None, reason, parts)

    @staticmethod
    def refuted(witness: dict, reason: Optional[str] = None, parts: tuple = ()) -> "Verdict":
        return Verdict(REFUTED, witness, reason, parts)

    @staticmethod
    def unknown(reason: str, parts: tuple = ()) -> "Verdict":
        return Verdict(UNKNOWN, None, reason, parts)

    @property
    def is_verified(self) -> bool:
        return self.status == VERIFIED

    @property
    def is_refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def to_json_obj(self):
        obj = {"status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.reason is not None:
            obj["reason"] = self.reason
        if self.parts:
            obj["parts"] = [[lab, v.to_json_obj()] for lab, v in self.parts]
        return obj


def weakest(verdicts, parts: tuple = ()) -> Verdict:
    """Conjunction of verdicts: Refuted beats Unknown beats Verified."""
    verdicts = list(verdicts)
    if not verdicts:
        return Verdict.verified("vacuous", parts)
    worst = min(verdicts, key=lambda v: _ORDER[v.status])
    return Verdict(worst.status, worst.witness, worst.reason, parts or worst.parts)
