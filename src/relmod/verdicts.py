"""Structured verdicts returned by every decision procedure.

A check builds its Verdict with status HOLDS and changes that status only
through Verdict.end, which takes the new status together with its reasons:
a Witness for each positive or refuting claim, a note where the claim has no
witness (absent data, say).  So every verdict carries why it ended as it
did, and no code outside end assigns a status.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HOLDS = "holds"
FAILS = "fails"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
DATA_ABSENT = "data-absent"


@dataclass(frozen=True)
class Witness:
    name: str
    indices: tuple = ()
    value: str | None = None

    def to_json(self) -> dict:
        return {"name": self.name,
                "indices": [list(i) if isinstance(i, tuple) else i for i in self.indices],
                "value": self.value}


@dataclass
class Verdict:
    check: str
    status: str
    witnesses: list[Witness] = field(default_factory=list)
    derived_scalars: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    params: dict[str, str] = field(default_factory=dict)

    def end(self, status: str, *reasons: Witness | str) -> Verdict:
        """Set the status and append each reason in the order given, a Witness
        to witnesses and a string to notes; returns self.  A status with no
        reason is a ValueError."""
        if not reasons:
            raise ValueError(f"{self.check}: status {status!r} needs a reason")
        self.status = status
        for r in reasons:
            (self.witnesses if isinstance(r, Witness) else self.notes).append(r)
        return self

    @property
    def ok(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": dict(sorted(self.params.items())),
            "status": self.status,
            "witnesses": [w.to_json() for w in self.witnesses],
            "derived_scalars": dict(sorted(self.derived_scalars.items())),
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = [f"[{self.check}] {self.status}"
                 + (f"  ({', '.join(f'{k}={v}' for k, v in sorted(self.params.items()))})"
                    if self.params else "")]
        for w in self.witnesses:
            idx = f" at {w.indices}" if w.indices else ""
            val = ""
            if w.value is not None:
                shown = w.value if len(w.value) <= 200 else w.value[:200] + "...<truncated>"
                val = f" = {shown}"
            lines.append(f"  witness: {w.name}{idx}{val}")
        for k, v in sorted(self.derived_scalars.items()):
            lines.append(f"  {k} = {v}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)
