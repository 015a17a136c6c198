"""Verification report: the machine-readable outcome of one claim sweep."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass
class VerificationReport:
    """Outcome of sweeping one claim over a stated domain.

    Empty violations means the claim verified on the domain. `elapsed` is
    wall time and is excluded from equality/determinism comparisons.
    """

    claim_id: str
    domain: str
    checks: int
    violations: list[dict[str, Any]]
    elapsed: float = 0.0
    params: dict[str, Any] = field(default_factory=dict)
    equality_cases: list[tuple[int, int]] | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def payload(self) -> dict[str, Any]:
        """Deterministic content (everything except wall time)."""
        out: dict[str, Any] = {
            "claim_id": self.claim_id,
            "domain": self.domain,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "checks": self.checks,
            "violations": self.violations,
            "ok": self.ok,
        }
        if self.equality_cases is not None:
            out["equality_cases"] = self.equality_cases  # tuples encode as JSON arrays
        if self.extras:
            out["extras"] = {k: self.extras[k] for k in sorted(self.extras)}
        return out

    def to_json(self) -> str:
        doc = self.payload()
        doc["elapsed_seconds"] = round(self.elapsed, 3)
        return json.dumps(doc, indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [
            f"claim {self.claim_id}: {'VERIFIED' if self.ok else 'VIOLATIONS FOUND'}",
            f"  domain: {self.domain}",
            f"  checks: {self.checks}",
            f"  violations: {len(self.violations)}",
        ]
        for v in self.violations[:20]:
            lines.append("    " + json.dumps(v, sort_keys=True))
        if len(self.violations) > 20:
            lines.append(f"    ... {len(self.violations) - 20} more")
        if self.equality_cases is not None:
            lines.append(f"  equality_cases: {len(self.equality_cases)}")
        for k in sorted(self.extras):
            lines.append(f"  {k}: {self.extras[k]}")
        lines.append(f"  elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines)

