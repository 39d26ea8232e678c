"""Small report types shared by the verification operations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one identity/congruence sweep.

    `witness` carries a minimal counterexample (re-checkable by a single
    operation call) when `ok` is False, and optional observations otherwise.
    """

    name: str
    ok: bool
    checked: int = 0
    witness: dict = field(default_factory=dict)
