"""The report of a library check, and the one loop that makes it.

Every `check_*` states its cases as a stream and returns `sweep(name,
cases)`.  So `checked` means one thing everywhere: the number of cases that
held before the first failure, or all of them when none fails.
"""

from __future__ import annotations

from collections import namedtuple


class CheckReport(namedtuple("CheckReport", "name ok checked witness")):
    """Outcome of one identity/congruence sweep.

    `witness` carries a minimal counterexample (re-checkable by a single
    operation call) when `ok` is False, and optional observations otherwise.
    """

    __slots__ = ()

    def __new__(cls, name: str, ok: bool, checked: int = 0, witness: dict | None = None):
        return super().__new__(cls, name, ok, checked, {} if witness is None else witness)


def sweep(name: str, cases, witness: dict | None = None) -> CheckReport:
    """Run `cases`, which yields None for a case that holds and a failure
    witness dict for one that fails, and stop at the first failure.  When
    every case holds, the report's witness is `witness`, read only after
    the last case, so a case stream may fill it as it runs."""
    checked = 0
    for failure in cases:
        if failure is not None:
            return CheckReport(name, False, checked, failure)
        checked += 1
    return CheckReport(name, True, checked, witness)
