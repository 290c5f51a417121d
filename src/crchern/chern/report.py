"""Machine-readable verification outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named verification.

    The verdict is not stored: ``status`` is read off the assertions,
    "pass" exactly when every recorded sub-assertion holds (an empty
    list passes), so a report cannot disagree with its own evidence.
    The raw assertions are kept so a report can be audited without
    rerunning the check.
    """

    check: str
    params: dict
    assertions: list[tuple[str, bool]] = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.assertions)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "assertions": [
                {"name": name, "ok": ok} for name, ok in self.assertions
            ],
            "witnesses": self.witnesses,
            "residuals": self.residuals,
        }
