"""Machine-readable verification outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named verification.

    ``status`` is "pass" exactly when every recorded sub-assertion
    holds; the raw assertions are kept so a report can be audited
    without rerunning the check.
    """

    check: str
    params: dict
    status: str
    assertions: tuple[tuple[str, bool], ...] = ()
    witnesses: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    @staticmethod
    def from_assertions(
        check: str,
        params: dict,
        assertions: list[tuple[str, bool]],
        witnesses: list | None = None,
        residuals: list | None = None,
    ) -> "CheckReport":
        status = "pass" if all(ok for _, ok in assertions) else "fail"
        return CheckReport(
            check=check,
            params=dict(params),
            status=status,
            assertions=tuple(assertions),
            witnesses=witnesses or [],
            residuals=residuals or [],
        )

    @property
    def passed(self) -> bool:
        return self.status == "pass"

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
