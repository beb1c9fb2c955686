"""Self-describing verification report records shared by the pipeline and CLI."""
from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class CheckResult:
    """One verified statement: measured margin against a stated tolerance."""

    name: str
    detail: str
    tolerance: float
    margin: float  # tolerance minus measured error; nonnegative means pass
    passed: bool

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"[{flag}] {self.name}: {self.detail} "
                f"(tolerance {self.tolerance:.3g}, margin {self.margin:.3g})")


def check_error(name: str, detail: str, error: float, tolerance: float) -> CheckResult:
    """A check of the form |error| <= tolerance."""
    return CheckResult(name=name, detail=detail, tolerance=tolerance,
                       margin=tolerance - error, passed=error <= tolerance)


def check_flag(name: str, detail: str, ok: bool) -> CheckResult:
    return CheckResult(name=name, detail=detail, tolerance=0.0,
                       margin=0.0 if ok else -1.0, passed=bool(ok))


def write_json(path, payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True) + "\n"`` to ``path``.

    A top-level value that is an iterator is written as a list, one item
    encoded at a time, so an n x n matrix is never held whole as Python
    floats and as text at once.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for i, key in enumerate(sorted(payload)):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            value = payload[key]
            if isinstance(value, Iterator):
                fh.write("[")
                for j, item in enumerate(value):
                    fh.write(f"{', ' if j else ''}{json.dumps(item, sort_keys=True)}")
                fh.write("]")
            else:
                fh.write(json.dumps(value, sort_keys=True))
        fh.write("}\n")


def write_report(checks, path) -> None:
    payload = [asdict(c) for c in checks]
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def format_report(checks) -> str:
    return "\n".join(c.line() for c in checks)
