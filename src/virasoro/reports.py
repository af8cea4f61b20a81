"""Verification reports shared by all sweep-style checks.

A report is deterministic data: fixed check name, stringified parameters,
pass/fail status, the number of identity instances examined, and (on failure
only) the first counterexample in the sweep's canonical order.
"""

from __future__ import annotations

import shlex
from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
INPUT_ERROR = "input_error"


class VerificationReport(NamedTuple):
    check_name: str
    parameters: dict
    status: str
    checked_count: int
    counterexample: dict | None = None

    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        record = {
            "check_name": self.check_name,
            "parameters": {key: str(value) for key, value in self.parameters.items()},
            "status": self.status,
            "checked_count": self.checked_count,
        }
        if self.counterexample is not None:
            record["counterexample"] = self.counterexample
        return record

    def to_text(self) -> str:
        tokens = [self.status.upper(), self.check_name]
        for key, value in sorted(self.parameters.items()):
            tokens.append(f"{key}={shlex.quote(str(value))}")
        tokens.append(f"checked_count={self.checked_count}")
        if self.counterexample is not None:
            for key, value in _flatten(self.counterexample):
                tokens.append(f"counterexample.{key}={shlex.quote(str(value))}")
        return " ".join(tokens)


def _flatten(record: dict, prefix: str = ""):
    for key in sorted(record):
        value = record[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{name}.")
        else:
            yield name, value


def first_counterexample(check_name: str, parameters: dict, outcomes) -> VerificationReport:
    """The report of a sweep whose instances yield their outcomes in canonical order.

    Each outcome is None for an instance that holds, or its counterexample
    record.  Instances are counted up to the first counterexample, where the
    sweep stops: outcomes is consumed lazily and never past that point.
    """
    checked, found = 0, None
    for checked, found in enumerate(outcomes, start=1):
        if found is not None:
            break
    return sweep_report(check_name, parameters, checked, found)


def sweep_report(check_name: str, parameters: dict, checked_count: int,
                 found: dict | None = None) -> VerificationReport:
    """The report of a sweep that examined checked_count instances in canonical order.

    found is the counterexample record of the last instance examined, or
    None when every instance held.
    """
    return VerificationReport(check_name, parameters, PASS if found is None else FAIL,
                              checked_count, found)


def mismatch(indices: dict, expected, actual, render=str, **extra) -> dict | None:
    """None when the two sides agree, else their counterexample record."""
    if actual == expected:
        return None
    return counterexample(indices, expected=render(expected), actual=render(actual), **extra)


def counterexample(indices: dict, expected: str, actual: str, **extra) -> dict:
    """Counterexample record with every value in exact text form."""
    return {"indices": {key: str(value) for key, value in indices.items()},
            "expected": expected, "actual": actual, **extra}
