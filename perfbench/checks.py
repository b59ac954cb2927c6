"""What each op must print: the values read from its output and the
comparison with the recorded reference.

Only values that define the answer are compared, never timing fields, node
counts or witness strengths, so a faster solver or a different (still
valid) witness passes while a wrong value fails.
"""

from __future__ import annotations

import json


def _weight(broadcast):
    return None if broadcast is None else broadcast["weight"]


def observe(check: str, stdout: str) -> dict:
    """Reference-comparable values of one op's JSON output."""
    if check == "search":
        lines = [line for line in stdout.splitlines() if line.strip()]
        s = json.loads(lines[-1])
        return {k: s[k] for k in ("trees", "solved", "not_applicable",
                                  "budget_exceeded", "violations")}
    data = json.loads(stdout)
    if check == "bounds":
        r = data["report"]
        formula = r["formula"]
        return {
            "n": r["n"],
            "lower": r["lower"],
            "upper": r["upper"],
            "conjectured": r["conjectured"],
            "formula": None if formula is None else [formula["name"], formula["value"]],
            "exact": r["exact"],
            "witness_lower": _weight(r["witness_lower"]),
            "witness_exact": _weight(r["witness_exact"]),
        }
    if check == "analyze":
        return {
            "n": data["n"],
            "shapes": data["shapes"],
            "leaves": len(data["leaves"]),
            "branch_count": data["branch_count"],
            "branch01_count": data["branch01_count"],
            "deg2_internal_count": data["deg2_internal_count"],
            "interior_order": data["interior"]["order"],
            "interior_independence": data["interior"]["independence"],
        }
    if check == "witness":
        return {"weight": data["weight"], "bn_independent": data["bn_independent"]}
    if check == "verify":
        return {"valid": data["valid"], "bn_independent": data["bn_independent"],
                "weight": data["broadcast"]["weight"]}
    raise ValueError(f"unknown check {check!r}")


def mismatches(observed: dict, expected: dict) -> list:
    """Keys whose observed value differs from the reference, as text."""
    return [f"{k}: got {observed.get(k)!r}, want {expected[k]!r}"
            for k in sorted(expected) if observed.get(k) != expected[k]]
