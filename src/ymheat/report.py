"""Machine-readable JSON and CSV report emission.

Inequality rows always carry (name, lhs, rhs, margin, tol, verdict).
JSON floats are written by ``json`` (the shortest repr that reads back
to the same float) and CSV floats with 17 significant digits, so reruns
of an identical configuration produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["emit_json", "emit_csv", "check_row", "all_passed"]


def check_row(name: str, lhs: float, rhs: float, tol: float,
              applicable: bool = True) -> dict:
    """An inequality check lhs <= rhs within slack tol; a check whose
    premise fails is "not-applicable", whatever its margin."""
    margin = rhs - lhs
    return {
        "name": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "margin": float(margin),
        "tol": float(tol),
        "verdict": ("not-applicable" if not applicable
                    else "pass" if margin >= -tol else "fail"),
    }


def all_passed(rows) -> bool:
    """No row failed (a not-applicable row does not count)."""
    return all(r["verdict"] != "fail" for r in rows)


def emit_json(results: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def emit_csv(columns, rows, path) -> None:
    """Write rows (sequences aligned with `columns`) with stable order;
    floats with 17 significant digits, other values as `str` gives them."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                             for v in row) + "\n")
