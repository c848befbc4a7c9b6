"""Deterministic report emission: JSON, CSV and aligned-table renderings.

Field order is fixed by construction, floats are printed with 12 significant
digits, and no timestamps or environment details leak in, so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any, Mapping, Sequence


def fmt_float(x) -> str:
    return format(float(x), ".12g")


def _jsonable(obj) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, (float, Fraction)):
        return float(fmt_float(obj))
    if hasattr(obj, "to_json_dict"):
        return _jsonable(obj.to_json_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_stable(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


def rows_to_csv(fieldnames: Sequence[str], rows: Sequence[Mapping]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(list(fieldnames))
    for row in rows:
        writer.writerow([_cell(row.get(name, "")) for name in fieldnames])
    return buf.getvalue()


def rows_to_table(fieldnames: Sequence[str], rows: Sequence[Mapping]) -> str:
    rendered = [[_cell(row.get(name, "")) for name in fieldnames] for row in rows]
    widths = [
        max(len(name), *(len(r[k]) for r in rendered)) if rendered else len(name)
        for k, name in enumerate(fieldnames)
    ]
    lines = ["  ".join(name.ljust(w) for name, w in zip(fieldnames, widths)).rstrip()]
    for r in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, (float, Fraction)):
        return fmt_float(value)
    if isinstance(value, (list, tuple)):
        return "|".join(_cell(v) for v in value)
    return str(value)


class _Labels(dict):
    """Outcome -> its formatted label, each formatted once."""

    def __missing__(self, x) -> str:
        label = self[x] = fmt_float(x)
        return label


def _as_rows(report) -> tuple[list[str], list[Mapping]]:
    from .confirmation import Credences, TrajectoryReport
    from .verifier import StageReport

    if isinstance(report, StageReport):
        rows = list(report.cases)
        fields: list[str] = []
        for case in rows:
            for key in case:
                if key not in fields:
                    fields.append(key)
        return fields, rows
    if isinstance(report, TrajectoryReport):
        # A Fraction mass floats by one int division, and the rows of
        # confirmation_experiment carry their credences' floats already.
        credence_fields = [f"credence_{t}" for t in report.theories]
        fields = ["iteration", "outcome_class", "caring_mass", *credence_fields]
        labels = _Labels()
        rows = []
        for row in report.rows:
            mass = row.caring_mass
            record = {
                "iteration": row.iteration,
                "outcome_class": ";".join([f"{labels[x]}:{count}" for x, count in row.outcome_class]),
                "caring_mass": mass.numerator / mass.denominator if isinstance(mass, Fraction) else mass,
            }
            c = row.credences
            credences = c.floats if isinstance(c, Credences) else [c[t] for t in report.theories]
            record.update(zip(credence_fields, credences))
            rows.append(record)
        return fields, rows
    if isinstance(report, Sequence) and not isinstance(report, (str, bytes)):
        rows = list(report)
        fields = []
        for row in rows:
            for key in row:
                if key not in fields:
                    fields.append(key)
        return fields, rows
    if isinstance(report, Mapping):
        return ["key", "value"], [{"key": k, "value": v} for k, v in report.items()]
    raise TypeError(f"no tabular form for {type(report).__name__}")


def emit(report, fmt: str) -> bytes:
    """Serialize a report as json, csv or table bytes with stable ordering."""
    if fmt == "json":
        if hasattr(report, "to_json_dict"):
            return dumps_stable(report.to_json_dict()).encode()
        from .confirmation import TrajectoryReport

        if isinstance(report, TrajectoryReport):
            fields, rows = _as_rows(report)
            return dumps_stable([{f: r.get(f, "") for f in fields} for r in rows]).encode()
        return dumps_stable(report).encode()
    if fmt == "csv":
        fields, rows = _as_rows(report)
        return rows_to_csv(fields, rows).encode()
    if fmt == "table":
        fields, rows = _as_rows(report)
        return rows_to_table(fields, rows).encode()
    raise ValueError(f"unknown format {fmt!r}")
