"""Deterministic report emission: JSON, CSV and aligned-table renderings.

Field order is fixed by construction, floats are printed with 12 significant
digits, and no timestamps or environment details leak in, so identical
inputs produce identical bytes.

A confirmation trajectory prints in all three formats through one row
renderer: it walks the rows once and formats each from the numbers the row
carries, with one format string per row.  Its CSV header goes through
csv.writer, so a theory name with a comma or a quote is quoted there.  Other
reports go cell by cell through rows_to_csv and rows_to_table.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .confirmation import Credences, TrajectoryReport
from .verifier import StageReport


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
    return _table(fieldnames, [[_cell(row.get(name, "")) for name in fieldnames] for row in rows])


def _table(fieldnames: Sequence[str], rendered: Sequence[Sequence[str]]) -> str:
    """Rendered cells left-aligned under their field names, two spaces apart."""
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
    if isinstance(report, StageReport):
        rows = list(report.cases)
        fields: list[str] = []
        for case in rows:
            for key in case:
                if key not in fields:
                    fields.append(key)
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


def _render_trajectory(report, fmt: str) -> str:
    """A trajectory as csv, table or json text, each row formatted in one go.

    A row prints its iteration, its outcome-class label (each outcome
    formatted once per report), its caring mass and its credences in theory
    order.  A Fraction mass floats by one int division, and a Credences
    mapping gives the floats its row was merged on: both are correctly
    rounded, so they print as float(Fraction) would.  Other credences (the
    iteration-0 priors) are floated by the format.  Every body cell is an
    int, a label of ';' and ':' joined numbers or a 12-significant-digit
    float, so none needs CSV quoting; the header goes through csv.writer,
    which quotes a theory name where it must.
    """
    theories = report.theories
    fields = ["iteration", "outcome_class", "caring_mass", *(f"credence_{t}" for t in theories)]
    line = "%d,%s" + ",%.12g" * (1 + len(theories))
    labels = _Labels()
    rows = []
    for row in report.rows:
        mass, c = row.caring_mass, row.credences
        rows.append((
            row.iteration,
            ";".join([f"{labels[x]}:{count}" for x, count in row.outcome_class]),
            mass.numerator / mass.denominator if isinstance(mass, Fraction) else mass,
            *(c.floats if isinstance(c, Credences) else [c[t] for t in theories]),
        ))
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        line += "\n"
        return buf.getvalue() + "".join([line % r for r in rows])
    if fmt == "table":
        return _table(fields, [(line % r).split(",") for r in rows])
    # json: a number prints as its 12-digit cell read back, an int as itself.
    records = []
    for r in rows:
        cells = (line % r).split(",")
        records.append({f: v if isinstance(v, (int, str)) else float(cell)
                        for f, v, cell in zip(fields, r, cells)})
    return json.dumps(records, indent=2) + "\n"


def emit(report, fmt: str) -> bytes:
    """Serialize a report as json, csv or table bytes with stable ordering."""
    if fmt not in ("json", "csv", "table"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(report, TrajectoryReport):
        return _render_trajectory(report, fmt).encode()
    if fmt == "json":
        if hasattr(report, "to_json_dict"):
            return dumps_stable(report.to_json_dict()).encode()
        return dumps_stable(report).encode()
    fields, rows = _as_rows(report)
    return (rows_to_csv(fields, rows) if fmt == "csv" else rows_to_table(fields, rows)).encode()
