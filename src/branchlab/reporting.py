"""Deterministic report emission: JSON, CSV and aligned-table renderings.

Field order is fixed by construction, floats are printed with 12 significant
digits, and no timestamps or environment details leak in, so identical
inputs produce identical bytes.

A confirmation trajectory prints in all three formats through one row
renderer: it takes the trajectory one iteration at a time and formats each
row from the numbers the row carries, with one format string per row, so it
can stream the text as it goes (emit's write).  Its CSV header goes through
csv.writer, so a theory name with a comma or a quote is quoted there.  Other
reports go cell by cell through rows_to_csv and rows_to_table, where a
list cell joins its items with '|' and a mapping cell prints as compact JSON
with the same 12-digit floats.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Iterator, Mapping, Sequence

from .confirmation import Credences, TrajectoryIteration, TrajectoryReport
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
    if isinstance(value, dict):
        return json.dumps(_jsonable(value), separators=(",", ":"))
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


def _trajectory_text(report: TrajectoryReport, fmt: str) -> Iterator[str]:
    """A trajectory as csv, table or json text, one iteration at a time.

    A row prints its iteration, its outcome-class label (each outcome
    formatted once per report), its caring mass and its credences in theory
    order, all through one format string.  A Fraction mass floats by one int
    division, and a Credences mapping gives the floats its row was merged
    on: both are correctly rounded, so they print as float(Fraction) would;
    other credences (the iteration-0 priors) are floated by the format.  A
    TrajectoryIteration gives these numbers without building its rows.
    Every body cell is an int, a label of ';' and ':' joined numbers or a
    12-significant-digit float, so none needs CSV quoting or json escaping;
    the header goes through csv.writer, which quotes a theory name where it
    must.  A table keeps its csv text to pad once its column widths are
    known, and json prints the bytes json.dumps(records, indent=2) gives.
    """
    theories = report.theories
    fields = ["iteration", "outcome_class", "caring_mass", *(f"credence_{t}" for t in theories)]
    line = "%d,%s" + ",%.12g" * (1 + len(theories))
    labels = _Labels()

    def numbers(rows) -> Iterator[tuple]:
        if isinstance(rows, TrajectoryIteration):
            it, label = rows.iteration, ";".join([f"{labels[x]}:%d" for x in rows.outcomes])
            for counts, mass, floats in rows.printed():
                yield (it, label % counts, mass, *floats)
            return
        for row in rows:
            mass, c = row.caring_mass, row.credences
            yield (
                row.iteration,
                ";".join([f"{labels[x]}:{count}" for x, count in row.outcome_class]),
                mass.numerator / mass.denominator if isinstance(mass, Fraction) else mass,
                *(c.floats if isinstance(c, Credences) else [c[t] for t in theories]),
            )

    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        yield buf.getvalue()
        line += "\n"
        for rows in report.iterations():
            yield "".join([line % r for r in numbers(rows)])
    elif fmt == "table":
        # The widths precede every row, so the pass that measures them keeps
        # each iteration's csv text, which the cells are then padded from:
        # memory grows with the text, not with the rows.
        widths = [len(f) for f in fields]
        blocks = []
        for rows in report.iterations():
            lines = [line % r for r in numbers(rows)]
            for k, cells in enumerate(zip(*[text.split(",") for text in lines])):
                widths[k] = max(widths[k], *map(len, cells))
            blocks.append("\n".join(lines))
        padded = "  ".join(f"%-{w}s" for w in widths)
        yield (padded % tuple(fields)).rstrip() + "\n"
        for block in blocks:
            yield "".join([(padded % tuple(text.split(","))).rstrip() + "\n" for text in block.splitlines()])
    else:
        # The records json.dumps(records, indent=2) would print, with an int
        # as itself and any other number as its 12-digit cell read back.  A
        # cell in fixed point (1e-4 to 1e12, with a point) or with an exponent
        # from -5 to -307 holds a normal float, which no shorter decimal
        # reads back as, so repr keeps the cell's digits; and repr, like
        # "%g", writes a fixed point from 1e-4 up and an exponent below.  Such
        # a cell is already its float's json text; any other, such as a
        # whole number or a subnormal float, goes through json.
        width = len(fields)
        record = "  {\n" + ",\n".join(f"    {json.dumps(f).replace('%', '%%')}: %s" for f in fields) + "\n  }"
        head = "[\n"
        for rows in report.iterations():
            printed = list(numbers(rows))
            if not printed:
                continue
            cells = ",".join([line % r for r in printed]).split(",")
            cells[1::width] = [f'"{label}"' for label in cells[1::width]]
            for k in range(2, width):
                column = cells[k::width]
                plain = ",".join(column)
                if "e" in plain or plain.count(".") != len(column):  # not every cell in fixed point
                    # An exponent ends its cell, and as text "-dd" or "ddd"
                    # sorts below "308" exactly when it is below 308.
                    cells[k::width] = [
                        c if ("e" not in c and "." in c) or ("e-" in c and c[-3:] < "308") else json.dumps(float(c))
                        for c in column
                    ]
            # Given rows may hold ints, which print as themselves; every
            # number of a TrajectoryIteration is a float.
            if not isinstance(rows, TrajectoryIteration):
                for i, value in enumerate(chain.from_iterable(printed)):
                    if i % width > 1 and isinstance(value, int):
                        cells[i] = json.dumps(value)
            yield head + ",\n".join([record] * len(printed)) % tuple(cells)
            head = ",\n"
        yield "[]\n" if head == "[\n" else "\n]\n"


def _text(report, fmt: str) -> str:
    if fmt == "json":
        return dumps_stable(report.to_json_dict() if hasattr(report, "to_json_dict") else report)
    fields, rows = _as_rows(report)
    return rows_to_csv(fields, rows) if fmt == "csv" else rows_to_table(fields, rows)


def emit(report, fmt: str, write: Callable[[str], object] | None = None) -> bytes | None:
    """Serialize a report as json, csv or table bytes with stable ordering.

    Given write, the text goes to it instead, piece by piece as it is
    rendered (a trajectory one iteration at a time), and nothing is
    returned.
    """
    if fmt not in ("json", "csv", "table"):
        raise ValueError(f"unknown format {fmt!r}")
    pieces = _trajectory_text(report, fmt) if isinstance(report, TrajectoryReport) else (_text(report, fmt),)
    if write is None:
        return "".join(pieces).encode()
    for piece in pieces:
        write(piece)
    return None
