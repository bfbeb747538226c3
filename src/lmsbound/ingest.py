"""Plain-text table ingestion and regressor design construction.

Two table dialects are read: whitespace-delimited (.prn style) and
comma-separated.  Parsing is strict: every data row must have the same
number of columns (ragged rows are rejected with their 1-based line number)
and every token must be a finite number.  Only the first non-blank line may
be a non-numeric header, in which case it is skipped and recorded.

A ``RegressorRecipe`` turns raw columns into design rows from four term
kinds: a raw column, a product of two columns, a squared column, and a
constant.  Canonical CSV output uses shortest round-trip float formatting
and LF line endings so that re-parsing reproduces the array bit for bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .moments import DataMatrix, EmptyData


class ParseError(ValueError):
    """A token could not be read as a number; carries line/column context."""

    def __init__(self, line: int, column: int, token: str):
        self.line = line
        self.column = column
        self.token = token
        super().__init__(f"line {line}, column {column}: {token!r} is not a number")


class RaggedRow(ValueError):
    """A data row's column count differs from the first data row's."""

    def __init__(self, line: int, expected: int, got: int):
        self.line = line
        self.expected = expected
        self.got = got
        super().__init__(f"line {line}: expected {expected} columns, got {got}")


class ColumnOutOfRange(IndexError):
    """A recipe or response column index exceeds the table width."""


@dataclass
class RawTable:
    values: np.ndarray
    header_skipped: bool = False
    source: str = ""

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def _split(line: str, delimiter: Optional[str]) -> list[str]:
    if delimiter is None:
        return line.split()
    return [tok.strip() for tok in line.split(delimiter)]


def _is_number(token: str) -> bool:
    try:
        return bool(np.isfinite(float(token)))
    except ValueError:
        return False


def parse_table(source: Union[str, Path]) -> RawTable:
    """Parse a whitespace- or comma-delimited numeric table.

    ``source`` is a path; a ".csv" extension means comma-delimited, any
    other whitespace-delimited.  Returns the numeric rows; a single leading
    non-numeric line is treated as a header.
    """
    path = Path(source)
    delimiter = "," if path.suffix.lower() == ".csv" else None
    text = path.read_text()
    return parse_table_text(text, delimiter=delimiter, source=str(path))


def parse_table_text(text: str, delimiter: Optional[str] = None,
                     source: str = "<text>") -> RawTable:
    rows: list[list[float]] = []
    header_skipped = False
    width: Optional[int] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = _split(line, delimiter)
        if not rows and not header_skipped and not all(_is_number(t) for t in tokens):
            header_skipped = True
            continue
        parsed: list[float] = []
        for col, token in enumerate(tokens, start=1):
            if not _is_number(token):
                raise ParseError(lineno, col, token)
            parsed.append(float(token))
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise RaggedRow(lineno, width, len(parsed))
        rows.append(parsed)
    if not rows:
        raise EmptyData(f"{source}: no data rows")
    return RawTable(np.array(rows, dtype=float), header_skipped, source)


def write_canonical_csv(values: np.ndarray, path: Union[str, Path]) -> None:
    """Write rows as CSV with shortest round-trip floats and LF endings."""
    values = np.asarray(values, dtype=float)
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(values)]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


_TERM_RE = re.compile(
    r"^(?:column\((\d+)\)|square\((\d+)\)|product\((\d+)\s*,\s*(\d+)\)"
    r"|constant\(([-+0-9.eE]+)\))$")


@dataclass(frozen=True)
class RecipeTerm:
    kind: str                 # "column" | "square" | "product" | "constant"
    i: int = 0
    j: int = 0
    value: float = 1.0

    def column_indices(self) -> tuple[int, ...]:
        if self.kind == "column" or self.kind == "square":
            return (self.i,)
        if self.kind == "product":
            return (self.i, self.j)
        return ()

    def evaluate(self, table: np.ndarray) -> np.ndarray:
        if self.kind == "column":
            return table[:, self.i]
        if self.kind == "square":
            return table[:, self.i] ** 2
        if self.kind == "product":
            return table[:, self.i] * table[:, self.j]
        return np.full(table.shape[0], self.value)


@dataclass(frozen=True)
class RegressorRecipe:
    """Ordered design-column constructors over a raw table."""

    terms: tuple[RecipeTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("recipe needs at least one term")

    @classmethod
    def parse(cls, text: str) -> "RegressorRecipe":
        """Parse "column(0), product(0,1), square(1), constant(1)" syntax."""
        # Split on commas not inside parens, so product(i,j) stays whole.
        pieces, depth, cur = [], 0, ""
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                pieces.append(cur)
                cur = ""
            else:
                cur += ch
        pieces.append(cur)
        parsed = []
        for piece in pieces:
            piece = piece.strip()
            if not piece:
                continue
            m = _TERM_RE.match(piece)
            if not m:
                raise ValueError(f"bad recipe term {piece!r}")
            if m.group(1) is not None:
                parsed.append(RecipeTerm("column", i=int(m.group(1))))
            elif m.group(2) is not None:
                parsed.append(RecipeTerm("square", i=int(m.group(2))))
            elif m.group(3) is not None:
                parsed.append(RecipeTerm("product", i=int(m.group(3)), j=int(m.group(4))))
            else:
                parsed.append(RecipeTerm("constant", value=float(m.group(5))))
        return cls(tuple(parsed))

    def describe(self) -> str:
        out = []
        for t in self.terms:
            if t.kind == "column":
                out.append(f"column({t.i})")
            elif t.kind == "square":
                out.append(f"square({t.i})")
            elif t.kind == "product":
                out.append(f"product({t.i},{t.j})")
            else:
                out.append(f"constant({t.value:g})")
        return ", ".join(out)


def build_design(table: RawTable, recipe: RegressorRecipe,
                 response_col: Optional[int] = None) -> DataMatrix:
    """Evaluate a recipe against a raw table, optionally attaching responses."""
    values = table.values
    n_cols = table.n_cols
    for term in recipe.terms:
        for idx in term.column_indices():
            if not 0 <= idx < n_cols:
                raise ColumnOutOfRange(
                    f"recipe term references column {idx}, table has {n_cols}")
    if response_col is not None and not 0 <= response_col < n_cols:
        raise ColumnOutOfRange(
            f"response column {response_col} out of range, table has {n_cols}")
    rows = np.column_stack([term.evaluate(values) for term in recipe.terms])
    responses = values[:, response_col] if response_col is not None else None
    return DataMatrix(rows, responses)
