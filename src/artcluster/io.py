"""Delimited-text ingestion, canonical export, and report rendering.

The dialect is deliberately rigid: comma-separated, UTF-8, header row
required, '.' decimal point, no locale inference.  Floats are written
with ``repr`` (shortest round-trip form), so export -> ingest reproduces
a dataset bit for bit.  Reports are JSON documents with sorted keys and
no timestamps, so identical runs produce identical bytes; infinite
endpoints are rendered as the literal tokens "-inf" / "+inf".

A file is read once into one string.  When it holds no '"' and no CR,
one structured ``np.loadtxt`` call reads the model columns, the cluster
labels as raw text (or the time keys) and the header's last column, and
one comma count over the whole file checks that no line is long.
Otherwise (a quote, CRLF line ends, a ragged row, no data rows, or a
cell ``np.loadtxt`` rejects, such as ``1_0``) the ``csv`` row path
parses the same string with ``float()`` per cell.  Both paths give the
same values, and a bad cell is reported by line and column.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from artcluster.blocks import blockify
from artcluster.errors import MissingColumn, ParseError
from artcluster.model import ClusteredDataset, LinearHypothesis, canonicalize

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "RunConfig",
    "Table",
    "export_csv",
    "ingest",
    "render_report",
    "resolve_contrast",
]

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved command configuration (everything a report must echo)."""

    input_path: str | None = None
    cluster_col: str | None = None
    outcome_col: str | None = None
    covariate_cols: tuple = ()
    intercept: bool = False
    contrast: tuple | None = None
    coefficient: str | None = None
    null_value: float = 0.0
    alpha: float = 0.05
    group_mode: str = "auto"
    draws: int = 1000
    seed: int = 0
    variant: str = "unstudentized"
    scaling: str = "root_nj"
    blocks_q: int | tuple | None = None  # tuple when sweeping block counts
    time_col: str | None = None

    def covariate_names(self) -> list[str]:
        names = list(self.covariate_cols)
        if self.intercept:
            names = ["intercept"] + names
        return names


def resolve_contrast(config: RunConfig, names: list[str]) -> np.ndarray:
    """Turn the configured contrast (vector or coefficient name) into c."""
    if config.contrast is not None and config.coefficient is not None:
        raise ValueError("give either a contrast vector or a coefficient name, not both")
    if config.contrast is not None:
        c = np.asarray(config.contrast, dtype=np.float64)
        if c.shape[0] != len(names):
            raise ValueError(
                f"contrast has {c.shape[0]} entries but the model has "
                f"{len(names)} covariates ({', '.join(names)})"
            )
        return LinearHypothesis(c, 0.0).contrast  # finite and not zero, for `test` and `ci` alike
    if config.coefficient is not None:
        if config.coefficient not in names:
            raise ValueError(
                f"coefficient {config.coefficient!r} is not among the model "
                f"covariates ({', '.join(names)})"
            )
        c = np.zeros(len(names), dtype=np.float64)
        c[names.index(config.coefficient)] = 1.0
        return c
    raise ValueError("a contrast vector or a coefficient name is required")


# ------------------------------------------------------------------ #
# CSV
# ------------------------------------------------------------------ #


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _column(header: list[str], name: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise MissingColumn(
            f"column {name!r} not found in header ({', '.join(header)})"
        ) from None


def _model_columns(header: list[str], config: RunConfig) -> tuple[int, list[int]]:
    if config.outcome_col is None:
        raise ValueError("an outcome column is required")
    if not config.covariate_cols:
        raise ValueError("at least one covariate column is required")
    names = config.covariate_names()
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"covariate {name!r} appears twice in the model ({', '.join(names)})")
    return _column(header, config.outcome_col), [
        _column(header, name) for name in config.covariate_cols
    ]


def _key_column(header: list[str], config: RunConfig) -> int:
    if config.blocks_q is not None:
        if config.time_col is None:
            raise ValueError("blocks mode requires a time column")
        return _column(header, config.time_col)
    if config.cluster_col is None:
        raise ValueError("a cluster column is required (or use blocks mode)")
    return _column(header, config.cluster_col)


def _parse_float(cell: str, lineno: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(
            lineno, column, f"line {lineno}, column {column!r}: not a number: {cell!r}"
        ) from None


@dataclass(frozen=True)
class Table:
    """The model columns of one input file, parsed but not yet clustered.

    ``keys`` holds the cluster labels, or in blocks mode the time keys with
    the rows in stable time order; ``names`` are the covariate names, intercept included.
    """

    outcomes: np.ndarray
    covariates: np.ndarray
    keys: list | np.ndarray
    names: list[str]

    def dataset(self, blocks_q: int | None = None) -> ClusteredDataset:
        """Group rows by cluster label, or by ``blocks_q`` consecutive time blocks."""
        if blocks_q is None:
            return canonicalize(self.keys, self.outcomes, self.covariates)
        return blockify(self.keys, self.outcomes, self.covariates, blocks_q)


def _table(y: np.ndarray, Z: np.ndarray, keys, config: RunConfig) -> Table:
    if config.blocks_q is not None:
        order = np.argsort(keys, kind="stable")  # once, so each blockify finds them sorted
        y, Z, keys = y[order], Z[order], keys[order]
    if config.intercept:
        Z = np.column_stack([np.ones(y.shape[0]), Z])
    return Table(y, Z, keys, config.covariate_names())


def _fast_table(text: str, config: RunConfig) -> Table | None:
    """Parse a plain file with one structured ``np.loadtxt`` call, or return None.

    It returns None, leaving the file to the row path, on a quote or CR,
    no data rows, a cell ``loadtxt`` rejects, or a ragged line (a short
    one fails ``loadtxt``, a long one the comma total).  A bad column
    raises the row path's error, in its order: model columns before any
    cell (unless a line is ragged), the cluster or time column after.
    """
    if '"' in text or "\r" in text:
        return None
    head, _, body = text.partition("\n")
    header = head.split(",")
    width = len(header) - 1
    if not head or not body.lstrip("\n"):
        return None
    try:
        y_idx, z_idx = _model_columns(header, config)
    except (ValueError, MissingColumn):
        if any(line.count(",") != width for line in body.split("\n") if line):
            return None
        raise
    blocks = config.blocks_q is not None
    key = config.time_col if blocks else config.cluster_col
    usecols = [y_idx, *z_idx]
    fields = [("v", "f8", (len(usecols),))]
    if key in header:  # cluster labels keep their raw text, also when a model column
        usecols.append(header.index(key))
        fields.append(("key", "f8" if blocks else "O"))
    if width not in usecols:
        usecols.append(width)
        fields.append(("end", "U1"))  # read only so that a short line fails
    try:
        rows = np.loadtxt(
            body.split("\n"), delimiter=",", comments=None, usecols=usecols, dtype=fields, ndmin=1
        )
    except ValueError:
        return None
    if body.count(",") != width * rows.shape[0]:
        return None
    _key_column(header, config)  # raises when the key column is missing
    v, keys = rows["v"], rows["key"].copy() if blocks else rows["key"].tolist()
    return _table(v[:, 0].copy(), v[:, 1:].copy(), keys, config)


def _row_table(text: str, config: RunConfig, path: str) -> Table:
    """Parse with ``csv.reader`` and ``float()`` cell by cell.

    Errors carry the reader's line and column, blank lines counted; on a
    file the fast path accepts, the result is the same.
    """
    from io import StringIO  # the stdlib module; this module shares its name

    reader = csv.reader(StringIO(text, newline=""))
    rows = []
    try:
        header = next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate a trailing blank line
            if len(row) != len(header):
                raise ParseError(
                    lineno,
                    "<row>",
                    f"line {lineno}: expected {len(header)} fields, found {len(row)}",
                )
            rows.append((lineno, row))
    except StopIteration:
        raise ParseError(1, "<header>", f"{path}: empty file, header required")
    except csv.Error as exc:  # such as a cell over csv.field_size_limit()
        raise ParseError(reader.line_num, "<row>", f"line {reader.line_num}: {exc}") from None

    y_idx, z_idx = _model_columns(header, config)
    n = len(rows)
    y = np.empty(n, dtype=np.float64)
    Z = np.empty((n, len(z_idx)), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        y[i] = _parse_float(row[y_idx], lineno, config.outcome_col)
        for k, idx in enumerate(z_idx):
            Z[i, k] = _parse_float(row[idx], lineno, config.covariate_cols[k])

    key_idx = _key_column(header, config)
    if config.blocks_q is not None:
        keys = np.array(
            [_parse_float(row[key_idx], lineno, config.time_col) for lineno, row in rows]
        )
    else:
        keys = [row[key_idx] for _, row in rows]
    return _table(y, Z, keys, config)


def ingest(path: str, config: RunConfig) -> Table:
    """Read a delimited file once and parse its model columns.

    :meth:`Table.dataset` clusters the result.  Blocks mode
    (``config.blocks_q`` set) keys the rows by the parsed time column,
    regular mode by the cluster column's labels.
    """
    text = _read_text(path)
    table = _fast_table(text, config)
    return _row_table(text, config, path) if table is None else table


def export_csv(
    data: ClusteredDataset,
    names: list[str],
    path: str,
    *,
    cluster_name: str = "cluster",
    outcome_name: str = "outcome",
) -> None:
    """Write a dataset in canonical row order; floats round-trip exactly."""
    if len(names) != data.d_z:
        raise ValueError("need one name per covariate column")
    labels = data.row_labels()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([cluster_name, outcome_name, *names])
        for i in range(data.n):
            writer.writerow(
                [str(labels[i]), repr(float(data.outcomes[i]))]
                + [repr(float(v)) for v in data.covariates[i]]
            )


# ------------------------------------------------------------------ #
# Reports
# ------------------------------------------------------------------ #


def _jsonable(obj):
    """Convert numpy values into plain JSON types.

    Infinities become the tokens "-inf" / "+inf".
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if x == float("inf"):
            return "+inf"
        if x == float("-inf"):
            return "-inf"
        return x
    return obj


def render_report(command: str, config: RunConfig | dict, result: dict) -> str:
    """Serialize one run as a stable JSON document (sorted keys, LF)."""
    cfg = asdict(config) if isinstance(config, RunConfig) else dict(config)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "config": _jsonable(cfg),
        "result": _jsonable(result),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
