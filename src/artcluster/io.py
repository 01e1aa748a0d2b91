"""Delimited-text ingestion, canonical export, and report rendering.

The dialect is deliberately rigid: comma-separated, UTF-8, header row
required, '.' decimal point, no locale inference.  Floats are written
with ``repr`` (shortest round-trip form), so export -> ingest reproduces
a dataset bit for bit.  Reports are JSON documents with sorted keys and
no timestamps, so identical runs produce identical bytes; infinite
endpoints are rendered as the literal tokens "-inf" / "+inf".

A file is read once into one string.  Both parse paths resolve every
column from the header before they read a row, and then the first bad
row in file order names the error.  When the file holds no '"' and no
CR, one structured ``np.loadtxt`` call reads the model columns, the
cluster labels as raw text (or the time keys) and the header's last
column, and one comma count over the whole file checks that no line is
long.  Otherwise (a quote, CRLF line ends, a ragged row, no data rows,
or a cell ``np.loadtxt`` rejects, such as ``1_0``) the ``csv`` row path
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


def _columns(header: list[str], config: RunConfig) -> tuple[int, list[int], int]:
    """Header positions of the outcome, the covariates and the cluster or time key.

    Both parse paths call this first, so every error that the flags and
    the header decide comes before any row is read.
    """
    if config.outcome_col is None:
        raise ValueError("an outcome column is required")
    if not config.covariate_cols:
        raise ValueError("at least one covariate column is required")
    names = config.covariate_names()
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"covariate {name!r} appears twice in the model ({', '.join(names)})")
    y_idx = _column(header, config.outcome_col)
    z_idx = [_column(header, name) for name in config.covariate_cols]
    blocks = config.blocks_q is not None
    key = config.time_col if blocks else config.cluster_col
    if key is None:
        raise ValueError("blocks mode requires a time column" if blocks
                         else "a cluster column is required (or use blocks mode)")
    return y_idx, z_idx, _column(header, key)


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


def _table(v: np.ndarray, keys, config: RunConfig) -> Table:
    """A :class:`Table` from (n, 1 + d) outcome-then-covariate rows and their keys."""
    if config.blocks_q is not None:
        keys = np.asarray(keys, dtype=np.float64)
        order = np.argsort(keys, kind="stable")  # once, so each blockify finds them sorted
        v, keys = v[order], keys[order]
    Z = v[:, 1:]
    if config.intercept:
        Z = np.column_stack([np.ones(v.shape[0]), Z])
    return Table(v[:, 0].copy(), np.ascontiguousarray(Z), keys, config.covariate_names())


def _fast_table(text: str, config: RunConfig) -> Table | None:
    """Parse a plain file with one structured ``np.loadtxt`` call, or return None.

    The columns are resolved from the header first, so a bad flag or
    column raises the row path's error before any cell is read.  It
    returns None, leaving the file to the row path, on a quote or CR, no
    data rows, a cell ``loadtxt`` rejects, or a ragged line (a short one
    fails ``loadtxt``, a long one the comma total).
    """
    if '"' in text or "\r" in text:
        return None
    head, _, body = text.partition("\n")
    if not head or not body.lstrip("\n"):
        return None
    header = head.split(",")
    y_idx, z_idx, key_idx = _columns(header, config)
    blocks = config.blocks_q is not None
    width = len(header) - 1
    usecols = [y_idx, *z_idx, key_idx]
    # cluster labels keep their raw text, also when the column is a model column
    fields = [("v", "f8", (len(z_idx) + 1,)), ("key", "f8" if blocks else "O")]
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
    return _table(rows["v"], rows["key"] if blocks else rows["key"].tolist(), config)


def _row_table(text: str, config: RunConfig, path: str) -> Table:
    """Parse with ``csv.reader`` and ``float()`` cell by cell, in file order.

    After the header's columns, one loop checks each record's width and
    parses its outcome, covariate and key cells.  Errors carry the line
    the record ends on (``reader.line_num``, blank lines counted); on a
    file the fast path accepts, the result is the same.
    """
    from io import StringIO  # the stdlib module; this module shares its name

    reader = csv.reader(StringIO(text, newline=""))
    blocks = config.blocks_q is not None
    values, keys = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(1, "<header>", f"{path}: empty file, header required")
        y_idx, z_idx, key_idx = _columns(header, config)
        cells = [(y_idx, config.outcome_col), *zip(z_idx, config.covariate_cols)]
        for row in reader:
            if not row:
                continue  # tolerate a blank line
            lineno = reader.line_num
            if len(row) != len(header):
                raise ParseError(lineno, "<row>",
                                 f"line {lineno}: expected {len(header)} fields, found {len(row)}")
            values.append([_parse_float(row[idx], lineno, name) for idx, name in cells])
            keys.append(_parse_float(row[key_idx], lineno, config.time_col) if blocks
                        else row[key_idx])
    except csv.Error as exc:  # such as a cell over csv.field_size_limit()
        raise ParseError(reader.line_num, "<row>", f"line {reader.line_num}: {exc}") from None
    return _table(np.array(values, dtype=np.float64).reshape(len(values), len(cells)), keys, config)


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
