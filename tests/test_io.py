"""Ingestion details and report rendering."""

import json

import numpy as np
import pytest

from artcluster import MissingColumn, ParseError
from artcluster.io import (
    RunConfig,
    export_csv,
    ingest,
    render_report,
    resolve_contrast,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASIC = RunConfig(cluster_col="g", outcome_col="y", covariate_cols=("x",))


class TestIngest:
    def test_smoke_two_clusters(self, tmp_path):
        path = write(tmp_path, "g,y,x\na,1,0.5\na,2,1.5\nb,3,2.5\nb,4,3.5\na,5,4.5\nb,6,5.5\n")
        table = ingest(path, BASIC)
        data = table.dataset()
        assert data.q == 2
        assert table.names == ["x"]
        assert data.sizes.tolist() == [3, 3]

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path, "g,y,x\na,1,2\nb,3,4\n")
        with pytest.raises(MissingColumn) as err:
            ingest(path, RunConfig(cluster_col="g", outcome_col="y", covariate_cols=("z",)))
        assert "'z'" in str(err.value)

    def test_parse_error_location(self, tmp_path):
        path = write(tmp_path, "g,y,x\na,1,2\nb,bad,4\n")
        with pytest.raises(ParseError) as err:
            ingest(path, BASIC)
        assert err.value.line == 3
        assert err.value.column == "y"

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "g,y,x\na,1,2\nb,3\n")
        with pytest.raises(ParseError):
            ingest(path, BASIC)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ParseError):
            ingest(path, BASIC)

    def test_intercept_column_prepended(self, tmp_path):
        path = write(tmp_path, "g,y,x\na,1,2\na,2,3\nb,3,4\nb,4,5\n")
        config = RunConfig(
            cluster_col="g", outcome_col="y", covariate_cols=("x",), intercept=True
        )
        table = ingest(path, config)
        data = table.dataset()
        assert table.names == ["intercept", "x"]
        assert np.all(data.covariates[:, 0] == 1.0)

    def test_trailing_blank_line_tolerated(self, tmp_path):
        path = write(tmp_path, "g,y,x\na,1,2\nb,3,4\n\n")
        data = ingest(path, BASIC).dataset()
        assert data.n == 2

    def test_round_trip_exact(self, tmp_path, rng):
        rows = ["g,y,x"]
        for j in range(3):
            for _ in range(4):
                rows.append(
                    f"c{j},{float(rng.standard_normal())!r},{float(rng.standard_normal())!r}"
                )
        src = write(tmp_path, "\n".join(rows) + "\n")
        table = ingest(src, BASIC)
        data = table.dataset()
        out = str(tmp_path / "out.csv")
        export_csv(data, table.names, out, cluster_name="g", outcome_name="y")
        again = ingest(out, BASIC).dataset()
        assert np.array_equal(data.outcomes, again.outcomes)
        assert np.array_equal(data.covariates, again.covariates)
        assert data.labels == again.labels


class TestResolveContrast:
    def test_unit_vector_shorthand(self):
        config = RunConfig(covariate_cols=("a", "b"), coefficient="b")
        c = resolve_contrast(config, ["a", "b"])
        assert c.tolist() == [0.0, 1.0]

    def test_explicit_vector(self):
        config = RunConfig(covariate_cols=("a", "b"), contrast=(1.0, -1.0))
        assert resolve_contrast(config, ["a", "b"]).tolist() == [1.0, -1.0]

    def test_unknown_coefficient(self):
        config = RunConfig(covariate_cols=("a",), coefficient="zz")
        with pytest.raises(ValueError):
            resolve_contrast(config, ["a"])

    def test_both_given(self):
        config = RunConfig(covariate_cols=("a",), contrast=(1.0,), coefficient="a")
        with pytest.raises(ValueError):
            resolve_contrast(config, ["a"])

    def test_neither_given(self):
        with pytest.raises(ValueError):
            resolve_contrast(RunConfig(covariate_cols=("a",)), ["a"])


class TestRenderReport:
    def test_infinity_tokens(self):
        text = render_report(
            "ci",
            {"alpha": 0.1},
            {"lower": -np.inf, "upper": np.inf, "mid": 2.0},
        )
        doc = json.loads(text)
        assert doc["result"]["lower"] == "-inf"
        assert doc["result"]["upper"] == "+inf"
        assert doc["result"]["mid"] == 2.0

    def test_numpy_types_coerced(self):
        text = render_report(
            "test",
            {"n": np.int64(3)},
            {"arr": np.array([1.5, np.inf]), "flag": np.bool_(True)},
        )
        doc = json.loads(text)
        assert doc["config"]["n"] == 3
        assert doc["result"]["arr"] == [1.5, "+inf"]
        assert doc["result"]["flag"] is True

    def test_deterministic_key_order(self):
        a = render_report("x", {"b": 1, "a": 2}, {"z": 1, "y": 2})
        b = render_report("x", {"a": 2, "b": 1}, {"y": 2, "z": 1})
        assert a == b
