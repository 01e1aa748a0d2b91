"""Ingestion details and report rendering."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from artcluster import MissingColumn, ParseError, blockify
from artcluster.cli import main as cli_main
from artcluster.errors import DuplicateTimeKeyWarning
from artcluster.io import (
    RunConfig,
    Table,
    _fast_table,
    _read_text,
    _row_table,
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

    @pytest.mark.parametrize(
        "argv, text, column",
        [
            (
                ["--cluster", "g"],
                "g,y,x\na,1,2\n\nb,bad,4\nc,3,1\n",
                "y",
            ),
            (
                ["--blocks", "2", "--time", "t"],
                "t,y,x\n1,1,2\n\nzz,2,4\n3,3,1\n4,5,2\n",
                "t",
            ),
        ],
        ids=["cluster-value", "blocks-time-key"],
    )
    def test_bad_cell_after_blank_line_names_its_line(self, tmp_path, capsys, argv, text, column):
        path = write(tmp_path, text)
        code = cli_main(
            ["test", "--input", path, "--outcome", "y", "--covariates", "x", "--coef", "x", *argv]
        )
        assert code == 3
        assert f"line 4, column '{column}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            (RunConfig(cluster_col="g", covariate_cols=("x",)), "an outcome column is required"),
            (RunConfig(cluster_col="g", outcome_col="y"),
             "at least one covariate column is required"),
        ],
        ids=["outcome", "covariates"],
    )
    def test_model_columns_required(self, tmp_path, config, message):
        path = write(tmp_path, "g,y,x\na,1,2\nb,3,4\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ingest(path, config)

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

    def test_export_needs_one_name_per_covariate(self, tmp_path):
        data = ingest(write(tmp_path, "g,y,x\na,1,2\nb,3,4\n"), BASIC).dataset()
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="^need one name per covariate column$"):
            export_csv(data, ["x", "z"], str(out))
        assert not out.exists()


# Number cells that float() and np.loadtxt both accept, and cells that only
# float() accepts, or neither does; a quoted cell sends the file to the row path.
PLAIN_CELLS = (" 1.0", "1e400", "nan", "-nan", "inf", "-0.0", "0.1", "1e-320", "\u30001",
               "+.5", "Infinity")
ODD_CELLS = ("1_0", "١٢", "", "1.5e", "2#c", "0x1p3", '"2.5"')
PLAIN_LABELS = ("a", "b", " a", "", "c#")
CONFIGS = (
    RunConfig(cluster_col="g", outcome_col="y", covariate_cols=("x",)),
    RunConfig(cluster_col="g", outcome_col="y", covariate_cols=("x", "t"), intercept=True),
    RunConfig(outcome_col="y", covariate_cols=("x",), blocks_q=2, time_col="t"),
    RunConfig(outcome_col="y", covariate_cols=("x", "y"), blocks_q=2, time_col="t",
              intercept=True),
    RunConfig(outcome_col="y", covariate_cols=("x",), blocks_q=2),
    RunConfig(cluster_col="h", outcome_col="y", covariate_cols=("x",)),
    RunConfig(cluster_col="h", outcome_col="y", covariate_cols=("x", "x")),
    RunConfig(outcome_col="y", covariate_cols=("x", "w"), blocks_q=2),
    RunConfig(cluster_col="x", outcome_col="y", covariate_cols=("t", "x")),
    RunConfig(outcome_col="y", covariate_cols=("x",), blocks_q=2, time_col="h"),
)


@st.composite
def csv_texts(draw):
    """CSV text over columns g, t, y, x; half the files also get odd cells,
    ragged rows, whitespace-only lines, a quoted label or CRLF line ends."""
    odd = draw(st.booleans())
    header = draw(st.permutations(["g", "t", "y", "x"]))
    cells = st.one_of(st.floats().map(repr),
                      st.sampled_from(PLAIN_CELLS + (ODD_CELLS if odd else ())))
    labels = st.sampled_from(PLAIN_LABELS + (('"a,b"',) if odd else ()))
    shapes = ["row", "row", "row", "blank"]
    if odd:
        shapes += ["extra", "trailing-comma", "short", "spaces"]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(labels) if name == "g" else draw(cells) for name in header]
        shape = draw(st.sampled_from(shapes))
        if shape == "extra":
            row.append("1")
        elif shape == "trailing-comma":
            row.append("")
        elif shape == "short":
            row.pop()
        elif shape == "blank":
            row = []
        elif shape == "spaces":
            row = ["  "]
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n"] if odd else ["\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


def outcome(parse):
    """What ``parse()`` returns or raises, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse()
        except Exception as exc:  # compared by type and message below
            return exc


def assert_same_outcome(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, Exception):
        assert str(got) == str(expected)
        if isinstance(expected, ParseError):
            assert (got.line, got.column) == (expected.line, expected.column)
        return
    for name in ("outcomes", "covariates"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert type(got.keys) is type(expected.keys)
    if isinstance(expected.keys, np.ndarray):
        assert got.keys.dtype == expected.keys.dtype
        assert np.array_equal(got.keys.view(np.int64), expected.keys.view(np.int64))
    else:
        assert got.keys == expected.keys
        assert [type(k) for k in got.keys] == [type(k) for k in expected.keys]
    assert got.names == expected.names


class TestParsePaths:
    """``ingest`` (one ``np.loadtxt`` call when it can) equals the csv row path."""

    @given(text=st.one_of(st.just(""), csv_texts()), config=st.sampled_from(CONFIGS))
    @example(text="g,t,y,x\na,1,2,3\nb,2,3\n", config=CONFIGS[5])  # ragged, no cluster column
    @example(text="g,t,y,x\na,1,2,3\nb,2,3\n", config=CONFIGS[-1])  # ragged, no time column
    @example(text="g,t,y,x\na,x,2,3\n", config=CONFIGS[-1])  # bad time cell, no time column
    @settings(max_examples=300, deadline=None)
    def test_ingest_equals_row_path(self, tmp_path_factory, text, config):
        path = tmp_path_factory.mktemp("parity") / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast = outcome(lambda: _fast_table(text, config))
        event("row path" if fast is None else "fast path")
        got = outcome(lambda: ingest(str(path), config))
        expected = outcome(lambda: _row_table(_read_text(str(path)), config, str(path)))
        assert_same_outcome(got, expected)

    @pytest.mark.parametrize("config", CONFIGS[:4])
    def test_plain_file_takes_fast_path(self, config):
        text = "g,t,y,x\na,1,0.5,2\nb,2,1e400,-0.0\n\na,3, 7,1e-320\n"
        table = _fast_table(text, config)
        assert isinstance(table, Table)
        assert_same_outcome(table, _row_table(text, config, "data.csv"))

    @pytest.mark.parametrize("line", ["b,2,3,4,5", "b,2,3,4,"])
    def test_extra_field_rejected_like_csv(self, tmp_path, line):
        path = write(tmp_path, f"g,t,y,x\na,1,2,3\n{line}\n")
        with pytest.raises(ParseError) as err:
            ingest(path, CONFIGS[0])
        assert err.value.line == 3 and "found 5" in str(err.value)

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = write(tmp_path, "g,t,y,x\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = ingest(path, CONFIGS[0])
        assert caught == []
        assert table.outcomes.shape == (0,) and table.covariates.shape == (0, 1)

    def test_quoted_label_keeps_its_comma(self, tmp_path):
        path = write(tmp_path, 'g,t,y,x\n"a,b",1,2,3\nc,2,3,4\n')
        assert ingest(path, CONFIGS[0]).keys == ["a,b", "c"]

    def test_short_and_long_line_go_to_the_row_path(self, tmp_path):
        # one field short and one field long: the comma total alone balances
        path = write(tmp_path, "g,y,x,note\na,1,2\nb,3,4,n,extra\na,5,6,m\n")
        assert _fast_table(_read_text(path), BASIC) is None
        with pytest.raises(ParseError) as err:
            ingest(path, BASIC)
        assert (err.value.line, str(err.value)) == (2, "line 2: expected 4 fields, found 3")

    def test_cluster_column_that_is_a_covariate_keeps_raw_labels(self):
        config = RunConfig(cluster_col="x", outcome_col="y", covariate_cols=("x",))
        table = _fast_table("y,x\n1,1.0\n2,1.00\n3,1.0\n", config)
        assert table.keys == ["1.0", "1.00", "1.0"]
        assert table.covariates[:, 0].tolist() == [1.0, 1.0, 1.0]
        data = table.dataset()
        assert data.labels == ("1.0", "1.00") and data.sizes.tolist() == [2, 1]

    @pytest.mark.parametrize("config", CONFIGS[:3])
    def test_unread_last_column_with_long_cells_takes_fast_path(self, config):
        text = "g,t,y,x,note\na,1,0.5,2,first note\nb,2,1.5,3,second\n"
        table = _fast_table(text, config)
        assert isinstance(table, Table)
        assert_same_outcome(table, _row_table(text, config, "data.csv"))

    def test_labels_keep_spaces_at_either_end(self):
        text = "g,y,x\n a,1,2\nb ,2,3\n c ,3,4\n a,4,5\n"
        table = _fast_table(text, BASIC)
        assert table.keys == [" a", "b ", " c ", " a"]
        assert_same_outcome(table, _row_table(text, BASIC, "data.csv"))

    @pytest.mark.parametrize("config", CONFIGS[:3])
    def test_blank_lines_between_rows_and_at_the_end(self, config):
        text = "g,t,y,x\n\na,1,0.5,2\n\n\nb,2,1.5,3\n\na,3,2.5,4\n\n\n"
        table = _fast_table(text, config)
        assert isinstance(table, Table) and table.outcomes.tolist() == [0.5, 1.5, 2.5]
        assert_same_outcome(table, _row_table(text, config, "data.csv"))

    @pytest.mark.parametrize("quote", ["", '"'])  # the fast path, then the row path
    def test_blocks_rows_in_stable_time_order(self, rng, quote):
        n = 60
        t = rng.integers(0, 20, size=n).astype(np.float64)  # ties in file order
        y, x = rng.standard_normal(n), rng.standard_normal(n)
        cells = zip(t.tolist(), y.tolist(), x.tolist())
        text = "t,y,x\n" + "".join(f"{quote}{a!r}{quote},{b!r},{c!r}\n" for a, b, c in cells)
        config = RunConfig(outcome_col="y", covariate_cols=("x",), blocks_q=4, time_col="t")
        table = _row_table(text, config, "d.csv") if quote else _fast_table(text, config)
        order = sorted(range(n), key=t.__getitem__)  # Python's sort is stable
        assert np.array_equal(table.keys, t[order])
        assert np.array_equal(table.outcomes, y[order])
        assert np.array_equal(table.covariates[:, 0], x[order])
        for q in (2, 5, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DuplicateTimeKeyWarning)
                got, ref = table.dataset(q), blockify(t, y, x, q)
            assert np.array_equal(got.outcomes.view(np.int64), ref.outcomes.view(np.int64))
            assert np.array_equal(got.covariates.view(np.int64), ref.covariates.view(np.int64))
            assert np.array_equal(got.sizes, ref.sizes) and got.labels == ref.labels


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
