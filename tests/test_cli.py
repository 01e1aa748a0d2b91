"""End-to-end CLI behavior: reports, exit codes, determinism, round trips."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artcluster
import artcluster.cli
import artcluster.errors
import artcluster.io
from artcluster.cli import main
from artcluster.errors import DuplicateTimeKeyWarning
from artcluster.io import RunConfig, ingest

MICRO_CSV = "cluster,y,x\n" + "".join(
    f"{lab},{val},1.0\n" for lab, val in [("a", 1.0)] * 4 + [("b", 3.0)] * 4
)


@pytest.fixture
def micro_file(tmp_path):
    path = tmp_path / "micro.csv"
    path.write_text(MICRO_CSV)
    return str(path)


def write_random_csv(tmp_path, rng, q=6, n_j=12, name="data.csv", effect=0.0):
    rows = ["cluster,y,x1,x2"]
    for j in range(q):
        for _ in range(n_j):
            x1, x2 = (float(v) for v in rng.standard_normal(2))
            y = float(effect * x1 + rng.standard_normal())
            rows.append(f"g{j},{y!r},{x1!r},{x2!r}")
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTestCommand:
    def test_micro_instance_pvalue_one(self, micro_file, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "test",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--null", "2.0",
                "--alpha", "0.3",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "test"
        assert doc["result"]["p_value"] == 1.0
        assert doc["result"]["reject"] is False
        scores = [c["score"] for c in doc["result"]["per_cluster"]]
        assert scores == [-2.0, 2.0]

    def test_trivial_power_warning_q4(self, tmp_path, rng, capsys):
        path = write_random_csv(tmp_path, rng, q=4)
        code, out, _ = run_cli(
            capsys,
            [
                "test",
                "--input", path,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x1,x2",
                "--coef", "x1",
                "--alpha", "0.10",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["reject"] is False
        assert any("trivial power" in w for w in doc["result"]["warnings"])
        assert doc["result"]["warnings"] == [
            "trivial power: the smallest attainable p-value 2/16 exceeds alpha=0.1; "
            "the test can never reject"
        ]

    @pytest.mark.parametrize(
        "draws, notes",
        [
            (19, ["trivial power: the smallest attainable p-value (at least 1/19) "
                  "exceeds alpha=0.05; the test can never reject"]),
            (21, []),
        ],
    )
    def test_sampled_trivial_power_note(self, tmp_path, rng, capsys, draws, notes):
        # B = 19 at alpha = 0.05: the floor 1/B is above alpha, so the
        # critical value is the largest statistic and the test cannot reject
        path = write_random_csv(tmp_path, rng, q=8, effect=5.0)
        code, out, _ = run_cli(
            capsys,
            [
                "test",
                "--input", path,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x1,x2",
                "--coef", "x1",
                "--group-mode", "sampled",
                "--draws", str(draws),
                "--seed", "1",
            ],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["warnings"] == notes
        assert result["p_value"] == 1 / draws
        assert result["reject"] is (draws == 21)

    def test_sampled_mode_reports_are_byte_identical(self, tmp_path, rng, capsys):
        path = write_random_csv(tmp_path, rng, q=8)
        argv = [
            "test",
            "--input", path,
            "--cluster", "cluster",
            "--outcome", "y",
            "--covariates", "x1,x2",
            "--coef", "x2",
            "--group-mode", "sampled",
            "--draws", "400",
            "--seed", "7",
        ]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_identification_failure_exit_2(self, tmp_path, capsys):
        rows = ["cluster,y,t,x"]
        rng = np.random.default_rng(1)
        for j, treat in enumerate([1.0, 0.0, 1.0, 0.0]):
            for _ in range(8):
                rows.append(
                    f"g{j},{float(rng.standard_normal())!r},{treat},"
                    f"{float(rng.standard_normal())!r}"
                )
        path = tmp_path / "collinear.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys,
            [
                "test",
                "--input", str(path),
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "t,x",
                "--intercept",
                "--coef", "t",
            ],
        )
        assert code == 2
        assert "g0" in err
        assert "merge clusters" in err

    def test_missing_column_exit_3(self, micro_file, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "test",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "wrong",
                "--covariates", "x",
                "--coef", "x",
            ],
        )
        assert code == 3
        assert "wrong" in err

    def test_unparsable_cell_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,y,x\na,1.0,1.0\na,oops,1.0\nb,2.0,1.0\nb,1.0,1.0\n")
        code, _, err = run_cli(
            capsys,
            [
                "test",
                "--input", str(path),
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
            ],
        )
        assert code == 3
        assert "line 3" in err

    def test_bad_alpha_exit_1(self, micro_file, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "test",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--alpha", "1.5",
            ],
        )
        assert code == 1
        assert "alpha" in err

    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, ["test", "--bogus"])
        assert code == 1

    def test_contrast_length_mismatch_exit_1(self, micro_file, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "test",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--contrast", "1,0",
            ],
        )
        assert code == 1
        assert "contrast" in err

    @pytest.mark.parametrize("command", ["test", "ci", "export"])
    @pytest.mark.parametrize("flags, message", [
        (["--covariates", "x,x"], "covariate 'x' appears twice in the model (x, x)"),
        (["--covariates", "intercept,x", "--intercept"],
         "covariate 'intercept' appears twice in the model (intercept, intercept, x)"),
    ], ids=["column", "intercept"])
    def test_repeated_covariate_exit_1(self, tmp_path, capsys, command, flags, message):
        path = tmp_path / "data.csv"
        path.write_text(_rows_csv("cluster,y,x,intercept", [f"{g},{i}.0,{i}.5,1.0"
                                                             for i, g in enumerate("aaabbb")]))
        extra = ["--output", str(tmp_path / "out.csv")] if command == "export" else ["--coef", "x"]
        argv = [command, "--input", str(path), "--cluster", "cluster", "--outcome", "y", *flags]
        code, out, err = run_cli(capsys, [*argv, *extra])
        assert (code, out, err) == (1, "", f"artcluster: error: {message}\n")

    def test_env_seed_default(self, tmp_path, rng, capsys, monkeypatch):
        path = write_random_csv(tmp_path, rng, q=8)
        argv = [
            "test",
            "--input", path,
            "--cluster", "cluster",
            "--outcome", "y",
            "--covariates", "x1,x2",
            "--coef", "x1",
            "--group-mode", "sampled",
            "--draws", "200",
        ]
        monkeypatch.setenv("ARTCLUSTER_SEED", "123")
        _, out_env, _ = run_cli(capsys, argv)
        monkeypatch.delenv("ARTCLUSTER_SEED")
        _, out_explicit, _ = run_cli(capsys, argv + ["--seed", "123"])
        assert json.loads(out_env)["result"] == json.loads(out_explicit)["result"]


def _rows_csv(header, rows):
    return header + "\n" + "".join(f"{row}\n" for row in rows)


# Documented failures with no other CLI test: (CSV, extra argv, exit code,
# a fragment of the error message naming the failure).
EXIT_CODE_CASES = [
    pytest.param(
        _rows_csv("cluster,y,x", ["a,1.0,1.0", "a,2.0,1.0", "a,3.0,1.0"]),
        ["--cluster", "cluster"],
        3,
        "at least 2 clusters",
        id="too-few-clusters",
    ),
    pytest.param(
        _rows_csv("cluster,y,x", ["a,1.0,1.0", "a,nan,1.0", "b,2.0,1.0", "b,1.0,1.0"]),
        ["--cluster", "cluster"],
        3,
        "non-finite",
        id="non-finite-value",
    ),
    pytest.param(
        _rows_csv("cluster,y,x", [f"{lab},1.0,1.0" for lab in "aabbcc"]),
        ["--cluster", "cluster", "--variant", "studentized"],
        2,
        "zero spread",
        id="degenerate-variance",
    ),
    pytest.param(
        _rows_csv(
            "cluster,y,x",
            [f"g{j},{float(j + k)!r},1.0" for j in range(21) for k in range(2)],
        ),
        ["--cluster", "cluster", "--group-mode", "exhaustive"],
        1,
        "2^21",
        id="group-too-large",
    ),
    pytest.param(
        _rows_csv(
            "cluster,y,x",
            [f"g{j},{float(j + k)!r},0.0" for j in range(21) for k in range(2)],
        ),
        ["--cluster", "cluster", "--group-mode", "exhaustive"],
        1,
        "2^21",
        id="group-too-large-before-identification",
    ),
    pytest.param(
        _rows_csv("t,y,x", [f"{i},{float(i % 3)!r},1.0" for i in range(10)]),
        ["--blocks", "11", "--time", "t"],
        1,
        "11 blocks from 10 observations",
        id="too-few-observations",
    ),
    pytest.param(
        _rows_csv("t,y,x", [f"{i},{float(i % 3)!r},1.0" for i in range(10)]),
        ["--blocks", "2,11", "--time", "t"],
        1,
        "11 blocks from 10 observations",
        id="later-block-count-too-large",
    ),
    pytest.param(
        _rows_csv("cluster,y,x", ["a,1.0,1.0", "b,2.0,1.0"]),
        ["--cluster", "cluster", "--input", "no-such-input.csv"],
        3,
        "No such file or directory",
        id="missing-input",
    ),
    pytest.param(
        _rows_csv("cluster,y,x", ["a,1.0,1.0", "a,2.0", "b,3.0,1.0", "b,1.0,2.0"]),
        ["--cluster", "cluster"],
        3,
        "expected 3 fields, found 2",
        id="ragged-row",
    ),
    pytest.param(
        _rows_csv("t,y,x", [f"{i},{float(i % 3)!r},1.0" for i in range(10)]),
        ["--blocks", "2"],
        1,
        "requires a time column",
        id="blocks-without-time",
    ),
    pytest.param(
        MICRO_CSV,
        ["--cluster", "cluster", "--contrast", "1"],
        1,
        "not both",
        id="contrast-and-coef",
    ),
    pytest.param(
        MICRO_CSV,
        ["--cluster", "cluster", "--group-mode", "sampled", "--draws", "1"],
        1,
        "at least 2 vectors",
        id="too-few-draws",
    ),
    pytest.param(
        MICRO_CSV,
        ["--cluster", "cluster", "--group-mode", "sampled", "--draws", "1000000000"],
        1,
        "--draws 1000000000",
        id="draws-beyond-memory-bound",
    ),
    pytest.param(
        MICRO_CSV,
        ["--cluster", "cluster", "--group-mode", "sampled", "--seed", "-1"],
        1,
        "artcluster: error: seed must lie in [0, 2**128), got -1",
        id="seed-outside-philox-keys",
    ),
    pytest.param(
        MICRO_CSV,
        ["--cluster", "cluster", "--group-mode", "exhaustive", "--seed", "-1"],
        1,
        "artcluster: error: seed must lie in [0, 2**128), got -1",
        id="negative-seed-exhaustive-group",
    ),
    pytest.param(
        MICRO_CSV,
        ["--cluster", "cluster", "--seed", str(2**128)],
        1,
        f"artcluster: error: seed must lie in [0, 2**128), got {2**128}",
        id="seed-beyond-philox-keys",
    ),
    pytest.param(
        MICRO_CSV,
        [],
        1,
        "cluster column is required",
        id="no-cluster-or-blocks",
    ),
    pytest.param(
        _rows_csv("t,y,x", [f"{'nan' if i == 3 else i},{float(i % 3)!r},1.0" for i in range(10)]),
        ["--blocks", "2", "--time", "t"],
        3,
        "time keys contain non-finite values",
        id="non-finite-time-key",
    ),
    pytest.param(
        # x is 0 throughout the first block, so block 1's Gram matrix is singular
        _rows_csv("t,y,x", [f"{i},{float(i % 3)!r},{0.0 if i < 5 else float(i)!r}"
                            for i in range(10)]),
        ["--blocks", "2", "--time", "t"],
        2,
        "artcluster: error: cluster 1:",
        id="identification-failure-in-blocks",
    ),
    # list flags are parsed before the file is read
    pytest.param(
        MICRO_CSV,
        ["--cluster", "cluster", "--contrast", "1,x"],
        1,
        "artcluster: error: expected a comma-separated list of numbers, got '1,x'",
        id="contrast-not-a-number",
    ),
    pytest.param(
        MICRO_CSV,
        ["--blocks", "8,x", "--time", "t"],
        1,
        "artcluster: error: expected a comma-separated list of integers, got '8,x'",
        id="blocks-not-an-integer",
    ),
    pytest.param(
        MICRO_CSV,
        ["--cluster", "cluster", "--covariates", ","],
        1,
        "artcluster: error: expected a comma-separated list of names, got ','",
        id="covariates-without-a-name",
    ),
    # `test` and `ci` refuse a contrast by one rule, before any group or fit
    *(
        pytest.param(
            MICRO_CSV,
            [command, "--cluster", "cluster", "--contrast", contrast],
            1,
            f"artcluster: error: {message}",
            id=f"{command}-contrast-{contrast}",
        )
        for command in ("test", "ci")
        for contrast, message in (("0", "contrast must not be the zero vector"),
                                  ("nan", "contrast must be a finite vector"))
    ),
]


@pytest.mark.parametrize("csv_text, extra, expected_code, message", EXIT_CODE_CASES)
def test_documented_failure_exit_codes(tmp_path, capsys, csv_text, extra, expected_code, message):
    path = tmp_path / "data.csv"
    path.write_text(csv_text)
    if extra[:1] not in (["test"], ["ci"]):  # a row without a command runs `test --coef x`
        extra = ["test", "--coef", "x", *extra]
    command, *flags = extra
    argv = [command, "--input", str(path), "--outcome", "y", "--covariates", "x", *flags]
    code, out, err = run_cli(capsys, argv)
    assert code == expected_code
    assert out == ""
    assert message in err


# Files broken twice.  The flags and the header are checked before any
# row, so a bad column wins over a ragged row or a bad cell; then the rows
# are read in file order, and within a row the outcome, covariate and key
# cells in turn, so the first bad row wins.  (rows, flags, exit code, the
# whole error line)
_GOOD_ROWS = ["a,1.0,1.0,1", "a,2.0,3.0,2", "b,3.0,1.0,3", "b,1.0,2.0,4"]
_RAGGED = _GOOD_ROWS[:1] + ["a,2.0,3.0"] + _GOOD_ROWS[2:]
_BAD_Y = _GOOD_ROWS[:2] + ["b,oops,1.0,3"] + _GOOD_ROWS[3:]
_BAD_TIME = _GOOD_ROWS[:2] + ["b,3.0,1.0,late"] + _GOOD_ROWS[3:]
_NOT_FOUND = "column 'nope' not found in header (cluster, y, x, t)"
_TWICE = "covariate 'x' appears twice in the model (x, x)"
_NO_TIME = "blocks mode requires a time column"
DOUBLY_BROKEN_CASES = [
    pytest.param(_RAGGED, ["--cluster", "cluster", "--covariates", "x,nope"], 3, _NOT_FOUND,
                 id="ragged-missing-covariate"),
    pytest.param(_RAGGED, ["--cluster", "cluster", "--covariates", "x,x"], 1, _TWICE,
                 id="ragged-repeated-covariate"),
    pytest.param(_RAGGED, ["--cluster", "nope", "--covariates", "x"], 3, _NOT_FOUND,
                 id="ragged-missing-cluster"),
    pytest.param(_RAGGED, ["--blocks", "2", "--time", "nope", "--covariates", "x"], 3,
                 _NOT_FOUND, id="ragged-missing-time"),
    pytest.param(_BAD_Y, ["--cluster", "cluster", "--covariates", "x,nope"], 3, _NOT_FOUND,
                 id="bad-cell-missing-covariate"),
    pytest.param(_BAD_Y, ["--cluster", "cluster", "--covariates", "x,x"], 1, _TWICE,
                 id="bad-cell-repeated-covariate"),
    pytest.param(_BAD_Y, ["--cluster", "nope", "--covariates", "x"], 3, _NOT_FOUND,
                 id="bad-cell-missing-cluster"),
    pytest.param(_BAD_Y, ["--blocks", "2", "--time", "nope", "--covariates", "x"], 3,
                 _NOT_FOUND, id="bad-cell-missing-time"),
    pytest.param(_BAD_Y, ["--blocks", "2", "--covariates", "x"], 1, _NO_TIME,
                 id="bad-cell-blocks-without-time"),
    pytest.param(_BAD_TIME, ["--cluster", "nope", "--covariates", "x"], 3, _NOT_FOUND,
                 id="bad-time-cell-missing-cluster"),
    pytest.param(_BAD_TIME, ["--blocks", "2", "--covariates", "x"], 1, _NO_TIME,
                 id="bad-time-cell-blocks-without-time"),
    pytest.param(["a,oops,1.0,1", *_RAGGED[1:]], ["--cluster", "cluster", "--covariates", "x"],
                 3, "line 2, column 'y': not a number: 'oops'", id="bad-cell-before-ragged-line"),
    pytest.param(_GOOD_ROWS[:1] + ["a,2.0,3.0,late", "b,oops,1.0,3"] + _GOOD_ROWS[3:],
                 ["--blocks", "2", "--time", "t", "--covariates", "x"], 3,
                 "line 3, column 't': not a number: 'late'", id="bad-time-cell-before-bad-y-cell"),
]


@pytest.mark.parametrize("command", ["test", "ci"])
@pytest.mark.parametrize("rows, flags, expected_code, message", DOUBLY_BROKEN_CASES)
def test_doubly_broken_input_reports_the_first_error(tmp_path, capsys, command, rows, flags,
                                                     expected_code, message):
    path = tmp_path / "data.csv"
    path.write_text(_rows_csv("cluster,y,x,t", rows))
    argv = [command, "--input", str(path), "--outcome", "y", "--coef", "x", *flags]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (expected_code, "", f"artcluster: error: {message}\n")


@pytest.mark.parametrize("command", ["test", "ci"])
@pytest.mark.parametrize("text, message", [
    ('g,y,x\n"a\nb",1,2\nc,3\n', "line 4: expected 3 fields, found 2"),
    ('g,y,x\n"a\nb",1,2\nc,oops,3\n', "line 4, column 'y': not a number: 'oops'"),
], ids=["ragged-row", "bad-cell"])
def test_error_after_a_two_line_label_names_its_physical_line(tmp_path, capsys, command, text,
                                                              message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    argv = [command, "--input", str(path), "--cluster", "g", "--outcome", "y",
            "--covariates", "x", "--coef", "x"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (3, "", f"artcluster: error: {message}\n")


def test_non_integer_seed_environment_exits_1(micro_file, capsys, monkeypatch):
    monkeypatch.setenv("ARTCLUSTER_SEED", "abc")
    argv = ["test", "--input", micro_file, "--cluster", "cluster", "--outcome", "y",
            "--covariates", "x", "--coef", "x"]
    assert run_cli(capsys, argv) == (
        1, "", "artcluster: error: ARTCLUSTER_SEED must be an integer, got 'abc'\n"
    )


def test_export_refuses_a_blocks_sweep(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text(_rows_csv("t,y,x", [f"{i},{float(i % 3)!r},{i / 2!r}" for i in range(40)]))
    argv = ["export", "--input", str(path), "--outcome", "y", "--covariates", "x",
            "--blocks", "8,10", "--time", "t", "--output", str(tmp_path / "out.csv")]
    assert run_cli(capsys, argv) == (
        1, "", "artcluster: error: export accepts a single --blocks value\n"
    )
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["test", "ci"])
def test_cell_over_csv_field_limit_exits_3_in_process(tmp_path, capsys, command):
    limit = csv.field_size_limit()
    path = tmp_path / "long-label.csv"
    path.write_text(f'cluster,y,x\n"{"a" * (limit + 1)}",1.0,1.0\n' + MICRO_CSV.split("\n", 1)[1])
    argv = [command, "--input", str(path), "--cluster", "cluster", "--outcome", "y",
            "--covariates", "x", "--coef", "x"]
    assert run_cli(capsys, argv) == (
        3, "", f"artcluster: error: line 2: field larger than field limit ({limit})\n"
    )


def _refuse(*args, **kwargs):
    raise AssertionError("this error must be found before the file is parsed")


@pytest.mark.parametrize(
    "flags, expected_code, message",
    [
        (["--cluster", "cluster", "--covariates", "x,nope"], 3, _NOT_FOUND),
        (["--cluster", "cluster", "--covariates", "x,x"], 1, _TWICE),
        (["--cluster", "nope", "--covariates", "x"], 3, _NOT_FOUND),
        (["--blocks", "2", "--time", "nope", "--covariates", "x"], 3, _NOT_FOUND),
    ],
    ids=["missing-covariate", "repeated-covariate", "missing-cluster", "missing-time"],
)
def test_bad_column_fails_without_the_row_path(tmp_path, capsys, monkeypatch, flags,
                                               expected_code, message):
    # a plain file's bad column fails before any cell is parsed, by either path
    monkeypatch.setattr(artcluster.io, "_row_table", _refuse)
    monkeypatch.setattr(artcluster.io.np, "loadtxt", _refuse)
    path = tmp_path / "data.csv"
    path.write_text(_rows_csv("cluster,y,x,t", _GOOD_ROWS))
    argv = ["test", "--input", str(path), "--outcome", "y", "--coef", "x", *flags]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (expected_code, "", f"artcluster: error: {message}\n")


@pytest.mark.parametrize("blocks", [[], ["--blocks", "8,10,16"]], ids=["clusters", "sweep"])
@pytest.mark.parametrize("command", ["test", "ci"])
@pytest.mark.parametrize("flags, message", [
    (["--coef", "nope"], "coefficient 'nope' is not among the model covariates (x)"),
    (["--contrast", "1,2"], "contrast has 2 entries but the model has 1 covariates (x)"),
], ids=["bad-coef", "wrong-length-contrast"])
def test_bad_contrast_fails_before_ingest(tmp_path, capsys, monkeypatch, command, blocks, flags,
                                          message):
    monkeypatch.setattr(artcluster.cli, "ingest", _refuse)
    path = tmp_path / "data.csv"
    path.write_text(_rows_csv("g,t,y,x", [f"{i % 4},{i},{i % 3}.0,{i % 5}.0" for i in range(120)]))
    argv = [command, "--input", str(path), "--outcome", "y", "--covariates", "x",
            "--cluster", "g", "--time", "t", *blocks, *flags]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"artcluster: error: {message}\n")


def _cli_in_subprocess(argv):
    """Run the CLI in a fresh interpreter, so numpy's warnings reach its stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artcluster.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "artcluster.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


# On the micro data (c'beta_j = 1 and 3, w_j = 2) contrast 2.5e307 gives
# finite scores 5e307 and 1.5e308 whose sum overflows in the sweep; at
# 1e308, c'beta_b itself overflows.  Both commands refuse both with the
# same usage error, and no numpy warning reaches stderr.
@pytest.mark.parametrize("contrast", ["2.5e307", "1e308"])
@pytest.mark.parametrize("command", ["test", "ci"])
def test_overflowing_scores_exit_1_with_one_error_line(micro_file, command, contrast):
    done = _cli_in_subprocess([command, "--input", micro_file, "--cluster", "cluster",
                               "--outcome", "y", "--covariates", "x", "--contrast", contrast])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "artcluster: error: scores are not finite, or their absolute sum over the clusters "
        "overflows float64; rescale the outcome or the contrast"
    ]


# A power study of null value 1e308 overflows sqrt(n_j) * (c'beta_j - 1e308)
# while forming its scores; the sweep refuses them with the same usage
# error, and no numpy warning reaches stderr.
def test_overflowing_study_scores_exit_1_with_one_error_line(tmp_path):
    spec = {
        "dgp": {"sizes": [10] * 6, "beta": [0.5, 1.0], "sigma": [1.0] * 6},
        "study": "power",
        "contrast": [0.0, 1.0],
        "null_value": 1e308,
        "alpha": 0.05,
        "replications": 20,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec))
    done = _cli_in_subprocess(["simulate", "--spec", str(path)])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "artcluster: error: scores are not finite, or their absolute sum over the clusters "
        "overflows float64; rescale the outcome or the contrast"
    ]


# Contrast (0, 2^600) makes mean(v^2) overflow in the studentized spread;
# the spread is redone on values scaled by a power of two, so the run
# succeeds with contrast (0, 1)'s statistic, critical value and p-value.
def test_studentized_overflowing_spread_exits_0(tmp_path, rng, capsys):
    path = write_random_csv(tmp_path, rng, q=8, n_j=10)
    argv = ["test", "--input", path, "--cluster", "cluster", "--outcome", "y",
            "--covariates", "x1,x2", "--variant", "studentized", "--contrast"]
    code, out, err = run_cli(capsys, [*argv, f"0,{2.0**600!r}"])
    assert (code, err) == (0, "")
    _, want, _ = run_cli(capsys, [*argv, "0,1"])
    keys = ("statistic", "critical_value", "p_value")
    got, want = json.loads(out)["result"], json.loads(want)["result"]
    assert [got[key] for key in keys] == [want[key] for key in keys]


# The documented exit code of every package error: 3 for I/O and data
# validation, 1 for usage, 2 for the base class and estimation failures.
ERROR_EXIT_CODES = {
    "ArtClusterError": 2,
    "MissingColumn": 3,
    "ParseError": 3,
    "NonFiniteValue": 3,
    "WidthMismatch": 3,
    "TooFewClusters": 3,
    "EmptyCluster": 3,
    "GroupTooLarge": 1,
    "TooFewObservations": 1,
    "DegenerateGrouping": 1,
    "IdentificationFailure": 2,
    "SingularFullGram": 2,
    "DegenerateVariance": 2,
    "SingularSigma": 2,
    "GridTooCoarse": 2,
}


@pytest.mark.parametrize("name, code", ERROR_EXIT_CODES.items())
def test_error_class_exit_code(name, code):
    assert getattr(artcluster.errors, name).exit_code == code


def test_every_error_class_has_a_documented_exit_code():
    classes = {
        name
        for name, obj in vars(artcluster.errors).items()
        if isinstance(obj, type) and issubclass(obj, artcluster.errors.ArtClusterError)
    }
    assert classes == set(ERROR_EXIT_CODES)


def test_duplicate_time_keys_warn_and_still_report(tmp_path, capsys):
    rows = [f"{i // 2},{float(i % 5)!r},{float(i % 3)!r}" for i in range(40)]
    path = tmp_path / "series.csv"
    path.write_text(_rows_csv("t,y,x", rows))
    argv = ["test", "--input", str(path), "--outcome", "y", "--covariates", "x",
            "--coef", "x", "--blocks", "4", "--time", "t"]
    with pytest.warns(DuplicateTimeKeyWarning):
        code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["result"]["group"]["size"] == 16


def _series_file(tmp_path, rng, n=120):
    rows = [f"{i},{float(rng.standard_normal())!r},{float(rng.standard_normal())!r}"
            for i in range(n)]
    path = tmp_path / "series.csv"
    path.write_text(_rows_csv("t,y,x", rows))
    return str(path)


class TestBlocksPipeline:
    """A ``--blocks`` list parses once and runs dataset -> group -> fit per Q."""

    @staticmethod
    def argv(command, path, blocks):
        return [command, "--input", path, "--outcome", "y", "--covariates", "x",
                "--coef", "x", "--alpha", "0.2", "--blocks", blocks, "--time", "t"]

    @staticmethod
    def count_reads(monkeypatch):
        reads = []
        read_text = artcluster.io._read_text

        def counting(path):
            reads.append(path)
            return read_text(path)

        monkeypatch.setattr(artcluster.io, "_read_text", counting)
        return reads

    @pytest.mark.parametrize("command", ["test", "ci"])
    def test_input_parsed_once(self, tmp_path, rng, capsys, monkeypatch, command):
        reads = self.count_reads(monkeypatch)
        path = _series_file(tmp_path, rng)
        code, out, _ = run_cli(capsys, self.argv(command, path, "8,10,16"))
        assert code == 0
        assert len(json.loads(out)["result"]["by_blocks"]) == 3
        assert reads == [path]

    @pytest.mark.parametrize("command", ["test", "ci"])
    def test_quoted_input_read_once(self, tmp_path, rng, capsys, monkeypatch, command):
        # a quote sends the file down the csv row path, which must reuse the text
        path = _series_file(tmp_path, rng)
        series = tmp_path / "series.csv"
        series.write_text(series.read_text().replace("t,y,x", '"t",y,x', 1))
        reads = self.count_reads(monkeypatch)
        code, out, _ = run_cli(capsys, self.argv(command, path, "8,10,16"))
        assert code == 0
        assert len(json.loads(out)["result"]["by_blocks"]) == 3
        assert reads == [path]

    @pytest.mark.parametrize("command", ["test", "ci"])
    def test_sweep_entries_equal_single_runs(self, tmp_path, rng, capsys, command):
        path = _series_file(tmp_path, rng)
        code, out, _ = run_cli(capsys, self.argv(command, path, "8,10,16"))
        assert code == 0
        for entry in json.loads(out)["result"]["by_blocks"]:
            q = entry.pop("blocks")
            code, single, _ = run_cli(capsys, self.argv(command, path, str(q)))
            assert code == 0
            assert entry == json.loads(single)["result"]


class TestCiCommand:
    def test_micro_interval(self, micro_file, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "ci",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--alpha", "0.6",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["lower"] == 1.0
        assert doc["result"]["upper"] == 3.0
        assert doc["result"]["lambda0"] == 2.0

    def test_unbounded_tokens_and_warning(self, micro_file, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "ci",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--alpha", "0.3",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["lower"] == "-inf"
        assert doc["result"]["upper"] == "+inf"
        assert doc["result"]["bounded"] is False
        assert doc["result"]["warnings"] == [
            "unbounded interval: alpha is at or below the smallest attainable "
            "p-value 2/4, so infinite endpoints are forced"
        ]

    def test_sampled_unbounded_note_counts_identity_rows(self, tmp_path, rng, capsys):
        # 30 draws at q = 20 hold only the identity among the +-identity
        # rows, so alpha = 0.05 (below 2/30) still gives a bounded interval
        path = write_random_csv(tmp_path, rng, q=20, n_j=6)
        docs = {}
        for alpha in ("0.03", "0.05"):
            code, out, _ = run_cli(
                capsys,
                [
                    "ci",
                    "--input", path,
                    "--cluster", "cluster",
                    "--outcome", "y",
                    "--covariates", "x1,x2",
                    "--coef", "x1",
                    "--group-mode", "sampled",
                    "--draws", "30",
                    "--seed", "3",
                    "--alpha", alpha,
                ],
            )
            assert code == 0
            docs[alpha] = json.loads(out)["result"]
        assert docs["0.03"]["bounded"] is False
        assert docs["0.03"]["warnings"] == [
            "unbounded interval: alpha is at or below the smallest attainable "
            "p-value 1/30, so infinite endpoints are forced"
        ]
        assert docs["0.05"]["bounded"] is True
        assert docs["0.05"]["warnings"] == []

    def test_blocks_sweep_reports_side_by_side(self, tmp_path, rng, capsys):
        rows = ["t,y,x"]
        for i in range(120):
            rows.append(f"{i},{float(rng.standard_normal())!r},{float(rng.standard_normal())!r}")
        path = tmp_path / "series.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys,
            [
                "ci",
                "--input", str(path),
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--blocks", "4,6,8",
                "--time", "t",
                "--alpha", "0.2",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        runs = doc["result"]["by_blocks"]
        assert [r["blocks"] for r in runs] == [4, 6, 8]
        assert [r["group"]["size"] for r in runs] == [16, 64, 256]

    def test_blocks_mode(self, tmp_path, rng, capsys):
        rows = ["t,y,x"]
        for i in range(60):
            rows.append(f"{i},{float(rng.standard_normal())!r},{float(rng.standard_normal())!r}")
        path = tmp_path / "series.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys,
            [
                "ci",
                "--input", str(path),
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--blocks", "5",
                "--time", "t",
                "--alpha", "0.2",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["group"]["size"] == 32


class TestTableOutput:
    def test_test_table(self, micro_file, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "test",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--null", "2.0",
                "--table",
            ],
        )
        assert code == 0
        assert "p-value" in out and "reject" in out

    def test_ci_table(self, micro_file, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "ci",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--alpha", "0.6",
                "--table",
            ],
        )
        assert code == 0
        assert "lower" in out and "upper" in out
        assert "1" in out and "3" in out


class TestBlocksCommand:
    def test_reference_table(self, capsys):
        code, out, _ = run_cli(capsys, ["blocks", "--n", "2631", "--q", "8,10,16"])
        assert code == 0
        doc = json.loads(out)
        bases = {p["q"]: p["base_size"] for p in doc["result"]["plans"]}
        assert bases == {8: 328, 10: 263, 16: 164}

    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, ["blocks", "--n", "2631", "--q", "10", "--table"])
        assert code == 0
        assert "263" in out and "264" in out

    def test_too_few_observations_exit_1(self, capsys):
        code, _, err = run_cli(capsys, ["blocks", "--n", "10", "--q", "11"])
        assert code == 1
        assert "blocks" in err

    def test_block_count_beyond_memory_bound_refused_before_planning(self, capsys,
                                                                     monkeypatch):
        def no_plan(*args):
            raise AssertionError("planned the blocks of a refused count")

        monkeypatch.setattr(artcluster.cli, "plan_blocks", no_plan)
        code, out, err = run_cli(capsys, ["blocks", "--n", str(10**9), "--q", "8,100000000"])
        assert code == 1
        assert out == ""
        assert err == ("artcluster: error: --q 8,100000000 needs about 61.5 GiB, "
                       "above the 1 GiB limit\n")
        # the patched name is the one the command calls
        with pytest.raises(AssertionError, match="planned the blocks"):
            main(["blocks", "--n", "100", "--q", "8"])


class TestExportCommand:
    def test_round_trip(self, tmp_path, rng, capsys):
        src = write_random_csv(tmp_path, rng, q=5, n_j=7)
        out_path = str(tmp_path / "canon.csv")
        code, _, _ = run_cli(
            capsys,
            [
                "export",
                "--input", src,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x1,x2",
                "--output", out_path,
            ],
        )
        assert code == 0
        config = RunConfig(
            cluster_col="cluster", outcome_col="y", covariate_cols=("x1", "x2")
        )
        original = ingest(src, config).dataset()
        exported = ingest(
            out_path,
            RunConfig(cluster_col="cluster", outcome_col="y", covariate_cols=("x1", "x2")),
        ).dataset()
        assert np.array_equal(original.outcomes, exported.outcomes)
        assert np.array_equal(original.covariates, exported.covariates)
        assert np.array_equal(original.sizes, exported.sizes)

    def test_double_export_idempotent(self, tmp_path, rng, capsys):
        src = write_random_csv(tmp_path, rng, q=4, n_j=5)
        first = str(tmp_path / "one.csv")
        second = str(tmp_path / "two.csv")
        base = [
            "export",
            "--cluster", "cluster",
            "--outcome", "y",
            "--covariates", "x1,x2",
        ]
        assert run_cli(capsys, base + ["--input", src, "--output", first])[0] == 0
        assert run_cli(capsys, base + ["--input", first, "--output", second])[0] == 0
        assert Path(first).read_text() == Path(second).read_text()


def _simulate_in_subprocess(spec_path):
    return _cli_in_subprocess(["simulate", "--spec", str(spec_path)])


# Documented simulate failures, run in process: (spec edits, exit code, a
# fragment of the error message).  The memory-bound row must never run
# against code without the bound, which would try to draw 10^10
# replications.
SIMULATE_EXIT_CODE_CASES = [
    pytest.param(
        {"replications": 10**10},
        1,
        "artcluster: error: replications 10000000000 at q = 8 needs about",
        id="replications-beyond-memory-bound",
    ),
    pytest.param(
        {"dgp": {"sizes": [10] * 8, "beta": [0.0], "sigma": [1.0] * 8, "seed": -1}},
        1,
        "artcluster: error: seed must lie in [0, 2**128), got -1",
        id="dgp-seed-outside-philox-keys",
    ),
    pytest.param(
        {"study": "power", "null_value": 0.0, "contrast": [0.0, 1.0]},
        1,
        "artcluster: error: contrast length must equal the covariate count",
        id="contrast-length-mismatch",
    ),
    pytest.param(
        {"study": "size", "contrast": [1.0, 0.0]},
        1,
        "artcluster: error: contrast length must equal the covariate count",
        id="size-contrast-length-mismatch",
    ),
    pytest.param(
        {"alpha": 1.5},
        1,
        "artcluster: error: simulation spec field 'alpha' must lie strictly between 0 and 1",
        id="alpha-outside-unit-interval",
    ),
    pytest.param(
        {"dgp": {"beta": [0.0], "sigma": [1.0] * 8}},
        1,
        "artcluster: error: simulation spec is missing the 'dgp.sizes' field",
        id="missing-dgp-field",
    ),
    pytest.param(
        {"study": "sizes"},
        1,
        "artcluster: error: study must be 'size' or 'power', got 'sizes'",
        id="unknown-study",
    ),
    pytest.param(
        {"dgp": {"sizes": [10] * 3, "beta": [0.0], "sigma": [1.0] * 2}},
        1,
        "artcluster: error: need one noise scale per cluster",
        id="sigma-count-mismatch",
    ),
    pytest.param(
        # Z @ beta overflows; under the suite's warnings-as-errors a numpy
        # warning would escape as an exception instead of this exit
        {"dgp": {"sizes": [10] * 4, "beta": [1e308, 1e308], "sigma": [1.0] * 4},
         "contrast": [0.0, 1.0]},
        3,
        "artcluster: error: outcomes contain non-finite values",
        id="overflowing-outcomes",
    ),
]


@pytest.mark.parametrize("edits, expected_code, message", SIMULATE_EXIT_CODE_CASES)
def test_documented_simulate_exit_codes(tmp_path, capsys, edits, expected_code, message):
    spec = {
        "dgp": {"sizes": [10] * 8, "beta": [0.0], "sigma": [1.0] * 8},
        "study": "size",
        "contrast": [1.0],
        "alpha": 0.1,
        "replications": 5,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps({**spec, **edits}))
    code, out, err = run_cli(capsys, ["simulate", "--spec", str(path)])
    assert code == expected_code
    assert out == ""
    assert message in err


def test_simulate_spec_that_is_not_an_object_exits_1(tmp_path, capsys):
    path = tmp_path / "study.json"
    path.write_text("[1, 2]")
    assert run_cli(capsys, ["simulate", "--spec", str(path)]) == (
        1, "", "artcluster: error: simulation spec must be a JSON object\n"
    )


class TestSimulateCommand:
    def test_size_study_smoke(self, tmp_path, capsys):
        spec = {
            "dgp": {
                "sizes": [12] * 5,
                "beta": [0.3, 0.0],
                "sigma": [1.0, 1.0, 2.0, 2.0, 3.0],
                "rho": 0.2,
                "seed": 4,
            },
            "study": "size",
            "contrast": [0.0, 1.0],
            "alpha": 0.1,
            "replications": 40,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, ["simulate", "--spec", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["replications"] == 40
        assert 0.0 <= doc["result"]["rate"] <= 1.0
        assert len(doc["result"]["p_values"]) == 40

    def test_power_requires_null_value(self, tmp_path, capsys):
        spec = {
            "dgp": {"sizes": [10] * 4, "beta": [0.0], "sigma": [1.0] * 4},
            "study": "power",
            "contrast": [1.0],
            "alpha": 0.1,
            "replications": 5,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, ["simulate", "--spec", str(path)])
        assert code == 1
        assert "null_value" in err

    @pytest.mark.parametrize(
        "message, edit",
        [
            ("'null_value'", lambda spec: {**spec, "null_value": [0.0, 0.8]}),
            ("'alpha'", lambda spec: {**spec, "alpha": [0.1]}),
            ("'replications'", lambda spec: {**spec, "replications": None}),
            ("'dgp.sizes'", lambda spec: {**spec, "dgp": {**spec["dgp"], "sizes": 10}}),
            ("'dgp.sizes'", lambda spec: {**spec, "dgp": {**spec["dgp"], "sizes": [None] * 4}}),
            ("'group'", lambda spec: {**spec, "group": [1]}),
            ("a JSON object", lambda spec: 5),
            ("'dgp.sizes' is invalid: [10.9, 10, 10, 10]",
             lambda spec: {**spec, "dgp": {**spec["dgp"], "sizes": [10.9, 10, 10, 10]}}),
            ("'dgp.sizes'", lambda spec: {**spec, "dgp": {**spec["dgp"], "sizes": [True] * 4}}),
            ("'dgp.seed' is invalid: 1.5", lambda spec: {**spec, "dgp": {**spec["dgp"], "seed": 1.5}}),
            ("'replications' is invalid: 3.7", lambda spec: {**spec, "replications": 3.7}),
            ("'replications' is invalid: '5'", lambda spec: {**spec, "replications": "5"}),
            ("'replications' is invalid: inf", lambda spec: {**spec, "replications": float("inf")}),
            ("'group.draws' is invalid: 2.9",
             lambda spec: {**spec, "group": {"mode": "sampled", "draws": 2.9}}),
            ("'group.draws' is invalid: True",
             lambda spec: {**spec, "group": {"mode": "sampled", "draws": True}}),
            ("'group.seed' is invalid: 0.5",
             lambda spec: {**spec, "group": {"mode": "sampled", "seed": 0.5}}),
        ],
        ids=["list-null-value", "list-alpha", "null-replications", "scalar-sizes",
             "null-size-entries", "list-group", "scalar-spec", "fractional-size",
             "boolean-sizes", "fractional-dgp-seed", "fractional-replications",
             "string-replications", "infinite-replications", "fractional-draws",
             "boolean-draws", "fractional-group-seed"],
    )
    def test_wrong_typed_field_is_usage_error(self, tmp_path, message, edit):
        spec = {
            "dgp": {"sizes": [10] * 4, "beta": [0.0], "sigma": [1.0] * 4},
            "study": "power",
            "contrast": [1.0],
            "alpha": 0.1,
            "replications": 5,
            "null_value": 0.5,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(edit(spec)))
        done = _simulate_in_subprocess(path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert "artcluster: error:" in done.stderr
        assert message in done.stderr
        assert "Traceback" not in done.stderr

    def test_draws_beyond_memory_bound_names_spec_field(self, tmp_path):
        spec = {
            "dgp": {"sizes": [10] * 8, "beta": [0.0], "sigma": [1.0] * 8},
            "study": "size",
            "contrast": [1.0],
            "alpha": 0.1,
            "replications": 5,
            "group": {"mode": "sampled", "draws": 1000000000},
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        done = _simulate_in_subprocess(path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert "artcluster: error: group.draws 1000000000 at q = 8 needs" in done.stderr
        assert "--draws" not in done.stderr
        assert "Traceback" not in done.stderr

    def test_overflowing_outcomes_exit_3_with_one_error_line(self, tmp_path):
        # Z @ beta overflows at beta = 1e308; the outcome check reports it,
        # and no numpy warning or package source line reaches stderr
        spec = {
            "dgp": {"sizes": [10] * 4, "beta": [1e308, 1e308], "sigma": [1.0] * 4},
            "study": "size",
            "contrast": [0.0, 1.0],
            "alpha": 0.1,
            "replications": 5,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        done = _simulate_in_subprocess(path)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.splitlines() == ["artcluster: error: outcomes contain non-finite values"]

    def test_replications_bound_checked_before_group_is_drawn(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_group(*args, **kwargs):
            raise AssertionError("drew the group of a refused study")

        monkeypatch.setattr(artcluster.simulation, "enumerate_group", no_group)
        spec = {
            "dgp": {"sizes": [10] * 8, "beta": [0.0], "sigma": [1.0] * 8},
            "study": "size",
            "contrast": [1.0],
            "alpha": 0.1,
            "replications": 10**10,
            "group": {"mode": "sampled", "draws": 1000},
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, ["simulate", "--spec", str(path)])
        assert code == 1
        assert out == ""
        assert "replications 10000000000 at q = 8 needs about" in err
        # the patched name is the one the spec reader calls
        path.write_text(json.dumps({**spec, "replications": 5}))
        with pytest.raises(AssertionError, match="drew the group"):
            main(["simulate", "--spec", str(path)])

    def test_sizes_beyond_memory_bound_refused_before_drawing(self, tmp_path, capsys,
                                                              monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew the replications of a refused study")

        monkeypatch.setattr(artcluster.simulation, "_draw", no_draw)
        spec = {
            "dgp": {"sizes": [10**9, 10**9], "beta": [0.0], "sigma": [1.0, 1.0]},
            "study": "size",
            "contrast": [1.0],
            "alpha": 0.1,
            "replications": 1,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, ["simulate", "--spec", str(path)])
        assert code == 1
        assert out == ""
        assert err == ("artcluster: error: dgp.sizes (n = 2000000000) at d_z = 1 needs about "
                       "119.2 GiB, above the 1 GiB limit\n")

    def test_misspelled_variant_refused_before_study_is_drawn(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew the replications of a refused study")

        monkeypatch.setattr(artcluster.simulation, "_draw", no_draw)
        spec = {
            "dgp": {"sizes": [10] * 8, "beta": [0.0], "sigma": [1.0] * 8},
            "study": "size",
            "contrast": [1.0],
            "alpha": 0.1,
            "replications": 200000,
            "variant": "studentised",
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, ["simulate", "--spec", str(path)])
        assert code == 1
        assert out == ""
        assert "unknown variant 'studentised'" in err

    def test_integral_numbers_give_the_integer_report(self, tmp_path, capsys):
        spec = {
            "dgp": {"sizes": [10] * 4, "beta": [0.0], "sigma": [1.0] * 4, "seed": 5},
            "study": "size",
            "contrast": [1.0],
            "alpha": 0.1,
            "replications": 6,
            "group": {"mode": "sampled", "draws": 40, "seed": 2},
        }
        as_floats = {
            **spec,
            "dgp": {**spec["dgp"], "sizes": [10.0] * 4, "seed": 5.0},
            "replications": 6.0,
            "group": {"mode": "sampled", "draws": 40.0, "seed": 2.0},
        }
        outs = []
        for doc in (spec, as_floats):
            path = tmp_path / "study.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run_cli(capsys, ["simulate", "--spec", str(path)])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, ["simulate", "--spec", str(path)])
        assert code == 3

    def test_deterministic(self, tmp_path, capsys):
        spec = {
            "dgp": {"sizes": [10] * 5, "beta": [0.0], "sigma": [1.0] * 5, "seed": 9},
            "study": "size",
            "contrast": [1.0],
            "alpha": 0.1,
            "replications": 30,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        _, out1, _ = run_cli(capsys, ["simulate", "--spec", str(path)])
        _, out2, _ = run_cli(capsys, ["simulate", "--spec", str(path)])
        assert out1 == out2


class TestReportShape:
    def test_config_echoed_for_reproducibility(self, micro_file, capsys):
        _, out, _ = run_cli(
            capsys,
            [
                "test",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--seed", "31",
                "--group-mode", "sampled",
                "--draws", "64",
            ],
        )
        doc = json.loads(out)
        cfg = doc["config"]
        assert cfg["seed"] == 31
        assert cfg["group_mode"] == "sampled"
        assert cfg["draws"] == 64
        assert cfg["input_path"].endswith("micro.csv")
        assert doc["schema_version"] == 1

    def test_output_file(self, micro_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            [
                "test",
                "--input", micro_file,
                "--cluster", "cluster",
                "--outcome", "y",
                "--covariates", "x",
                "--coef", "x",
                "--output", str(dest),
            ],
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["command"] == "test"


# The child reads its own high-water RSS: a parent's ru_maxrss for a
# spawned child starts from the parent's own peak, so it cannot show a
# child peak below that.
_PEAK_RSS_CHILD = """
import sys
from artcluster.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
print(code, int(hwm.split()[1]) // 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    "command, group, bound_mb",
    [
        # the 2^20 group is swept without its sign matrix, and only its 2^19
        # rows with g_0 = +1: ~40 MB, against ~49 MB for all 2^20 rows and
        # ~520 MB for the sign matrix
        pytest.param("test", ["--group-mode", "exhaustive"], 46, id="test"),
        # ci holds a, b and the two bounds of the 2^19 rows: ~53 MB, against
        # ~73 MB for all 2^20 rows and ~139 MB when the bounds took a dozen
        # temporaries of the group's size
        pytest.param("ci", ["--group-mode", "exhaustive"], 62, id="ci"),
        # 1M sampled rows are regenerated from the seed in chunks, never held
        # whole: ~53 MB, against ~112 MB for a (draws, q) int8 matrix
        pytest.param(
            "test",
            ["--group-mode", "sampled", "--draws", "1000000", "--seed", "7"],
            70,
            id="test-sampled",
        ),
        pytest.param(
            "ci",
            ["--group-mode", "sampled", "--draws", "1000000", "--seed", "7"],
            100,
            id="ci-sampled",
        ),
    ],
)
def test_q20_peak_memory(tmp_path, rng, command, group, bound_mb):
    path = write_random_csv(tmp_path, rng, q=20, n_j=100)
    argv = [
        command,
        "--input", path,
        "--cluster", "cluster",
        "--outcome", "y",
        "--covariates", "x1,x2",
        "--coef", "x1",
        *group,
        "--output", str(tmp_path / "report.json"),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artcluster.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    code, peak_mb = (int(v) for v in done.stdout.split())
    assert code == 0
    assert peak_mb < bound_mb, f"{command} {group}: peak RSS {peak_mb} MB"


# The child patches the byte limit, runs one command and reads its own
# peak over the RSS it had before the command ran.
_LIMITED_PEAK_CHILD = """
import sys
import artcluster.errors
from artcluster.cli import main
def status(key):
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith(key)).split()[1]) * 1024
artcluster.errors.MAX_BYTES = int(sys.argv[1])
floor = status("VmRSS:")
code = main(sys.argv[2:])
print(code, status("VmHWM:") - floor)
"""

_LIMIT = 64 * 2**20


def _study_argv(tmp_path, sizes, d_z):
    spec = {
        "dgp": {"sizes": sizes, "beta": [0.0] * d_z, "sigma": [1.0] * len(sizes)},
        "study": "size",
        "contrast": [1.0] * d_z,
        "alpha": 0.1,
        "replications": 1,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec))
    return ["simulate", "--spec", str(path), "--output", str(tmp_path / "report.json")]


def _sampled_ci_argv(tmp_path, draws):
    path = write_random_csv(tmp_path, np.random.default_rng(2), q=2, n_j=12)
    return ["ci", "--input", path, "--cluster", "cluster", "--outcome", "y",
            "--covariates", "x1,x2", "--coef", "x1", "--group-mode", "sampled",
            "--draws", str(draws), "--output", str(tmp_path / "report.json")]


def _blocks_argv(tmp_path, q):
    return ["blocks", "--n", str(10**9), "--q", str(q), "--output", str(tmp_path / "report.json")]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    "argv, field",
    [
        # 8 * n * (2 d_z + 6) bytes: n = 2^20 rows at d_z = 1, 2^26 / 96 at d_z = 3
        pytest.param(lambda tmp, extra: _study_argv(tmp, [2**19, 2**19 + extra], 1),
                     "dgp.sizes", id="sizes-d1"),
        pytest.param(lambda tmp, extra: _study_argv(tmp, [349525, 349525 + extra], 3),
                     "dgp.sizes", id="sizes-d3"),
        # 50 B per draw plus 2^14 * (3q + 48) for a chunk, at q = 2
        pytest.param(lambda tmp, extra: _sampled_ci_argv(tmp, (_LIMIT - 2**14 * 54) // 50 + extra),
                     "--draws", id="draws-ci"),
        # 660 B per block at n = 10^9
        pytest.param(lambda tmp, extra: _blocks_argv(tmp, _LIMIT // 660 + extra),
                     "--q", id="blocks-q"),
    ],
)
def test_peak_memory_near_each_limit(tmp_path, argv, field):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artcluster.__file__)))
    done = [
        subprocess.run(
            [sys.executable, "-c", _LIMITED_PEAK_CHILD, str(_LIMIT), *argv(tmp_path, extra)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for extra in (0, 1)
    ]
    code, peak = (int(v) for v in done[0].stdout.split())
    assert code == 0, done[0].stderr
    assert peak < _LIMIT, f"peak {peak / 2**20:.1f} MiB over the floor"
    assert done[1].stdout.split()[0] == "1"
    assert done[1].stderr.startswith(f"artcluster: error: {field} ")
    assert "above the 0.0625 GiB limit" in done[1].stderr


# ------------------------------------------------------------------ #
# The program entry: `python -m artcluster.cli` and the console script
# ------------------------------------------------------------------ #


def test_program_entry_passes_report_and_exit_codes_through(tmp_path, capsys, micro_file):
    spec = tmp_path / "study.json"
    spec.write_text(json.dumps({
        "dgp": {"sizes": [10] * 8, "beta": [0.0], "sigma": [1.0] * 8},
        "study": "size", "contrast": [1.0], "alpha": 0.1, "replications": 50,
    }))
    data = ["--input", micro_file, "--cluster", "cluster", "--outcome", "y", "--covariates", "x"]
    runs = [
        ["simulate", "--spec", str(spec)],  # 0
        ["test", *data, "--coef", "x", "--alpha", "2"],  # 1: usage
        ["test", *data, "--intercept", "--coef", "x"],  # 2: identification
        ["test", *data[:1], str(tmp_path / "absent.csv"), *data[2:], "--coef", "x"],  # 3: I/O
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artcluster.__file__)))
    env.pop("PYTHONUNBUFFERED", None)  # a pipe gets a block-buffered stdout, as for most users
    for expected_code, argv in enumerate(runs):
        code, out, err = run_cli(capsys, argv)
        done = subprocess.run([sys.executable, "-m", "artcluster.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        assert code == done.returncode == expected_code
        assert (done.stdout, done.stderr) == (out.encode(), err.encode())
        assert bool(out) == (expected_code == 0) != bool(err)


def test_console_script_names_the_main_block_entry():
    root = Path(artcluster.__file__).resolve().parents[2]
    script = re.search(r'^artcluster = "artcluster\.cli:(\w+)"$',
                       (root / "pyproject.toml").read_text(), re.MULTILINE)
    source = Path(artcluster.cli.__file__).read_text()
    assert script is not None and script.group(1) != "main"
    assert f'if __name__ == "__main__":\n    sys.exit({script.group(1)}())\n' in source
    assert callable(getattr(artcluster.cli, script.group(1)))


# A quote sends the file to the csv row path, whose reader refuses a cell
# over csv.field_size_limit(); the plain-file path has no such limit.
@pytest.mark.parametrize("command", ["test", "ci"])
def test_cell_over_csv_field_limit_exits_3_with_one_error_line(tmp_path, command):
    path = tmp_path / "long-label.csv"
    path.write_text('cluster,y,x\n"' + "a" * 140_000 + '",1.0,1.0\n' + MICRO_CSV.split("\n", 1)[1])
    done = _cli_in_subprocess([command, "--input", str(path), "--cluster", "cluster",
                               "--outcome", "y", "--covariates", "x", "--coef", "x"])
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.splitlines() == [
        "artcluster: error: line 2: field larger than field limit (131072)"
    ]
