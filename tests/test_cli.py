"""End-to-end CLI behavior: reports, exit codes, determinism, round trips."""

import json
import os
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
]


@pytest.mark.parametrize("csv_text, extra, expected_code, message", EXIT_CODE_CASES)
def test_documented_failure_exit_codes(tmp_path, capsys, csv_text, extra, expected_code, message):
    path = tmp_path / "data.csv"
    path.write_text(csv_text)
    argv = ["test", "--input", str(path), "--outcome", "y", "--covariates", "x", "--coef", "x"]
    code, out, err = run_cli(capsys, argv + extra)
    assert code == expected_code
    assert out == ""
    assert message in err


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
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artcluster.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "artcluster.cli", "simulate", "--spec", str(spec_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )


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
        ],
        ids=["list-null-value", "list-alpha", "null-replications", "scalar-sizes",
             "null-size-entries", "list-group", "scalar-spec"],
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

    def test_replications_bound_checked_before_group_is_drawn(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_group(*args):
            raise AssertionError("drew the group of a refused study")

        monkeypatch.setattr(artcluster.cli, "enumerate_group", no_group)
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
        # the 2^20 group is swept without its sign matrix: ~50-75 MB, not ~520 MB
        pytest.param("test", ["--group-mode", "exhaustive"], 200, id="test"),
        # ci holds a, b and the two bounds: ~73 MB, against ~139 MB when the
        # bounds took a dozen temporaries of the group's size
        pytest.param("ci", ["--group-mode", "exhaustive"], 100, id="ci"),
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
