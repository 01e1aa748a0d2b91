"""Command-line interface.

Subcommands: ``test`` (randomization test of a scalar restriction),
``ci`` (closed-form confidence interval), ``simulate`` (Monte Carlo
size/power study from a JSON spec), ``blocks`` (pseudo-cluster block
plans), ``export`` (canonical CSV).  Each run emits one JSON document on
stdout (or ``--output``); identical configurations produce identical
bytes.

Exit codes: 0 success, 1 usage error, 2 identification or estimation
failure, 3 I/O failure; each package error carries its own in
``exit_code``.  ``ARTCLUSTER_SEED`` supplies the default seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from artcluster.blocks import plan_blocks
from artcluster.errors import ArtClusterError, IdentificationFailure, check_bytes
from artcluster.estimation import fit_per_cluster
from artcluster.groups import check_seed, enumerate_group
from artcluster.intervals import interval, interval_inputs
from artcluster.io import (
    RunConfig,
    export_csv,
    ingest,
    render_report,
    resolve_contrast,
)
from artcluster.model import LinearHypothesis
from artcluster.randtest import run_test_from_scores, scores_from_estimates
from artcluster.simulation import run_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    raw = os.environ.get("ARTCLUSTER_SEED", "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ARTCLUSTER_SEED must be an integer, got {raw!r}") from None


def _floats(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")


def _ints(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated list of integers, got {text!r}")


def _names(text: str) -> tuple:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ValueError(f"expected a comma-separated list of names, got {text!r}")
    return names


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ------------------------------------------------------------------ #
# Parser construction
# ------------------------------------------------------------------ #


def _add_data_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="CSV file with a header row")
    parser.add_argument("--cluster", help="cluster label column")
    parser.add_argument("--outcome", required=True, help="outcome column")
    parser.add_argument(
        "--covariates", required=True, help="comma-separated covariate columns"
    )
    parser.add_argument(
        "--intercept",
        action="store_true",
        help="prepend a column of ones named 'intercept'",
    )
    parser.add_argument(
        "--blocks",
        metavar="Q[,Q...]",
        help="time-series mode: form Q pseudo-clusters of consecutive rows; "
        "a comma-separated list runs the analysis once per Q",
    )
    parser.add_argument("--time", help="sortable time column (blocks mode)")


def _add_group_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--group-mode",
        choices=["auto", "exhaustive", "sampled"],
        default="auto",
        help="sign-group construction (auto: exhaustive for q <= 14)",
    )
    parser.add_argument("--draws", type=int, default=1000, help="sampled-mode size B")
    parser.add_argument(
        "--seed", type=int, default=None, help="sampling seed (default: ARTCLUSTER_SEED or 0)"
    )


def _add_contrast_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--contrast", help="comma-separated contrast vector c")
    parser.add_argument("--coef", help="covariate name (unit-vector contrast)")


def build_parser() -> _Parser:
    parser = _Parser(prog="artcluster", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_test = sub.add_parser("test", help="randomization test of contrast'beta = null")
    _add_data_options(p_test)
    _add_contrast_options(p_test)
    p_test.add_argument("--null", type=float, default=0.0, help="hypothesized value")
    p_test.add_argument("--alpha", type=float, default=0.05)
    _add_group_options(p_test)
    p_test.add_argument(
        "--variant", choices=["unstudentized", "studentized"], default="unstudentized"
    )
    p_test.add_argument(
        "--scaling",
        choices=["root-nj", "root-n"],
        default="root-nj",
        help="per-cluster score scale factor",
    )
    p_test.add_argument(
        "--table", action="store_true", help="aligned text summary instead of JSON"
    )
    p_test.add_argument("--output", help="write the report here instead of stdout")
    p_test.set_defaults(handler=cmd_test)

    p_ci = sub.add_parser("ci", help="confidence interval for contrast'beta")
    _add_data_options(p_ci)
    _add_contrast_options(p_ci)
    p_ci.add_argument("--alpha", type=float, default=0.05)
    _add_group_options(p_ci)
    p_ci.add_argument(
        "--table", action="store_true", help="aligned text summary instead of JSON"
    )
    p_ci.add_argument("--output", help="write the report here instead of stdout")
    p_ci.set_defaults(handler=cmd_ci)

    p_sim = sub.add_parser("simulate", help="Monte Carlo size/power study")
    p_sim.add_argument("--spec", required=True, help="JSON study specification")
    p_sim.add_argument("--output", help="write the report here instead of stdout")
    p_sim.set_defaults(handler=cmd_simulate)

    p_blocks = sub.add_parser("blocks", help="pseudo-cluster block plans")
    p_blocks.add_argument("--n", type=int, required=True, help="observation count")
    p_blocks.add_argument("--q", required=True, help="comma-separated block counts")
    p_blocks.add_argument(
        "--table", action="store_true", help="aligned text table instead of JSON"
    )
    p_blocks.add_argument("--output", help="write the report here instead of stdout")
    p_blocks.set_defaults(handler=cmd_blocks)

    p_export = sub.add_parser("export", help="write the canonicalized dataset")
    _add_data_options(p_export)
    p_export.add_argument("--output", required=True, help="destination CSV")
    p_export.set_defaults(handler=cmd_export)

    return parser


# ------------------------------------------------------------------ #
# Commands
# ------------------------------------------------------------------ #


def _config_from_args(args, **overrides) -> RunConfig:
    seed = args.seed if getattr(args, "seed", None) is not None else _default_seed()
    check_seed(seed)
    blocks = None if args.blocks is None else _ints(args.blocks)
    fields = dict(
        input_path=args.input,
        cluster_col=args.cluster,
        outcome_col=args.outcome,
        covariate_cols=_names(args.covariates),
        intercept=args.intercept,
        contrast=_floats(args.contrast) if getattr(args, "contrast", None) else None,
        coefficient=getattr(args, "coef", None),
        alpha=getattr(args, "alpha", 0.05),
        group_mode=getattr(args, "group_mode", "auto"),
        draws=getattr(args, "draws", 1000),
        seed=seed,
        blocks_q=blocks[0] if blocks is not None and len(blocks) == 1 else blocks,
        time_col=args.time,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def _run_command(args, command: str, build_result, columns, **overrides) -> int:
    """Shared body of ``test`` and ``ci``: check, parse once, then analyse each block count.

    The flags and the contrast are checked before the file is read, then
    ``ingest`` checks the columns before any row and reads the rows in
    file order.  Per block count the stages run dataset -> group -> fit,
    and that order fixes which error wins: a group that is too large is
    reported before an identification failure in the fits.
    """
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("--alpha must lie strictly between 0 and 1")
    config = _config_from_args(args, **overrides)
    contrast = resolve_contrast(config, config.covariate_names())
    table = ingest(config.input_path, config)
    sweep = isinstance(config.blocks_q, tuple)
    runs = []
    for q in config.blocks_q if sweep else (config.blocks_q,):
        data = table.dataset(q)
        group = enumerate_group(data.q, config.group_mode, config.draws, config.seed)
        estimates = fit_per_cluster(data)
        run = build_result(config, table.names, contrast, group, estimates)
        runs.append({"blocks": q, **run} if sweep else run)
    if args.table:
        text = _table(runs, columns)
    else:
        text = render_report(command, config, {"by_blocks": runs} if sweep else runs[0])
    _emit(text, args.output)
    return EXIT_OK


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


# Text-table columns: (title, key, width); a missing key prints as "-".
_TEST_COLUMNS = (("blocks", "blocks", 8), ("statistic", "statistic", 12),
                 ("crit", "critical_value", 12), ("p-value", "p_value", 10), ("reject", "reject", 7))
_CI_COLUMNS = (("blocks", "blocks", 8), ("center", "lambda0", 12), ("lower", "lower", 12),
               ("upper", "upper", 12))
_BLOCKS_COLUMNS = (("q", "q", 6), ("base", "base_size", 8), ("last", "last_size", 8))


def _table(rows: list, columns) -> str:
    lines = [" ".join(f"{title:>{width}}" for title, _, width in columns)]
    for row in rows:
        lines.append(" ".join(f"{_fmt(row.get(key, '-')):>{width}}" for _, key, width in columns))
    return "\n".join(lines) + "\n"


def _test_result(config: RunConfig, names, contrast, group, estimates) -> dict:
    hypothesis = LinearHypothesis(contrast=contrast, value=config.null_value)
    scores = scores_from_estimates(estimates, hypothesis, config.scaling)
    result = run_test_from_scores(scores, config.alpha, group, config.variant)

    notes = []
    if group.forced_ties / group.size > config.alpha:
        floor = f"{group.forced_ties}/{group.size}"
        if group.mode == "sampled":  # drawn +-identity rows can only raise it
            floor = f"(at least {floor})"
        notes.append(
            f"trivial power: the smallest attainable p-value {floor} "
            f"exceeds alpha={config.alpha}; the test can never reject"
        )
    return {
        "statistic": result.statistic,
        "critical_value": result.critical_value,
        "p_value": result.p_value,
        "reject": result.reject,
        "alpha": result.alpha,
        "variant": result.variant,
        "scaling": config.scaling,
        "group": group.describe(),
        "per_cluster": [
            {
                "label": str(estimates.labels[j]),
                "size": int(estimates.sizes[j]),
                "beta": estimates.betas[j],
                "score": float(scores[j]),
            }
            for j in range(estimates.q)
        ],
        "covariates": names,
        "warnings": notes,
    }


def _ci_result(config: RunConfig, names, contrast, group, estimates) -> dict:
    inputs = interval_inputs(estimates, contrast, group)
    ci = interval(inputs, config.alpha)

    notes = []
    if not ci.is_bounded:
        ties = np.count_nonzero(inputs.pm_identity) * (group.size // group.rows)
        floor = f"{ties}/{group.size}"
        notes.append(
            "unbounded interval: alpha is at or below the smallest attainable "
            f"p-value {floor}, so infinite endpoints are forced"
        )
    return {
        "lambda0": ci.lambda0,
        "lower": ci.lower,
        "upper": ci.upper,
        "alpha": ci.alpha,
        "bounded": ci.is_bounded,
        "group": group.describe(),
        "covariates": names,
        "warnings": notes,
    }


def cmd_test(args) -> int:
    scaling = args.scaling.replace("-", "_")
    return _run_command(args, "test", _test_result, _TEST_COLUMNS,
                        null_value=args.null, variant=args.variant, scaling=scaling)


def cmd_ci(args) -> int:
    return _run_command(args, "ci", _ci_result, _CI_COLUMNS)


def cmd_simulate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    resolved, report = run_spec(doc, _default_seed())
    keys = ("rate", "mc_stderr", "replications", "rejections", "p_values")
    payload = {key: getattr(report, key) for key in keys}
    _emit(render_report("simulate", {"spec_path": args.spec, **resolved}, payload), args.output)
    return EXIT_OK


def cmd_blocks(args) -> int:
    counts = _ints(args.q)
    # a plan and its report hold about 600 B per block, plus 6 B per digit of n
    check_bytes(f"--q {args.q}", sum(max(q, 0) for q in counts) * (600 + 6 * len(str(args.n))))
    plans = [
        {
            "q": plan.q,
            "base_size": plan.base_size,
            "last_size": plan.last_size,
            "boundaries": [list(pair) for pair in plan.boundaries],
        }
        for plan in (plan_blocks(args.n, q) for q in counts)
    ]
    if args.table:
        text = _table(plans, _BLOCKS_COLUMNS)
    else:
        config = {"n": args.n, "q": list(counts)}
        text = render_report("blocks", config, {"n": args.n, "plans": plans})
    _emit(text, args.output)
    return EXIT_OK


def cmd_export(args) -> int:
    config = _config_from_args(args)
    if isinstance(config.blocks_q, tuple):
        raise ValueError("export accepts a single --blocks value")
    table = ingest(config.input_path, config)
    data = table.dataset(config.blocks_q)
    export_csv(
        data,
        table.names,
        args.output,
        cluster_name=config.cluster_col or "cluster",
        outcome_name=config.outcome_col,
    )
    payload = {
        "rows": data.n,
        "clusters": data.q,
        "covariates": table.names,
        "output": args.output,
    }
    _emit(render_report("export", config, payload), None)
    return EXIT_OK


# ------------------------------------------------------------------ #
# Entry point
# ------------------------------------------------------------------ #


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except ArtClusterError as exc:
        print(f"artcluster: error: {exc}", file=sys.stderr)
        if isinstance(exc, IdentificationFailure):
            print(
                "artcluster: remedies: merge clusters so the covariate varies within "
                "the combined groups (clustering more coarsely), or respecify the model",
                file=sys.stderr,
            )
        return exc.exit_code
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"artcluster: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"artcluster: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def run() -> int:
    """Program entry: :func:`main`'s exit code, with the heap frozen so that
    the interpreter's shutdown skips collecting what it is about to drop."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
