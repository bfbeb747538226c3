"""Command-line interface.

Subcommands
-----------
supgain       sup gain per criterion for one moment model
errorbound    certified rates and asymptotic error bounds at a working gain
simulate      seeded Monte Carlo run of the LMS recursion
report        benchmark tables (table3.csv, table4.csv) into --out-dir
ingest-check  parse a data table, apply a regressor recipe, summarize moments

Every subcommand accepts ``--config FILE`` holding the same keys as the
flags (INI sections organize the file; keys are flag names with dashes
replaced by underscores; flags override the file).  Exactly one moment
source must resolve: a bundled benchmark (--model), a two-dimensional
Gaussian law (--sigma1/--sigma2/--rho), printed moment matrices
(--moments-file: 2m rows of m numbers, second moment stacked over fourth
moment), or a data table with a recipe (--data/--recipe).

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure
(the LAPACK eigensolver did not converge, or a certificate failed its
independent re-check by a shifted Cholesky).  Output formats:
table (4 decimals), csv (full precision), jsonl (infinities as null with an
"infinite" flag).
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, presets, report
from .bounds import CriterionKind
from .ingest import (ColumnOutOfRange, RegressorRecipe, build_design,
                     parse_table, write_canonical_csv)
from .linalg import NonConvergence
from .moments import (GaussianSpec, MomentModel, UnsupportedOperator,
                      empirical_moment_model, explicit_moment_model,
                      gaussian_moment_model)
from .report import CRITERIA_ORDER, Cell, Table
from .simulate import SimConfig, run_lms

# Every library error for bad input is a ValueError, except the last two;
# the CLI's own input checks raise ValueError too, so that each prints one
# ``error:`` line (click's own parse errors keep click's usage block).
_INPUT_ERRORS = (ValueError, OSError, ColumnOutOfRange, UnsupportedOperator)

# Config keys named unlike the parameter they set.
_CONFIG_RENAMES = {"format": "fmt", "init": "init_law"}


# Every click.echo names its stream: click's default-stream lookup caches a
# wrapper per sys.stdout object and never frees it, so each in-process
# invocation (click.testing.CliRunner) would leave its output alive.
def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _load_config(ctx: click.Context, param, path):
    """Eager --config callback: the file's keys become the command defaults."""
    if path is None:
        return None
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        _fail(2, f"config file {path!r}: {exc}")
    if not read:
        _fail(2, f"config file {path!r} not found")
    merged: dict[str, str] = dict(parser.defaults())
    for section in parser.sections():
        merged.update(parser[section])
    ctx.default_map = {_CONFIG_RENAMES.get(k, k): v for k, v in merged.items()}
    return path


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError:
        raise ValueError(
            f"bad vector {text!r}; expected comma-separated numbers") from None


def _load_moments_file(path: str) -> MomentModel:
    table = parse_table(path)
    rows, cols = table.values.shape
    if rows != 2 * cols:
        raise ValueError(f"moments file must stack S over M4 (2m rows of m "
                         f"numbers); got {rows} rows of {cols}")
    return explicit_moment_model(table.values[:cols], table.values[cols:])


def _resolve_model(model, sigma1, sigma2, rho, moments_file, data,
                   recipe) -> tuple[str, MomentModel]:
    gaussian = sigma1 is not None or sigma2 is not None or rho is not None
    sources = [model is not None, gaussian, moments_file is not None,
               data is not None]
    if sum(sources) != 1:
        raise ValueError(
            "exactly one moment source is required: --model, "
            "--sigma1/--sigma2/--rho, --moments-file, or --data/--recipe")
    if model is not None:
        try:
            return model, presets.benchmark_model(model)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    if gaussian:
        if sigma1 is None or sigma2 is None:
            raise ValueError("--sigma1 and --sigma2 are both required")
        spec = GaussianSpec.from_two_dim(sigma1, sigma2,
                                         0.0 if rho is None else rho)
        return f"gaussian({sigma1},{sigma2},{spec.covariance[0,1]/ (sigma1*sigma2):g})", \
            gaussian_moment_model(spec)
    if moments_file is not None:
        return Path(moments_file).name, _load_moments_file(moments_file)
    if recipe is None:
        raise ValueError("--data needs --recipe")
    raw = parse_table(data)
    design = build_design(raw, RegressorRecipe.parse(recipe))
    return Path(data).name, empirical_moment_model(design)


def _emit(table: Table, fmt: str) -> None:
    render = {"table": table.to_text, "csv": table.to_csv, "jsonl": table.to_jsonl}
    click.echo(render[fmt](), file=sys.stdout, nl=False)


_config_option = click.option(
    "--config", type=click.Path(), is_eager=True, expose_value=False,
    callback=_load_config, help="INI config; flags override its keys.")
_mode_option = click.option("--mode", type=click.Choice(["strict", "relaxed"]),
                            default="relaxed")
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["table", "csv", "jsonl"]),
    default="table")

_seed_option = click.option("--seed", type=click.IntRange(min=0),
                            default=presets.DEFAULT_MASTER_SEED)
_reps_option = click.option("--reps", type=click.IntRange(min=1),
                            default=presets.REPLICATIONS)
_iters_option = click.option("--iters", type=click.IntRange(min=1),
                             default=presets.K_MAX, help="steps per replication")


def _model_options(f):
    for opt in reversed([
        _config_option,
        click.option("--model", default=None,
                     help="bundled benchmark name (1A, 1B, 1C, 1D, reed)"),
        click.option("--sigma1", type=float, default=None),
        click.option("--sigma2", type=float, default=None),
        click.option("--rho", type=float, default=None),
        click.option("--moments-file", type=click.Path(), default=None),
        click.option("--data", type=click.Path(), default=None),
        click.option("--recipe", default=None,
                     help='e.g. "column(0), square(0), constant(1)"'),
    ]):
        f = opt(f)
    return f


class _Main(click.Group):
    """Maps library errors to the documented exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except NonConvergence as exc:
            _fail(3, str(exc))
        except _INPUT_ERRORS as exc:
            _fail(2, str(exc))


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="lmsbound")
def main():
    """Certified constant-gain bounds and error bounds for LMS."""


@main.command()
@_model_options
@click.option("--criteria", default=None,
              help="comma list: theorem1,corollary2,widrow_lambda_max,"
                   "widrow_trace,zhu_criterion")
@_mode_option
@_format_option
def supgain(criteria, mode, fmt, **source):
    """Largest admissible constant gain per criterion for one model."""
    name, moment_model = _resolve_model(**source)
    kinds = list(CRITERIA_ORDER)
    if criteria is not None:
        kinds = [CriterionKind.from_name(tok.strip())
                 for tok in criteria.split(",") if tok.strip()]
        if not kinds or len(set(kinds)) < len(kinds):
            raise ValueError(f"--criteria must name distinct criteria, got {criteria!r}")
    results = report.supgain_results((name,), kinds, mode=mode,
                                     models={name: moment_model})
    table = Table(f"supgain:{name}",
                  ("sup_gain", "slack", "p_min_eigenvalue", "flags", "note"))
    for kind in kinds:
        r = results[(name, kind)]
        if r is None:
            table.add_row(kind.value, [Cell(text="skipped"), Cell(), Cell(), Cell(),
                                       Cell(text=report.SKIPPED_NOTE)])
            continue
        flags = [flag for flag, on in (("inapplicable", r.inapplicable),
                                       ("tolerance-limited", r.tolerance_limited),
                                       ("strictly-infeasible", r.strictly_infeasible))
                 if on]
        cert = r.certificate
        table.add_row(kind.value, [
            Cell(value=r.sup_gain),
            Cell(value=cert.slack) if cert else Cell(),
            Cell(value=cert.p_min_eigenvalue) if cert else Cell(),
            Cell(text=";".join(flags)),
            Cell(text=r.note),
        ])
    _emit(table, fmt)


@main.command()
@_model_options
@click.option("--xi", type=float, default=presets.XI, help="gain backoff from sup")
@click.option("--gain", type=float, default=None,
              help="working gain (default: corollary2 sup minus xi)")
@click.option("--sigma-eps", type=float, default=presets.SIGMA_EPS)
@_mode_option
@_format_option
def errorbound(xi, gain, sigma_eps, mode, fmt, **source):
    """Certified rates and asymptotic error bounds at the working gain."""
    name, moment_model = _resolve_model(**source)
    if not (xi > 0 and np.isfinite(xi)):
        raise ValueError(f"xi must be positive and finite, got {xi}")
    results = {} if gain is not None else report.supgain_results(
        (name,), (CriterionKind.COROLLARY2,), mode=mode, models={name: moment_model})
    table = report.build_errorbound_table(
        (name,), models={name: moment_model}, results=results, mode=mode, xi=xi,
        sigma_eps=sigma_eps, gain=gain)
    _emit(dataclasses.replace(table, name=f"errorbound:{name}",
                              columns=("value",)), fmt)


@main.command()
@_model_options
@click.option("--gain", type=float, default=None)
@click.option("--sigma-eps", type=float, default=presets.SIGMA_EPS)
@click.option("--theta-star", default=None, help="comma-separated true parameter")
@click.option("--init", "init_law", default="normal",
              help='"normal" (default), "zeros", or comma-separated vector')
@_iters_option
@_reps_option
@_seed_option
@_format_option
def simulate(gain, sigma_eps, theta_star, init_law, iters, reps, seed, fmt,
             **source):
    """Monte Carlo LMS run; echoes the resolved protocol for reproducibility."""
    name, moment_model = _resolve_model(**source)
    if gain is None:
        raise ValueError("--gain is required for simulate")
    dim = moment_model.dim
    star = (_parse_vector(theta_star) if theta_star is not None
            else presets.protocol_theta_star(dim))
    if init_law == "normal":
        init = "standard_normal"
    elif init_law == "zeros":
        init = np.zeros(dim)
    else:
        init = _parse_vector(init_law)
    sim = run_lms(SimConfig(
        model=moment_model, theta_star=star, gain=gain,
        sigma_eps=sigma_eps, k_max=iters, replications=reps,
        master_seed=seed, init=init))

    resolved = {
        "model": name, "gain": gain, "sigma_eps": sigma_eps,
        "theta_star": list(map(float, star)),
        "init": init_law, "iters": iters, "replications": reps,
        "master_seed": seed,
    }
    summary = {
        "terminal_mse": sim.terminal_mse, "terminal_se": sim.terminal_se,
        "classification": sim.classification,
        "diverged_count": sim.diverged_count,
    }
    if fmt == "jsonl":
        click.echo(json.dumps({"config": resolved}, sort_keys=True), file=sys.stdout)
        for i, value in enumerate(sim.per_replication):
            click.echo(json.dumps({
                "replication": i,
                "terminal_sq_error": None if not np.isfinite(value) else float(value),
                **({"infinite": True} if not np.isfinite(value) else {}),
            }, sort_keys=True), file=sys.stdout)
        click.echo(json.dumps({"summary": summary}, sort_keys=True), file=sys.stdout)
    elif fmt == "csv":
        keys = list(resolved) + list(summary)
        values = {**resolved, **summary}

        def cell(v) -> str:
            if isinstance(v, float):
                return Cell(value=v).render()
            if isinstance(v, list):
                return '"' + ",".join(repr(float(x)) for x in v) + '"'
            return str(v)

        click.echo(",".join(keys), file=sys.stdout)
        click.echo(",".join(cell(values[k]) for k in keys), file=sys.stdout)
    else:
        for key, value in {**resolved, **summary}.items():
            click.echo(f"{key} = {value}", file=sys.stdout)


@main.command(name="report")
@_config_option
@click.option("--out-dir", type=click.Path(), default="reports")
@_seed_option
@_reps_option
@_iters_option
@_mode_option
@click.option("--skip-simulation", is_flag=True, default=False,
              help="omit classification and simulation rows (fast)")
def report_command(out_dir, seed, reps, iters, mode, skip_simulation):
    """Write the benchmark sup-gain and error-bound tables as CSV files."""
    path3, path4 = report.write_benchmark_reports(
        out_dir, mode=mode, master_seed=seed, k_max=iters,
        replications=reps, simulate=not skip_simulation)
    click.echo(str(path3), file=sys.stdout)
    click.echo(str(path4), file=sys.stdout)


@main.command(name="ingest-check")
@_config_option
@click.option("--data", type=click.Path(), default=None)
@click.option("--recipe", default=None)
@click.option("--response-col", type=int, default=None)
@click.option("--out", type=click.Path(), default=None,
              help="write the design matrix as canonical CSV")
@_format_option
def ingest_check(data, recipe, response_col, out, fmt):
    """Parse a table, build the design matrix, summarize its moments."""
    if data is None or recipe is None:
        raise ValueError("--data and --recipe are required")
    raw = parse_table(data)
    parsed = RegressorRecipe.parse(recipe)
    design = build_design(raw, parsed, response_col)
    values = empirical_moment_model(design).second_moment_eigenvalues
    if out is not None:
        write_canonical_csv(design.rows, out)
    table = Table(f"ingest:{Path(data).name}", ("value",))
    table.add_row("rows", [Cell(value=float(design.n))])
    table.add_row("columns", [Cell(value=float(design.dim))])
    table.add_row("header_skipped", [Cell(text=str(raw.header_skipped))])
    table.add_row("recipe", [Cell(text=parsed.describe())])
    table.add_row("second_moment_min_eig", [Cell(value=float(values[0]))])
    table.add_row("second_moment_max_eig", [Cell(value=float(values[-1]))])
    table.add_row("has_responses", [Cell(text=str(design.responses is not None))])
    _emit(table, fmt)


if __name__ == "__main__":
    main()
