"""Command-line front end.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 resource cap exceeded. CSV goes to stdout (header always included,
numeric fields with 9 significant digits); diagnostics go to stderr.
``--json`` switches to one JSON object per row; ``--nats`` converts
bit-valued outputs to nats on emission only. ``--seed`` (simulate), a
non-negative integer, seeds the codebooks; ``--max-dim`` (simulate,
besttype) overrides the cap on the dimension of the matrix decomposed at
blocklength n: for pure letters the codebook or type-class size while it
is at most d^n, the state dimension d^n otherwise. Every decomposed
matrix (d^n x d^n states and Gram matrices) has a fixed ceiling,
``config.MAX_TENSOR_DIM``, that ``--max-dim`` does not raise; ``simulate``
holds the codebook size M to it too. ``besttype`` on two pure letters or
on commuting letters decomposes nothing: it sums the distinct eigenvalues
of each type-class average in closed form, min(k, n - k) + 1 or one per
output type. ``--max-dim`` caps their number, and
``config.MAX_CLASS_ENTRIES``, which it does not raise, the table entries
of one blocklength; both are checked at ``--nmax`` before any type is built.
"""

from __future__ import annotations

import functools
import json as _json
import math
import sys

import click
import numpy as np

from .analysis import ChannelAnalysis, best_type_up_to, holevo_capacity, renyi_mi_channel
from .channel_io import load_channel
from .coding import estimate_exponent
from .config import DEFAULT_CONFIG, LN_BASE, MAX_CLASS_ENTRIES, MAX_TENSOR_DIM, RunConfig
from .divergences import renyi_mi_channel_prior
from .errors import (
    CqexpError,
    NumericalInstability,
    TooLarge,
)

VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3
RESOURCE_EXIT = 4


def _fail(code: int, message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TooLarge as exc:
            _fail(RESOURCE_EXIT, exc)
        except NumericalInstability as exc:
            _fail(NUMERICAL_EXIT, exc)
        except (CqexpError, ValueError) as exc:
            _fail(VALIDATION_EXIT, exc)

    return wrapper


MAX_DIM_HELP = (
    "Cap on the dimension of the matrix decomposed at blocklength n (default "
    f"{DEFAULT_CONFIG.max_sim_dim}). Values above {MAX_TENSOR_DIM} "
    f"(2^{MAX_TENSOR_DIM.bit_length() - 1}) do not raise the ceiling of the "
    "d^n x d^n states and Gram matrices, which exit 4 past it. besttype on two "
    "pure letters or on commuting letters decomposes nothing: there it caps the "
    "number of distinct eigenvalues of a type-class average, and the tables of "
    f"one blocklength have a fixed ceiling of {MAX_CLASS_ENTRIES} entries."
)


def _config(max_dim: int | None) -> RunConfig:
    """The run setting; RunConfig rejects a --max-dim below 1 (exit 2)."""
    return DEFAULT_CONFIG if max_dim is None else RunConfig(max_sim_dim=max_dim)


def _conv(x: float, nats: bool) -> float:
    return (x * LN_BASE if nats else x) + 0.0  # normalize -0.0


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x) + 0.0  # normalize -0.0
    return f"{v:.9g}"


def _json_value(v):
    """A cell as JSON takes it: a non-finite float, which RFC 8259 JSON
    cannot hold, becomes the token the CSV prints ("inf")."""
    if isinstance(v, (str, int)):
        return v
    v = float(v) + 0.0  # normalize -0.0
    return v if math.isfinite(v) else _fmt(v)


def _emit(header: list[str], rows: list[list], json_mode: bool) -> None:
    if json_mode:
        for row in rows:
            obj = {k: _json_value(v) for k, v in zip(header, row)}
            click.echo(_json.dumps(obj, separators=(",", ":")))
    else:
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(v if isinstance(v, str) else _fmt(v) for v in row))


def _parse_prior(raw: str) -> np.ndarray:
    try:
        return np.asarray([float(tok) for tok in raw.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"cannot parse prior {raw!r}: {exc}") from exc


def _parse_n_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse n list {raw!r}: {exc}") from exc
    if not values or any(n < 1 for n in values):
        raise ValueError("n list must contain positive integers")
    return values


@click.group()
def main() -> None:
    """Error-exponent toolkit for classical-quantum channels."""


@main.command()
@click.argument("channel_file", type=click.Path())
@click.option("--json", "json_mode", is_flag=True)
@click.option("--nats", is_flag=True)
@_guard
def capacity(channel_file, json_mode, nats) -> None:
    """Channel capacity (bits/use) with the optimizing input prior."""
    channel = load_channel(channel_file)
    report = holevo_capacity(channel)
    if not report.converged:
        _fail(NUMERICAL_EXIT, "capacity optimization did not converge")
    value = _conv(report.value, nats)
    prior = [float(p) for p in report.prior]
    if json_mode:
        click.echo(_json.dumps({"capacity": value, "prior": prior}, separators=(",", ":")))
    else:
        click.echo(f"capacity: {value:.6f}")
        click.echo("prior: " + ",".join(_fmt(p) for p in prior))


@main.command()
@click.argument("channel_file", type=click.Path())
@click.option("--alpha", type=float, required=True)
@click.option("--prior", "prior_raw", type=str, default=None,
              help="Comma-separated weights; omit to optimize over priors.")
@click.option("--json", "json_mode", is_flag=True)
@click.option("--nats", is_flag=True)
@_guard
def renyi(channel_file, alpha, prior_raw, json_mode, nats) -> None:
    """Renyi mutual information of order --alpha (alpha=1 gives Holevo)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    channel = load_channel(channel_file)
    if prior_raw is not None:
        prior = _parse_prior(prior_raw)
        value = renyi_mi_channel_prior(channel, prior, alpha)
    else:
        report = renyi_mi_channel(channel, alpha)
        if not report.converged:
            _fail(NUMERICAL_EXIT, "prior optimization did not converge")
        value, prior = report.value, report.prior
    value, prior = _conv(value, nats), [float(p) for p in prior]
    if json_mode:
        click.echo(_json.dumps({"alpha": alpha, "renyi_mi": value, "prior": prior}, separators=(",", ":")))
    else:
        click.echo(f"renyi_mi: {value:.6f}")
        if prior_raw is None:
            click.echo("prior: " + ",".join(_fmt(p) for p in prior))


@main.command()
@click.argument("channel_file", type=click.Path())
@click.option("--rmin", type=float, required=True)
@click.option("--rmax", type=float, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--json", "json_mode", is_flag=True)
@click.option("--nats", is_flag=True)
@_guard
def exponent(channel_file, rmin, rmax, steps, json_mode, nats) -> None:
    """Reliability-function bounds over a rate grid (CSV to stdout).

    Rows at or above capacity carry zero bounds and the above_capacity flag.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 < rmin < rmax < np.inf:
        raise ValueError(f"need 0 < rmin < rmax, both finite, got {rmin}, {rmax}")
    channel = load_channel(channel_file)
    session = ChannelAnalysis(channel)
    cap = session.capacity().value
    rc = session.critical_rate()
    rates = np.linspace(rmin, rmax, steps)
    inside = [float(r) for r in rates if r < cap]
    above = [float(r) for r in rates if r >= cap]
    rows: list[list] = []
    saturated_rates: list[float] = []
    if inside:
        curve = session.curve(inside)
        for row in curve.rows:
            if row.upper_saturated:
                saturated_rates.append(_conv(row.rate, nats))
            rows.append([
                _conv(row.rate, nats), _conv(row.lower, nats), _conv(row.upper, nats),
                "1" if row.equal else "0",
                row.alpha_lower, row.alpha_upper,
                _conv(rc, nats), _conv(cap, nats),
            ])
    for r in above:
        rows.append([
            _conv(r, nats), 0.0, 0.0, "above_capacity", 1.0, 1.0,
            _conv(rc, nats), _conv(cap, nats),
        ])
    header = ["r", "lower", "upper", "equal", "alpha_lower", "alpha_upper", "r_c", "capacity"]
    _emit(header, rows, json_mode)
    if saturated_rates:
        click.echo(
            "warning: sphere-packing search saturated at the alpha grid floor for rates "
            + ",".join(f"{r:.6g}" for r in saturated_rates),
            err=True,
        )


@main.command()
@click.argument("channel_file", type=click.Path())
@click.option("--rate", type=float, required=True, help="Communication rate in bits/use.")
@click.option("--n-list", "n_list_raw", type=str, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--max-dim", type=int, default=None, help=MAX_DIM_HELP)
@click.option("--json", "json_mode", is_flag=True)
@click.option("--nats", is_flag=True)
@_guard
def simulate(channel_file, rate, n_list_raw, trials, seed, max_dim, json_mode, nats) -> None:
    """Exact coding simulation: best/mean PGM errors against the bounds."""
    n_list = _parse_n_list(n_list_raw)
    channel = load_channel(channel_file)
    config = _config(max_dim)
    session = ChannelAnalysis(channel)
    lower = session.lower_bound(rate).value
    upper = session.upper_bound(rate).value
    estimates = estimate_exponent(
        channel, rate, n_list, trials, seed, config, analysis=session
    )
    header = ["n", "M", "best_pe", "mean_pe", "implied_exponent", "lower_bound", "upper_bound"]
    rows = [
        [
            est.n, est.size, est.best_pe, est.mean_pe,
            _conv(est.implied_exponent, nats), _conv(lower, nats), _conv(upper, nats),
        ]
        for est in estimates
    ]
    _emit(header, rows, json_mode)


@main.command()
@click.argument("channel_file", type=click.Path())
@click.option("--alpha", type=float, required=True)
@click.option("--nmax", type=int, required=True)
@click.option("--max-dim", type=int, default=None, help=MAX_DIM_HELP)
@click.option("--json", "json_mode", is_flag=True)
@click.option("--nats", is_flag=True)
@_guard
def besttype(channel_file, alpha, nmax, max_dim, json_mode, nats) -> None:
    """Best constant-composition information for blocklengths up to n = 1..nmax.

    Each row reports the best type over blocklengths m <= n, so the value
    column is non-decreasing (the exact per-n maximum oscillates with
    blocklength parity).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    channel = load_channel(channel_file)
    config = _config(max_dim)
    report = renyi_mi_channel(channel, alpha)
    if not report.converged:
        _fail(NUMERICAL_EXIT, "prior optimization did not converge")
    header = ["n", "best_type", "value_per_use", "I_alpha_target"]
    rows = []
    for n, t, value in best_type_up_to(channel, nmax, alpha, config):
        rows.append([
            n, "|".join(str(c) for c in t.counts),
            _conv(value, nats), _conv(report.value, nats),
        ])
    _emit(header, rows, json_mode)


if __name__ == "__main__":
    main()
