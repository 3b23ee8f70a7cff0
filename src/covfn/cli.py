"""Command-line entry point: `covfn estimate` and `covfn simulate`.

Output is CSV (comment header lines starting with '#', then column names,
then rows) or a single JSON object {meta, columns, rows}.  All numbers are
rendered with 17 significant digits so files round-trip bit-faithfully,
and the metadata holds nothing volatile, so repeated runs with the same
seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import CovfnError, IoError, UsageError
from .estimators import MAX_K, EstimateReport, bias_reduced_estimate, valid_alpha
from .experiments import (
    CONFIG_KEYS,
    ExperimentConfig,
    ResultTable,
    build_b,
    run_experiment,
)
from .functions import parse_function_spec
from .sampling import RngStream, load_data_csv

__all__ = ["load_data_csv", "load_config", "run_cli", "console_main"]

_USAGE_EXIT = 1
_DATA_EXIT = 2


def _render_number(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")
        return format(f, ".17g")
    return str(v)


def _render_json(obj) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{_render_json(str(k))}: {_render_json(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        if isinstance(obj, (float, np.floating)) and not math.isfinite(float(obj)):
            return f'"{_render_number(obj)}"'
        return _render_number(obj)
    return json.dumps(str(obj), ensure_ascii=False)


def table_to_csv(table: ResultTable) -> str:
    seed = table.meta.get("seed", "")
    out = [f"# covfn {__version__} seed={seed}"]
    for key, val in table.meta.items():
        if key in ("tool", "version", "seed"):
            continue
        out.append(f"# {key}={_render_json(val)}")
    out.append(",".join(table.columns))
    for row in table.rows:
        out.append(",".join(_render_number(v) for v in row))
    return "\n".join(out) + "\n"


def table_to_json(table: ResultTable) -> str:
    obj = {
        "meta": table.meta,
        "columns": list(table.columns),
        "rows": [list(r) for r in table.rows],
    }
    return _render_json(obj) + "\n"


def report_to_table(rep: EstimateReport, b_factor: float) -> ResultTable:
    columns = (
        "functional_value", "estimator_kind", "k", "mc_stderr", "sigma_hat",
        "ci_lo", "ci_hi", "alpha", "n", "d", "chains", "b_normalization",
    )
    row = (
        rep.functional_value, rep.estimator_kind, rep.k, rep.mc_stderr,
        rep.sigma_hat, rep.ci[0], rep.ci[1], rep.alpha, rep.n, rep.d,
        rep.chains, b_factor,
    )
    meta = {
        "tool": "covfn",
        "version": __version__,
        "seed": rep.master_seed,
        "config": {
            "estimator": rep.estimator_kind, "k": rep.k, "alpha": rep.alpha,
            "chains": rep.chains, "seed": rep.master_seed,
        },
    }
    return ResultTable(columns=columns, rows=(row,), meta=meta)


def _int_tuple(s: str) -> tuple:
    return tuple(int(t) for t in s.split(","))


# type of an ExperimentConfig field's default -> parser of its config-file
# value; `experiment`, the one field without a default, is a str
_PARSERS = {tuple: _int_tuple, int: int, float: float, str: str}


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a flat key=value config file (# comments, UTF-8, BOM allowed).

    The keys are ``CONFIG_KEYS``; a key left out takes the
    ExperimentConfig default.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(
                f"{path}:{lineno}: unknown config key {key!r}; "
                f"allowed: {', '.join(CONFIG_KEYS)}"
            )
        raw[key] = val.strip()
    if overrides:
        for key, val in overrides.items():
            if key not in CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r} in --set")
            raw[key] = val
    if "experiment" not in raw:
        raise UsageError("config is missing the 'experiment' key")
    parsers = {
        fld.name: str if fld.default is dataclasses.MISSING
        else _PARSERS[type(fld.default)]
        for fld in dataclasses.fields(ExperimentConfig)
    }
    try:
        return ExperimentConfig(**{
            name: parsers[name](raw[key])
            for key, name in CONFIG_KEYS.items() if key in raw
        })
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # built once per process, not on every run_cli call
def _build_parser() -> _Parser:
    parser = _Parser(prog="covfn", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="estimate <f(Sigma), B> from a data CSV")
    est.add_argument("--data", required=True, help="CSV of observations, one per row")
    est.add_argument("--has-header", action="store_true")
    est.add_argument("--fn", default="identity",
                     help="scalar function spec, NAME[:p1,p2,...]")
    est.add_argument("--B", default="identity", dest="b",
                     help="identity | diag:v1,...,vd | linspace:lo,hi | "
                          "spiked:base,s1,... | rank1:INDEX | rank1vec:u1,...,ud | "
                          "file:PATH (nuclear-normalized)")
    est.add_argument("--k", type=int, default=0, help="bias-correction order")
    est.add_argument("--chains", type=int, default=200,
                     help="bootstrap chains per estimate (ignored for k=0 and for "
                          "identity, square, cube)")
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--format", choices=("csv", "json"), default="json")
    est.add_argument("--out", default="-", help="output path, '-' for stdout")

    sim = sub.add_parser("simulate", help="run a simulation experiment")
    sim.add_argument("--config", required=True, help="key=value config file")
    sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", default="-", help="output path, '-' for stdout")
    return parser


def _emit(text: str, out_path: str):
    if out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {out_path}: {exc}") from exc


def _cmd_estimate(args) -> ResultTable:
    if not 0 <= args.k <= MAX_K:
        raise UsageError(f"--k must be in [0, {MAX_K}], got {args.k}")
    if args.k > 0 and args.chains < 1:
        raise UsageError(f"--chains must be >= 1 when --k >= 1, got {args.chains}")
    if not valid_alpha(args.alpha):
        raise UsageError(f"--alpha must be in (2^-53, 1), got {args.alpha}")
    data = load_data_csv(args.data, args.has_header)
    f = parse_function_spec(args.fn)
    b, factor = build_b(args.b, data.d)
    rng = RngStream(args.seed)
    rep = bias_reduced_estimate(data, f, b, args.k, args.chains, rng, args.alpha)
    sampling_se = rep.sigma_hat / math.sqrt(rep.n)
    if sampling_se == 0 < rep.mc_stderr:  # no number of chains meets 10% of 0
        sys.stderr.write("warning: the sampling stderr is 0, so the Monte Carlo "
                         f"stderr {rep.mc_stderr:.3g} is the estimate's only error\n")
    elif rep.mc_stderr > 0.1 * sampling_se:
        ratio = rep.mc_stderr / sampling_se * 10.0  # N must grow by its square
        need = rep.chains * ratio * ratio  # a product: ** raises on overflow
        sys.stderr.write(
            f"warning: Monte Carlo stderr {rep.mc_stderr:.3g} exceeds 10% of "
            f"the sampling stderr {sampling_se:.3g}; by the 1/sqrt(N) law that "
            f"takes --chains {math.ceil(need) if need < 1e15 else f'{need:.3g}'}\n")
    return report_to_table(rep, factor)


def _cmd_simulate(args) -> ResultTable:
    overrides = {}
    for item in args.set:
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = val.strip()
    return run_experiment(load_config(args.config, overrides))


def run_cli(argv) -> int:
    """Parse argv (without the program name) and run; returns exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = _cmd_estimate if args.subcommand == "estimate" else _cmd_simulate
        # the library checks every result it returns and raises one
        # NumericOverflow naming the stage; numpy's warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            table = command(args)
        render = table_to_csv if args.format == "csv" else table_to_json
        _emit(render(table), args.out)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return _USAGE_EXIT
    except CovfnError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return _DATA_EXIT


def console_main():  # pragma: no cover - thin wrapper
    raise SystemExit(run_cli(sys.argv[1:]))
