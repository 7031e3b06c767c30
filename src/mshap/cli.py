"""Command-line surface: combine, score, simulate, bench, summary-data.

Every flag can also come from an ``MSHAP_<FLAG>`` environment variable or a
JSON config file; precedence is flag > environment > config > default, and
the fully-resolved configuration of each run is echoed into the output
directory so the run can be reproduced by feeding that file back through
``--config``.  Exit codes: 0 success, 2 usage or config error, 3 data or
validation error or out of memory.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import platform
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .combine import AlphaMethod, _check_alignment, combine, mean_product_baseline
from .errors import DimensionError, InvalidInputError, MshapError, TableFormatError
from .scoring import ScoreParams, score_matrices
from .shapley import SPLICE_BUDGET_BYTES
from .simulation import (
    BENCH_COLUMNS,
    RESULT_COLUMNS,
    CovariateSpec,
    ScenarioSpec,
    bench_scaling,
    default_grid,
    grid_table,
    run_grid,
)
from . import tables
from .tables import (
    explanation_to_table,
    fmt17,
    read_shap_table,
    read_value_table,
    write_csv,
    write_json,
    write_records,
    write_shap_table,
)

# only for benchmarks/layer_trace.py, which wraps this name; cli writes through tables
_atomic_write_text = tables._atomic_write_text

ENV_PREFIX = "MSHAP_"
_METHOD_NAMES = "|".join(m.value for m in AlphaMethod)


class UsageError(Exception):
    """Bad flags or config; reported before any work starts."""


def _as_str(v) -> str:
    if not isinstance(v, str):
        raise UsageError(f"expected a string, got {v!r}")
    return v


def _as_float(v) -> float:
    try:
        if isinstance(v, bool):
            raise TypeError
        return float(v)
    except (TypeError, ValueError, OverflowError):  # an integer past float range overflows
        raise UsageError(f"expected a number, got {v!r}") from None


def _as_int(v) -> int:
    try:
        if isinstance(v, bool):
            raise TypeError
        out = int(str(v))
    except (TypeError, ValueError):
        raise UsageError(f"expected an integer, got {v!r}") from None
    return out


def _as_int_from(low: int) -> Callable[[Any], int]:
    def parse(v) -> int:
        out = _as_int(v)
        if out < low:
            raise UsageError(f"expected an integer >= {low}, got {v!r}")
        return out
    return parse


_as_positive_int = _as_int_from(1)
_as_seed = _as_int_from(0)


def _as_mu_h(v):
    if isinstance(v, str) and v.strip().lower() == "auto":
        return "auto"
    return _as_float(v)


def _as_method(v) -> str:
    name = str(v).lower()
    if name not in {m.value for m in AlphaMethod}:
        raise UsageError(f"method must be one of {_METHOD_NAMES}, got {v!r}")
    return name


def _as_json(v):
    return v


def _as_list(v, parse) -> list:
    """A nonempty list, or a comma- or space-separated string, each item through ``parse``."""
    items = v.replace(",", " ").split() if isinstance(v, str) else v
    if not isinstance(items, (list, tuple)) or not items:
        raise UsageError(f"expected a list of at least one value, got {v!r}")
    return [parse(x) for x in items]


_as_positive_int_list = partial(_as_list, parse=_as_positive_int)


def _as_covariates(v) -> CovariateSpec:
    try:
        return CovariateSpec(tuple((_as_float(lo), _as_float(hi)) for lo, hi in v))
    except (TypeError, ValueError):
        raise UsageError(f"expected a list of [lo, hi] pairs, got {v!r}") from None


@dataclass(frozen=True)
class Option:
    name: str
    parse: Callable[[Any], Any]
    default: Any = None
    required: bool = False
    flag: bool = True
    help: str = ""


_COMMON = [
    Option("config", _as_str, flag=True, help="JSON config file with any of this command's keys"),
    Option("out_dir", _as_str, default=".", help="directory for output files and the config echo"),
]
# parsed as an integer >= 1 and echoed, never used: the benchmark still passes --threads 1
_THREADS = Option("threads", _as_positive_int, default=1, help="ignored; kept only while the benchmark passes it")

OPTIONS: dict[str, list[Option]] = {
    "combine": _COMMON + [
        Option("f_shap", _as_str, required=True, help="first part's SHAP table (.csv with .meta.json)"),
        Option("g_shap", _as_str, required=True, help="second part's SHAP table"),
        Option("mu_h", _as_mu_h, default="auto",
               help="mean product prediction, or 'auto' to average the tables' prediction products"),
        Option("method", _as_method, default="absolute", help=_METHOD_NAMES),
        _THREADS,
    ],
    "score": _COMMON + [
        Option("candidate", _as_str, required=True, help="candidate SHAP table"),
        Option("reference", _as_str, required=True, help="reference SHAP table"),
        Option("theta1", _as_float, default=1.5, help="direction slack"),
        Option("theta2", _as_float, default=1.0, help="value slack"),
    ],
    "simulate": _COMMON + [
        Option("seed", _as_seed, default=0, help="grid seed; per-cell seeds derive from it"),
        _THREADS,
        Option("grid", _as_json, flag=False, help="config-only: cartesian grid parameters"),
        Option("scenarios", _as_json, flag=False, help="config-only: explicit scenario list"),
    ],
    "bench": _COMMON + [
        Option("seed", _as_seed, default=0),
        Option("p_values", _as_positive_int_list, default=list(range(2, 13)), help="feature counts to benchmark"),
        Option("n_values", _as_positive_int_list, default=[50], help="row counts to benchmark"),
        Option("background_size", _as_positive_int, default=100),
        Option("n_permutations", _as_positive_int, default=100),
        Option("repetitions", _as_positive_int, default=5),
    ],
    "summary-data": _COMMON + [
        Option("mshap", _as_str, required=True, help="combined attribution table"),
        Option("covariates", _as_str, required=True, help="covariate value table aligned with it"),
    ],
}

# the keys of one ``scenarios`` cell are ScenarioSpec's fields, and those of a
# ``grid`` are default_grid's parameters, so each default lives in the library
_CELL = [
    Option("y1", _as_str, required=True),
    Option("y2", _as_str, required=True),
    Option("theta1", _as_float, required=True),
    Option("theta2", _as_float, required=True),
    Option("n", _as_int),
    Option("background_size", _as_int),
    Option("covariates", _as_covariates),
    Option("seed", _as_seed),
]
# a grid takes every cell key but the seed, with each required key as a list axis
_GRID = [
    Option(opt.name, partial(_as_list, parse=opt.parse)) if opt.required else opt
    for opt in _CELL
    if opt.name != "seed"
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mshap",
        description="Attribution toolkit for two-part (product-of-outputs) models",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in OPTIONS.items():
        sub = subs.add_parser(name, help=f"{name} subcommand")
        for opt in options:
            if opt.flag:
                sub.add_argument(
                    "--" + opt.name.replace("_", "-"),
                    dest=opt.name,
                    default=None,
                    metavar=opt.name.upper(),
                    help=opt.help,
                )
    return parser


def _load_config(path: str, subcommand: str) -> dict:
    try:
        config = tables.read_json(path, "config")
    except TableFormatError as exc:  # a bad config is a usage error: exit 2, not 3
        raise UsageError(str(exc)) from None
    if not isinstance(config, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    config = dict(config)
    echoed = config.pop("subcommand", subcommand)
    if echoed != subcommand:
        raise UsageError(f"config is for subcommand {echoed!r}, not {subcommand!r}")
    return config


def resolve(subcommand: str, args: argparse.Namespace) -> dict:
    """Merge flag, environment, config, and default values for one run."""
    options = OPTIONS[subcommand]
    known = {opt.name for opt in options}

    config_path = getattr(args, "config", None)
    if config_path is None:
        config_path = os.environ.get(ENV_PREFIX + "CONFIG")
    config = _load_config(config_path, subcommand) if config_path else {}
    unknown = set(config) - (known - {"config"})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    resolved: dict[str, Any] = {}
    for opt in options:
        if opt.name == "config":
            continue
        value = getattr(args, opt.name, None)
        if value is None and opt.flag:
            value = os.environ.get(ENV_PREFIX + opt.name.upper())
        if value is None and opt.name in config:
            value = config[opt.name]
        if value is None:
            if opt.required:
                raise UsageError(f"missing required option --{opt.name.replace('_', '-')}")
            resolved[opt.name] = opt.default
        else:
            resolved[opt.name] = opt.parse(value)
    return resolved


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path names an existing file
        raise UsageError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _echo_config(subcommand: str, resolved: dict, out: Path) -> None:
    payload = {"subcommand": subcommand}
    payload.update((k, v) for k, v in resolved.items() if v is not None)
    write_json(out / "resolved_config.json", payload)


def _keep_freed_heap() -> None:
    """Let glibc keep the heap the oracle frees, so the next cell reuses its pages.

    By default glibc hands a freed heap top back to the kernel, and each splice
    block and model temporary of the next cell faults it in again.  Pin the mmap
    threshold at glibc's own dynamic ceiling (setting the trim threshold alone
    would freeze it at 128 KiB) and keep one chunk budget of freed heap.  A
    ``MALLOC_*_`` or ``GLIBC_TUNABLES`` setting in the environment wins.
    """
    if platform.libc_ver()[0] != "glibc" or any(
        name in os.environ for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
    ):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, SPLICE_BUDGET_BYTES // 2)  # M_MMAP_THRESHOLD
        mallopt(-1, SPLICE_BUDGET_BYTES)  # M_TRIM_THRESHOLD


def cmd_combine(resolved: dict) -> int:
    table_f = read_shap_table(resolved["f_shap"])
    table_g = read_shap_table(resolved["g_shap"])
    if resolved["mu_h"] == "auto":
        if table_f.prediction_column is None or table_g.prediction_column is None:
            raise InvalidInputError(
                "--mu-h auto requires prediction columns in both input tables"
            )
        mu_h = mean_product_baseline(table_f.predictions, table_g.predictions)
    else:
        mu_h = resolved["mu_h"]
    result = combine(table_f, table_g, mu_h, AlphaMethod(resolved["method"]))
    out_table = explanation_to_table(
        result,
        extra_meta={
            "alpha": result.alpha,
            "method": result.method.value,
            "advisory_count": len(result.fallback_rows),
            "fallback_rows": list(result.fallback_rows),
        },
    )
    out = _out_dir(resolved)
    write_shap_table(out / "mshap.csv", out_table)
    _echo_config("combine", resolved, out)
    print(
        f"combined {result.n_rows} rows x {result.n_features} features "
        f"(method={result.method.value}, mu_h={fmt17(result.baseline)}, alpha={fmt17(result.alpha)}, "
        f"advisories={len(result.fallback_rows)}) -> {out / 'mshap.csv'}"
    )
    return 0


def cmd_score(resolved: dict) -> int:
    params = ScoreParams(resolved["theta1"], resolved["theta2"])
    candidate = read_shap_table(resolved["candidate"])
    reference = read_shap_table(resolved["reference"])
    _check_alignment(candidate, reference)
    breakdown = score_matrices(candidate.values, reference.values, params)
    payload = {**vars(breakdown), "theta1": resolved["theta1"], "theta2": resolved["theta2"]}
    out = _out_dir(resolved)
    write_json(out / "score.json", payload)
    _echo_config("score", resolved, out)
    for field, value in vars(breakdown).items():
        print(f"{field} = {value:.6f}")
    return 0


def _fields(where: str, obj, options: list[Option]) -> dict:
    """The keys of ``obj`` parsed by ``options``; a null is an absent key."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be an object")
    unknown = set(obj) - {opt.name for opt in options}
    if unknown:
        raise UsageError(f"{where}: unknown keys: {', '.join(sorted(unknown))}")
    fields = {}
    for opt in options:
        if obj.get(opt.name) is not None:
            try:
                fields[opt.name] = opt.parse(obj[opt.name])
            except UsageError as exc:
                raise UsageError(f"{where}: {opt.name}: {exc}") from None
        elif opt.required:
            raise UsageError(f"{where}: missing key {opt.name!r}")
    return fields


def _specs_from_config(resolved: dict) -> list[ScenarioSpec]:
    grid, scenarios, seed = resolved["grid"], resolved["scenarios"], resolved["seed"]
    if grid is not None and scenarios is not None:
        raise UsageError("config may set 'grid' or 'scenarios', not both")
    if scenarios is None:
        return default_grid(grid_seed=seed, **_fields("grid", {} if grid is None else grid, _GRID))
    if not isinstance(scenarios, list) or not scenarios:
        raise UsageError("'scenarios' must be a nonempty list of scenario objects")
    cells = (_fields(f"scenario {i}", cell, _CELL) for i, cell in enumerate(scenarios))
    return [ScenarioSpec(**{"seed": seed, **fields}) for fields in cells]


def cmd_simulate(resolved: dict) -> int:
    _keep_freed_heap()
    specs = _specs_from_config(resolved)
    out = _out_dir(resolved)
    results = run_grid(specs)
    write_records(out / "results.csv", RESULT_COLUMNS, grid_table(results))
    _echo_config("simulate", resolved, out)
    failed = sum(1 for r in results if r.error is not None)
    print(f"ran {len(specs)} scenarios ({failed} failed) -> {out / 'results.csv'}")
    return 0


def cmd_bench(resolved: dict) -> int:
    _keep_freed_heap()
    # the bench options past out_dir are bench_scaling's parameters, by name
    records = bench_scaling(**{k: v for k, v in resolved.items() if k != "out_dir"})
    out = _out_dir(resolved)
    write_records(out / "bench.csv", BENCH_COLUMNS, [asdict(r) for r in records])
    write_json(
        out / "bench.meta.json",
        {
            "machine": platform.platform(),
            "processor": platform.processor() or "unknown",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
    )
    _echo_config("bench", resolved, out)
    skipped = sum(bool(r.error) for r in records)
    print(f"{len(records) - skipped} timings, {skipped} skipped -> {out / 'bench.csv'}")
    return 0


def _mean_abs(values: np.ndarray) -> np.ndarray:
    """``np.abs(values).mean(axis=0)`` bit for bit, without its full-size temporary: numpy adds
    an (n, p > 1) array's rows in order, so blocks that each lead with the running column sum
    give its bits.  One column it sums pairwise, so that one is taken in one block."""
    n, p = values.shape
    step = tables._block_rows(p) if p > 1 else n
    rows = np.empty((min(step, n) + 1, p))
    for lo in range(0, n, step):
        block = values[lo : lo + step]
        head = 1 if lo else 0  # every block after the first leads with the running sum
        np.abs(block, out=rows[head : head + len(block)])
        rows[0] = np.add.reduce(rows[: head + len(block)], axis=0)
    return rows[0] / n


def cmd_summary_data(resolved: dict) -> int:
    table = read_shap_table(resolved["mshap"])
    cov_names, cov = read_value_table(resolved["covariates"])
    if cov.shape[0] != table.values.shape[0]:
        raise DimensionError(
            f"covariate table has {cov.shape[0]} rows, attribution table has {table.values.shape[0]}"
        )
    if cov_names != table.feature_names:
        raise DimensionError(
            f"covariate columns {cov_names} do not match attribution features {table.feature_names}"
        )
    n, p = cov.shape
    mean_abs = _mean_abs(table.values)
    order = sorted(range(p), key=lambda j: (-mean_abs[j], cov_names[j]))
    names = [cov_names[j] for j in order]
    out = _out_dir(resolved)
    write_csv(out / "importance.csv", ("feature", "mean_abs_value"), (names, mean_abs[order]))
    # long format, row-major: one line per (row, feature) cell, written a block of rows at a time
    step = tables._block_rows(4 * p)
    blocks = (
        (np.repeat(rows, p), cov_names * len(rows), cov[rows].ravel(), table.values[rows].ravel())
        for rows in (np.arange(lo, min(lo + step, n)) for lo in range(0, n, step))
    )
    tables.write_csv_blocks(out / "observations.csv", ("row", "feature", "covariate_value", "mshap_value"), blocks)
    _echo_config("summary-data", resolved, out)
    print(f"wrote {out / 'importance.csv'} and {out / 'observations.csv'}")
    return 0


DISPATCH = {
    "combine": cmd_combine,
    "score": cmd_score,
    "simulate": cmd_simulate,
    "bench": cmd_bench,
    "summary-data": cmd_summary_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        resolved = resolve(args.subcommand, args)
        return DISPATCH[args.subcommand](resolved)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MshapError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
