"""The benchmark's three workloads and their output checks.

Each workload builds its inputs in process from an input-set index, then runs
passes over them.  A pass times two stages, counts attempted and failed
operations, and returns a SHA-256 digest per output so that passes, traced
runs and the digests recorded in ``digests.json`` can be compared.  The
program is reached only through ``mshap.cli.main`` and, where no subcommand
exists, through the library's public functions, always looked up on their
module at call time so the traced run sees every call.

- ``sim_grid``: ``mshap simulate`` on a slice of the paper theta grid, then
  on the desk grid.  Per-call overhead of the p = 3 oracle dominates.
- ``cli_tables``: ``mshap combine --mu-h auto`` on a 20-feature table pair,
  then ``mshap summary-data`` on its output.  Table I/O dominates.
- ``oracle_wide``: exact explanations at p = 12, composition and scoring,
  then the permutation sampler.  Array-bound model evaluation dominates.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mshap.cli  # noqa: F401  (registers mshap.cli in sys.modules)

# Inputs come from one of INPUT_SETS input sets, picked by the seed modulo
# INPUT_SETS, so that every run can be checked against a digest recorded at
# the commit that defined the benchmark.
INPUT_SETS = 64
LOCAL_ACCURACY_TOL = 1e-9
DIGESTS = Path(__file__).with_name("digests.json")


def _module(name: str):
    # ``mshap.combine`` is shadowed on the package by the function of the
    # same name, so modules are taken from sys.modules, never by attribute
    return sys.modules[name]


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in process; returns its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _module("mshap.cli").main(argv)
    return code, err.getvalue()


def recorded_digests(workload: str, index: int) -> dict[str, str] | None:
    """Output digests recorded for this workload and input set, if any."""
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(index))


@dataclass
class PassResult:
    stage_s: tuple[float, float]
    window: tuple[float, float]  # perf_counter stamps around the program calls
    attempted: int
    failed: int
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    sampler_rmse: float | None = None


def _stage_medians(passes) -> tuple[float, float]:
    return tuple(float(np.nanmedian([p.stage_s[k] for p in passes])) for k in (0, 1))


def _mismatch(name: str, digest: str, expected: dict | None) -> list[str]:
    want = (expected or {}).get(name)
    if want is None or want == digest:
        return []
    return [f"{name}: digest {digest[:12]} differs from the recorded {want[:12]}"]


class SimGrid:
    """``mshap simulate`` on the paper theta grid slice, then the desk grid.

    An operation is one grid cell.  Both grids cover all 12 response pairs at
    n = 100 with 100 background rows and p = 3.
    """

    name = "sim_grid"
    stage_names = ("paper_grid_s", "desk_grid_s")

    def __init__(self, grids: dict | None = None):
        self.grids = grids or self.default_grids()

    @staticmethod
    def default_grids() -> dict[str, dict]:
        """The paper grid's first two theta1 values, and the desk grid."""
        sim = _module("mshap.simulation")
        pairs = {"y1": list(sim.Y1_IDS), "y2": list(sim.Y2_IDS), "n": 100, "background_size": 100}
        return {
            "paper": {
                **pairs,
                "theta1": list(sim.PAPER_THETA1_GRID[:2]),
                "theta2": list(sim.PAPER_THETA2_GRID),
            },
            "desk": {**pairs, "theta1": list(sim.DESK_THETA1_GRID), "theta2": list(sim.DESK_THETA2_GRID)},
        }

    def extra_metrics(self, passes):
        paper_s, desk_s = _stage_medians(passes)
        return [
            ("cells_per_s", self.cells("paper") / paper_s, "cells/s"),
            ("desk_grid_s", desk_s, "s"),
        ]

    def cells(self, grid: str) -> int:
        g = self.grids[grid]
        return len(g["y1"]) * len(g["y2"]) * len(g["theta1"]) * len(g["theta2"])

    def setup(self, index: int, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        configs = {}
        for grid, params in self.grids.items():
            configs[grid] = work / f"{grid}.json"
            configs[grid].write_text(json.dumps({"subcommand": "simulate", "grid": params}))
        return {"seed": index, "configs": configs, "out": work / "out"}

    def run_pass(self, inputs, expected=None, full_check=False) -> PassResult:
        codes, stage_s = {}, []
        begin = time.perf_counter()
        for grid in ("paper", "desk"):
            t0 = time.perf_counter()
            codes[grid] = _cli(
                [
                    "simulate",
                    "--config", str(inputs["configs"][grid]),
                    "--seed", str(inputs["seed"]),
                    "--threads", "1",
                    "--out-dir", str(inputs["out"] / grid),
                ]
            )
            stage_s.append(time.perf_counter() - t0)
        end = time.perf_counter()

        attempted = failed = 0
        digests, problems = {}, []
        for grid in ("paper", "desk"):
            cells = self.cells(grid)
            attempted += cells
            code, err = codes[grid]
            results = inputs["out"] / grid / "results.csv"
            if code != 0 or not results.is_file():
                failed += cells
                problems.append(f"{grid}: exit {code}: {err.strip()}")
                continue
            digests[grid] = _sha(results)
            bad = _mismatch(grid, digests[grid], expected)
            if bad:
                failed += cells
                problems.extend(bad)
                continue
            with open(results, newline="") as handle:
                rows = list(csv.DictReader(handle))
            scenarios = {row["scenario"] for row in rows}
            errored = {row["scenario"] for row in rows if row["error"]}
            if len(scenarios) != cells:
                failed += cells
                problems.append(f"{grid}: {len(scenarios)} scenarios in results.csv, expected {cells}")
            elif errored:
                failed += len(errored)
                problems.append(f"{grid}: {len(errored)} cells report an error")
        return PassResult(tuple(stage_s), (begin, end), attempted, failed, digests, problems)


class CliTables:
    """``mshap combine --mu-h auto`` on a seeded table pair, then ``summary-data``.

    The part tables are built in closed form, so no oracle runs during
    set-up: for an additive part with coefficients c and intercept a,
    phi_j = c_j (x_j - mean x_j), the baseline is a + c . mean x, and the
    prediction is the baseline plus the row sum.  An operation is one CLI call.
    """

    name = "cli_tables"
    stage_names = ("combine_s", "summary_data_s")

    def __init__(self, rows: int = 3_000, features: int = 20):
        self.rows = rows
        self.features = features

    def extra_metrics(self, passes):
        combine_s, summary_s = _stage_medians(passes)
        return [("combine_s", combine_s, "s"), ("summary_data_s", summary_s, "s")]

    def setup(self, index: int, work: Path):
        tables = _module("mshap.tables")
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng((index, 2))
        X = rng.uniform(-2.0, 2.0, size=(self.rows, self.features))
        names = tuple(f"x{j + 1}" for j in range(self.features))
        mean = X.mean(axis=0)
        for part in ("f", "g"):
            coefs = rng.uniform(-2.0, 2.0, size=self.features)
            intercept = float(rng.uniform(2.0, 6.0))
            phi = coefs * (X - mean)
            base = intercept + float(coefs @ mean)
            table = tables.ShapTable(
                feature_names=names,
                values=phi,
                baseline=base,
                predictions=base + phi.sum(axis=1),
                prediction_column="prediction",
            )
            tables.write_shap_table(work / f"{part}.csv", table)
        tables.write_value_table(work / "x.csv", names, X)
        return {"dir": work, "out": work / "out"}

    def run_pass(self, inputs, expected=None, full_check=False) -> PassResult:
        d, out = inputs["dir"], inputs["out"]
        begin = time.perf_counter()
        combine = _cli(
            [
                "combine",
                "--f-shap", str(d / "f.csv"),
                "--g-shap", str(d / "g.csv"),
                "--mu-h", "auto",
                "--threads", "1",
                "--out-dir", str(out / "combine"),
            ]
        )
        middle = time.perf_counter()
        summary = _cli(
            [
                "summary-data",
                "--mshap", str(out / "combine" / "mshap.csv"),
                "--covariates", str(d / "x.csv"),
                "--out-dir", str(out / "summary"),
            ]
        )
        end = time.perf_counter()

        digests, problems = {}, []
        calls = (
            ("mshap", combine, out / "combine" / "mshap.csv"),
            ("observations", summary, out / "summary" / "observations.csv"),
        )
        failed = 0
        for name, (code, err), path in calls:
            if code != 0 or not path.is_file():
                failed += 1
                problems.append(f"{name}: exit {code}: {err.strip()}")
                continue
            digests[name] = _sha(path)
            bad = _mismatch(name, digests[name], expected)
            if not bad and full_check:
                bad = self._check(name, out)
            if bad:
                failed += 1
                problems.extend(bad)
        return PassResult((middle - begin, end - middle), (begin, end), 2, failed, digests, problems)

    @staticmethod
    def _check(name: str, out: Path) -> list[str]:
        """Read the outputs back: local accuracy of mshap.csv, importance.csv."""
        table = _module("mshap.tables").read_shap_table(out / "combine" / "mshap.csv")
        if name == "mshap":
            report = _module("mshap.shapley").validate_local_accuracy(
                table.to_explanation(), LOCAL_ACCURACY_TOL
            )
            if report.passed:
                return []
            return [f"mshap.csv fails local accuracy: max residual {report.max_residual:.3e}"]
        mean_abs = np.abs(table.values).mean(axis=0)
        names = table.feature_names
        order = sorted(range(len(names)), key=lambda j: (-mean_abs[j], names[j]))
        want = [(names[j], float(mean_abs[j])) for j in order]
        with open(out / "summary" / "importance.csv", newline="") as handle:
            got = [(row["feature"], float(row["mean_abs_value"])) for row in csv.DictReader(handle)]
        return [] if got == want else ["importance.csv differs from a numpy recomputation"]


class OracleWide:
    """Exact f, g and f*g at p = 12, all four compositions, then the sampler.

    Uses the ``bench_models(p)`` pair.  An operation is one explain, combine
    or sampler call; every explanation and composition must pass local
    accuracy at 1e-9.  The sampler error is pooled over several sampler seeds,
    because all rows share one set of permutations.
    """

    name = "oracle_wide"
    stage_names = ("exact_explain_s", "sampler_s")

    def __init__(self, p: int = 12, n: int = 50, m: int = 100, permutations: int = 64, sampler_seeds: int = 4):
        self.p, self.n, self.m = p, n, m
        self.permutations = permutations
        self.sampler_seeds = sampler_seeds

    def extra_metrics(self, passes):
        exact_s, sampler_s = _stage_medians(passes)
        return [
            ("exact_explain_s", exact_s, "s"),
            ("sampler_s", sampler_s, "s"),
            ("sampler_rmse", passes[-1].sampler_rmse or float("nan"), "attribution"),
        ]

    def setup(self, index: int, work: Path):
        shapley = _module("mshap.shapley")
        rng = np.random.default_rng((index, 3))
        f, g = _module("mshap.simulation").bench_models(self.p)
        seeds = np.random.SeedSequence((index, 4)).generate_state(self.sampler_seeds)
        return {
            "X": rng.uniform(-1.0, 1.0, size=(self.n, self.p)),
            "background": rng.uniform(-1.0, 1.0, size=(self.m, self.p)),
            "models": (f, g, shapley.product_model(f, g)),
            "sampler_seeds": [int(s) for s in seeds],
        }

    def run_pass(self, inputs, expected=None, full_check=False) -> PassResult:
        shapley = _module("mshap.shapley")
        comb = _module("mshap.combine")
        scoring = _module("mshap.scoring")
        X, bg = inputs["X"], inputs["background"]
        f, g, h = inputs["models"]
        methods = list(comb.AlphaMethod)
        attempted = 3 + len(methods) + len(inputs["sampler_seeds"])
        explained, combined, sampled, scores = [], [], [], []
        problems: list[str] = []
        stage_s = [float("nan"), float("nan")]
        begin = time.perf_counter()
        try:
            explained = [shapley.explain_matrix(model, X, bg) for model in (f, g, h)]
            stage_s[0] = time.perf_counter() - begin
            expl_f, expl_g, expl_h = explained
            params = scoring.ScoreParams(1.5, 1.0)
            for method in methods:
                combined.append(comb.combine(expl_f, expl_g, expl_h.baseline, method))
                scores.append(scoring.score_matrices(combined[-1].values, expl_h.values, params))
            t0 = time.perf_counter()
            sampled = [
                shapley.sampling_explain_matrix(h, X, bg, self.permutations, seed)
                for seed in inputs["sampler_seeds"]
            ]
            stage_s[1] = time.perf_counter() - t0
        except Exception as exc:  # a failed call fails it and every later op
            problems.append(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()

        failed = attempted - len(explained) - len(combined) - len(sampled)
        views = explained + [c.as_shap_explanation() for c in combined] + sampled
        for k, expl in enumerate(views):
            report = shapley.validate_local_accuracy(expl, LOCAL_ACCURACY_TOL)
            if not (report.passed and np.isfinite(expl.values).all()):
                failed += 1
                problems.append(f"output {k} fails local accuracy: max residual {report.max_residual:.3e}")
        digest = hashlib.sha256()
        for expl in views:
            digest.update(np.ascontiguousarray(expl.values).tobytes())
        for s in scores:
            digest.update(repr(s).encode())
        rmse = None
        if sampled:
            errors = np.concatenate([(s.values - explained[2].values).ravel() for s in sampled])
            rmse = float(np.sqrt(np.mean(errors**2)))
        return PassResult(
            tuple(stage_s), (begin, end), attempted, failed, {"arrays": digest.hexdigest()}, problems, rmse
        )


WORKLOADS = {w.name: w for w in (SimGrid, CliTables, OracleWide)}
