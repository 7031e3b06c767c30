"""Simulation study and runtime benchmark for the multiplicative composition.

A scenario draws uniform covariates, treats a pair of analytic response
functions as the two fitted model parts, explains the parts and their product
with the exact enumeration oracle, combines the part explanations under all
four alpha weightings, and scores each result against the oracle attribution
of the product.  Response functions with denominators reject near-singular
draws (the sampler redraws those rows), since a quotient response explodes on
rows where its denominator vanishes.

The benchmark times three ways of attributing a product model as the feature
count grows: composing part explanations the sampler drew beforehand, exact
enumeration, and permutation sampling.  Enumeration cost scales like 2**p while
composition is quadratic in p per row, which is the whole point of composing.
Past the oracle's enumeration limit, its record carries the oracle's error.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .combine import AlphaMethod, _combine_rules, _PartStack, combine
from .errors import (
    DimensionError,
    EnumerationLimitError,
    InvalidInputError,
    ResampleLimitError,
)
from .scoring import ScoreBreakdown, ScoreParams, score_matrices
from .shapley import (
    ModelFunction,
    _check_finite,
    _check_integers,
    _explain_exact,
    additive_model,
    explain_matrix,
    product_model,
    sampling_explain_matrix,
)

DENOMINATOR_GUARD = 1e-3
RESAMPLE_ROUNDS = 100
# cells per stacked composition and scoring pass; 8 cells of (4, 100, 3) values stay inside L2
GRID_CHUNK_CELLS = 8


@dataclass(frozen=True)
class ResponseFunction:
    """One catalog entry: ``formula`` (and ``denominator``) of the first ``arity`` covariate columns.

    Each column is an argument, a vector of rows or a view that broadcasts against the others, and
    the arithmetic is elementwise: on a splice walk's (c, 1) instance and (1, m) background views a
    scaling or a power runs on c or m values, with the bits it has on the spliced (c * m, arity) rows.
    """

    id: str
    arity: int
    formula: Callable[..., np.ndarray]
    denominator: Callable[..., np.ndarray] | None = None


def _y_ratio_den(x1, x2, x3):
    return x1 + x2 + x3


def _y_rational_den(x1, x2, x3):
    return x1 + x1 * x2 + x1**2 * x3**2


RESPONSE_FUNCTIONS: dict[str, ResponseFunction] = {rf.id: rf for rf in (
    ResponseFunction("Y1A", 3, lambda x1, x2, x3: x1 + x2 + x3),
    ResponseFunction("Y1B", 3, lambda x1, x2, x3: 2 * x1 + 2 * x2 + 3 * x3),
    ResponseFunction("Y2A", 3, lambda x1, x2, x3: x1 + x2 + x3),
    ResponseFunction("Y2B", 3, lambda x1, x2, x3: 2 * x1 + 2 * x2 + 3 * x3),
    ResponseFunction("Y2C", 3, lambda x1, x2, x3: x1 * x2 * x3),
    ResponseFunction("Y2D", 3, lambda x1, x2, x3: x1**2 * x2**3 * x3**4),
    ResponseFunction("Y2E", 3, lambda x1, x2, x3: (x1 + x2) / _y_ratio_den(x1, x2, x3), _y_ratio_den),
    ResponseFunction("Y2F", 3, lambda x1, x2, x3: x1 * x2 / _y_rational_den(x1, x2, x3), _y_rational_den),
    # control response: a constant second part collapses the product to the
    # first part, so every method must reproduce the part attribution exactly
    ResponseFunction("CONST1", 1, np.ones_like),
)}

Y1_IDS = ("Y1A", "Y1B")
Y2_IDS = ("Y2A", "Y2B", "Y2C", "Y2D", "Y2E", "Y2F")

PAPER_COVARIATE_BOUNDS = ((-10.0, 10.0), (0.0, 20.0), (-5.0, -1.0))
PAPER_THETA1_GRID = tuple(1.5 + i for i in range(20))
PAPER_THETA2_GRID = tuple(range(1, 47, 5))
DESK_THETA1_GRID = (1.5, 10.5, 20.5)
DESK_THETA2_GRID = (1.0, 21.0, 46.0)


def _pair_arity(y1: str, y2: str) -> int:
    """How many leading columns a response pair reads."""
    return max(RESPONSE_FUNCTIONS[y1].arity, RESPONSE_FUNCTIONS[y2].arity)


@dataclass(frozen=True)
class CovariateSpec:
    """Per-feature uniform sampling bounds."""

    bounds: tuple[tuple[float, float], ...] = PAPER_COVARIATE_BOUNDS

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not bounds:
            raise InvalidInputError("covariate spec needs at least one feature")
        for i, (lo, hi) in enumerate(bounds):
            # a finite width implies finite bounds; the uniform sampler needs both
            if not (lo < hi and np.isfinite(hi - lo)):
                raise InvalidInputError(
                    f"feature {i} bounds need lo < hi and a finite hi - lo, got ({lo}, {hi})"
                )
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_features(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: response pair, theta point, sizes, and a seed."""

    y1: str
    y2: str
    theta1: float
    theta2: float
    n: int = 100
    covariates: CovariateSpec = field(default_factory=CovariateSpec)
    seed: int = 0
    background_size: int = 100

    def __post_init__(self):
        if self.y1 not in Y1_IDS:
            raise InvalidInputError(f"y1 must be one of {Y1_IDS}, got {self.y1!r}")
        if self.y2 not in Y2_IDS + ("CONST1",):
            raise InvalidInputError(f"y2 must be one of {Y2_IDS + ('CONST1',)}, got {self.y2!r}")
        _check_integers(("n", self.n, 10), ("background_size", self.background_size, 1), ("seed", self.seed, 0))
        if self.background_size > self.n:
            raise InvalidInputError(
                f"background_size {self.background_size} exceeds sample size {self.n}"
            )
        ScoreParams(self.theta1, self.theta2)
        needed = _pair_arity(self.y1, self.y2)
        if self.covariates.n_features < needed:
            raise DimensionError(
                f"response pair needs >= {needed} covariates, spec has {self.covariates.n_features}"
            )

    @property
    def n_features(self) -> int:
        return self.covariates.n_features


@dataclass(frozen=True)
class ScenarioResult:
    """One cell's score per weighting, or, when the cell failed, its error and no scores."""

    spec: ScenarioSpec
    scores: dict[AlphaMethod, ScoreBreakdown]
    advisories: tuple[str, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class BenchRecord:
    """One method's times at one (p, n), or the error it raised and no times."""

    p: int
    n: int
    method: str
    wall_seconds: float | None = None
    per_observation_seconds: float | None = None
    error: str = ""

    def __post_init__(self):
        if not self.error and not (self.wall_seconds or 0) > 0:
            raise InvalidInputError(f"wall_seconds must be > 0, got {self.wall_seconds}")


# the ScenarioSpec fields that each results.csv row echoes, in column order
SCENARIO_ECHO = ("y1", "y2", "theta1", "theta2", "n", "background_size", "seed")
RESULT_COLUMNS = (
    "scenario", *SCENARIO_ECHO, "method",
    *(f.name for f in fields(ScoreBreakdown)), "advisories", "error",
)
BENCH_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def derive_seed(*parts: int) -> int:
    """Stable per-cell seed from a grid seed and cell coordinates."""
    return int(np.random.SeedSequence(tuple(int(x) for x in parts)).generate_state(1)[0])


def _guard_mask(spec: ScenarioSpec, rows: np.ndarray) -> np.ndarray:
    """True for rows that violate a denominator guard of either response."""
    bad = np.zeros(rows.shape[0], dtype=bool)
    for fn_id in (spec.y1, spec.y2):
        rf = RESPONSE_FUNCTIONS[fn_id]
        if rf.denominator is not None:
            bad |= np.abs(rf.denominator(*rows.T[: rf.arity])) < DENOMINATOR_GUARD
    return bad


def sample_scenario_rows(spec: ScenarioSpec) -> tuple[np.ndarray, int]:
    """Draw the scenario's covariate rows, redrawing guard violations.

    Returns the rows and how many redraws were needed.  Gives up after
    RESAMPLE_ROUNDS rounds of redraws, which only happens when the guard
    excludes most of the covariate box.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    lo = np.array([b[0] for b in spec.covariates.bounds])
    hi = np.array([b[1] for b in spec.covariates.bounds])
    rows = rng.uniform(lo, hi, size=(spec.n, spec.n_features))
    resampled = 0
    bad = _guard_mask(spec, rows)
    rounds = 0
    while bad.any():
        rounds += 1
        if rounds > RESAMPLE_ROUNDS:
            raise ResampleLimitError(
                f"could not satisfy the denominator guard after {RESAMPLE_ROUNDS} redraw rounds "
                f"({int(bad.sum())} rows still violating)"
            )
        resampled += int(bad.sum())
        rows[bad] = rng.uniform(lo, hi, size=(int(bad.sum()), spec.n_features))
        bad = _guard_mask(spec, rows)
    return rows, resampled


def _oracle_arrays(spec: ScenarioSpec, rows: np.ndarray, background: np.ndarray):
    """The exact oracle of f, g and f * g on the pair's own k columns, as arrays:
    (3, n, k) values, (3,) baselines and (3, n) predictions.  The two formulas run on
    the rows' columns and on the walk's column views, so no spliced block is built."""
    k = _pair_arity(spec.y1, spec.y2)
    f, g = RESPONSE_FUNCTIONS[spec.y1], RESPONSE_FUNCTIONS[spec.y2]

    def columns(*cols):
        a, b = f.formula(*cols[: f.arity]), g.formula(*cols[: g.arity])
        return a, b, a * b

    return _explain_exact(columns, rows[:, :k], background[:, :k])


def _run_chunk(specs: Sequence[ScenarioSpec]) -> list[ScenarioResult | Exception]:
    """Run each cell's own stages, then compose and score each run of cells of one (n, p) shape stacked;
    a failed cell gives the exception of its first failed check and changes no other cell."""
    out: list[ScenarioResult | Exception | None] = [None] * len(specs)
    ready = []
    for i, spec in enumerate(specs):
        try:
            rows, resampled = sample_scenario_rows(spec)
            oracle = _oracle_arrays(spec, rows, rows[: spec.background_size])
            _check_finite(*oracle)
            ready.append((i, (spec.n, spec.n_features), oracle, resampled))
        except Exception as exc:
            out[i] = exc
    for (n, p), run in itertools.groupby(ready, key=lambda cell: cell[1]):
        index, _, oracles, resampled = zip(*run)
        # the stacks of f, g and the reference f * g; a column neither part reads is a null
        # player, so its exact value is 0 (Shapley 1953) and stays a zero of the stack
        cells = len(index)
        values, baselines, predictions = np.zeros((3, cells, n, p)), np.empty((3, cells)), np.empty((3, cells, n))
        for c, (v, base, pred) in enumerate(oracles):
            values[:, c, :, : v.shape[-1]], baselines[:, c], predictions[:, c] = v, base, pred
        part_f, part_g, refs = map(_PartStack, values, baselines, predictions)
        combined, fallbacks, *_, errors = _combine_rules(part_f, part_g, refs.baseline, AlphaMethod)
        kept = [c for c, error in enumerate(errors) if error is None]
        params = [ScoreParams(specs[index[c]].theta1, specs[index[c]].theta2) for c in kept]
        scores = iter(score_matrices(combined[kept], refs.values[kept], params) if kept else ())
        for c, (i, counts) in enumerate(zip(index, np.count_nonzero(fallbacks, axis=-1).tolist())):
            advisories = [f"resampled {resampled[c]} rows for the denominator guard"] if resampled[c] else []
            advisories += [f"{m.value}: uniform fallback on {k} rows" for m, k in zip(AlphaMethod, counts) if k]
            out[i] = errors[c] or ScenarioResult(specs[i], dict(zip(AlphaMethod, next(scores))), tuple(advisories))
    return out


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one simulation cell and score all four alpha weightings.

    Pipeline: sample guarded covariates, take the leading rows as the
    background set, explain both parts and the product with the exact oracle
    (one coalition pass for all three), combine the part explanations under
    each weighting in one pass, with mu_h set to the product's background
    baseline, and score the four combined matrices, stacked in one call,
    against the product's oracle attribution at the cell's thetas.  It is
    :func:`run_grid`'s chunk of one cell.
    """
    (result,) = _run_chunk([spec])
    if isinstance(result, Exception):
        raise result
    return result


def run_grid(specs: Sequence[ScenarioSpec]) -> list[ScenarioResult]:
    """Run scenarios independently; a failed cell is a result with its ``error``, not a raise.

    Each cell samples and runs its oracle alone; each chunk of ``GRID_CHUNK_CELLS``
    consecutive cells then composes and scores its cells of one (n, p) shape in one
    stacked pass.  Chunks run one after another.  Results depend only on each
    cell's own seed, bit for bit, so they equal one :func:`run_scenario` per cell.
    """
    if not specs:
        raise InvalidInputError("grid must contain at least one scenario")
    chunks = (specs[lo : lo + GRID_CHUNK_CELLS] for lo in range(0, len(specs), GRID_CHUNK_CELLS))
    return [
        out if isinstance(out, ScenarioResult) else ScenarioResult(spec, {}, error=f"{type(out).__name__}: {out}")
        for spec, out in zip(specs, itertools.chain.from_iterable(map(_run_chunk, chunks)))
    ]


def default_grid(
    grid_seed: int = 0,
    n: int = 100,
    background_size: int = 100,
    theta1: Sequence[float] = DESK_THETA1_GRID,
    theta2: Sequence[float] = DESK_THETA2_GRID,
    covariates: CovariateSpec | None = None,
    y1: Sequence[str] = Y1_IDS,
    y2: Sequence[str] = Y2_IDS,
) -> list[ScenarioSpec]:
    """Cartesian grid over response pairs and theta values, one seed per cell.

    The defaults are the desk-scale sweep: every response pair crossed with
    the endpoints and midpoint of each theta range.  Cells are numbered with
    the last axis fastest (y1, y2, theta1, theta2), and cell i's seed is
    ``derive_seed(grid_seed, i)``.
    """
    _check_integers(("grid_seed", grid_seed, 0))
    covariates = covariates if covariates is not None else CovariateSpec()
    return [
        ScenarioSpec(
            y1=a,
            y2=b,
            theta1=float(t1),
            theta2=float(t2),
            n=n,
            covariates=covariates,
            seed=derive_seed(grid_seed, index),
            background_size=background_size,
        )
        for index, (a, b, t1, t2) in enumerate(itertools.product(y1, y2, theta1, theta2))
    ]


def grid_table(results: Sequence[ScenarioResult]) -> list[dict]:
    """Flatten results to one record per (scenario, method), errors included.

    Scenarios are numbered by their position in ``results``.
    """
    records, echo = [], operator.attrgetter(*SCENARIO_ECHO)
    for index, out in enumerate(results):
        base = {"scenario": index, **dict(zip(SCENARIO_ECHO, echo(out.spec)))}
        if out.error is not None:
            records.append({**base, "method": "", "error": out.error})
            continue
        advisories = "; ".join(out.advisories)
        for method, b in out.scores.items():
            # vars, not dataclasses.asdict: asdict deep-copies and costs 6x here
            records.append(
                {**base, "method": method.value, **vars(b), "advisories": advisories, "error": ""}
            )
    return records


def mean_scores_by_method(results: Sequence[ScenarioResult]) -> dict[AlphaMethod, float]:
    """Grid-level mean score per weighting, skipping errored cells."""
    sums = {m: 0.0 for m in AlphaMethod}
    count = 0
    for out in results:
        if out.error is not None:
            continue
        count += 1
        for m in AlphaMethod:
            sums[m] += out.scores[m].score
    if count == 0:
        raise InvalidInputError("no scenario in the grid succeeded")
    return {m: s / count for m, s in sums.items()}


def bench_models(p: int) -> tuple[ModelFunction, ModelFunction]:
    """Fixed additive part models used by the scaling benchmark."""
    ones = np.ones(p)
    pattern = 1.0 + np.arange(p) % 3
    return additive_model(ones, intercept=1.0), additive_model(pattern, intercept=2.0)


def _median_seconds(fn: Callable[[], object], repetitions: int) -> float:
    """Median per-call wall time; the warm-up call is discarded.

    Cheap calls are looped so every measurement spans at least ~5 ms,
    otherwise timer resolution dominates micro-second operations.
    """
    fn()
    inner = 1
    while True:
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= 0.005 or inner >= 1 << 20:
            break
        inner *= 2
    samples = [elapsed / inner]
    for _ in range(max(repetitions, 1) - 1):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return float(np.median(samples))


def bench_scaling(
    p_values: Sequence[int],
    n_values: Sequence[int],
    background_size: int = 100,
    seed: int = 0,
    n_permutations: int = 100,
    repetitions: int = 5,
) -> list[BenchRecord]:
    """Wall-clock scaling of composition vs enumeration vs sampling.

    For each (p, n) cell: covariates are uniform on [-1, 1], the sampler
    draws the composed part explanations before the sequential timed region,
    and each method's time is the median of ``repetitions`` runs after a
    discarded warm-up.  A method that raises ``EnumerationLimitError`` is a
    record with that error and no times.
    """
    records: list[BenchRecord] = []
    for p in p_values:
        for n in n_values:
            rng = np.random.Generator(np.random.PCG64(derive_seed(seed, p, n)))
            X = rng.uniform(-1.0, 1.0, size=(n, p))
            background = rng.uniform(-1.0, 1.0, size=(background_size, p))
            f, g = bench_models(p)
            h = product_model(f, g)
            sampling_seed = derive_seed(seed, p, n, 1)
            # composition's cost does not depend on the values it composes
            expl_f = sampling_explain_matrix(f, X, background, n_permutations, sampling_seed)
            expl_g = sampling_explain_matrix(g, X, background, n_permutations, sampling_seed + 1)
            mu_h = float(h(background).mean())
            timed = {
                "composition": lambda: combine(expl_f, expl_g, mu_h, AlphaMethod.ABSOLUTE),
                "exact_enumeration": lambda: explain_matrix(h, X, background),
                "permutation_sampling": lambda: sampling_explain_matrix(
                    h, X, background, n_permutations, sampling_seed
                ),
            }
            for name, fn in timed.items():
                try:
                    wall = _median_seconds(fn, repetitions)
                except EnumerationLimitError as exc:  # raised before any work, by the warm-up call
                    records.append(BenchRecord(p, n, name, error=str(exc)))
                else:
                    records.append(BenchRecord(p, n, name, wall, wall / n))
    return records
