"""Simulation study and runtime benchmark for the multiplicative composition.

A scenario draws uniform covariates, treats a pair of analytic response
functions as the two fitted model parts, explains the parts and their product
with the exact enumeration oracle, combines the part explanations under all
four alpha weightings, and scores each result against the oracle attribution
of the product.  Response functions with denominators reject near-singular
draws (the sampler redraws those rows), since a quotient response explodes on
rows where its denominator vanishes.

The benchmark times three ways of attributing a product model as the feature
count grows: composing precomputed part explanations, exact enumeration, and
permutation sampling.  Enumeration cost scales like 2**p while composition is
quadratic in p per row, which is the whole point of composing.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Sequence

import numpy as np

from . import shapley
from .combine import AlphaMethod, _combine_rules, combine
from .errors import (
    DimensionError,
    InvalidInputError,
    ResampleLimitError,
)
from .scoring import ScoreBreakdown, ScoreParams, score_matrices
from .shapley import (
    ModelFunction,
    ShapExplanation,
    _check_integers,
    additive_model,
    explain_matrix,
    explain_product,
    product_model,
    sampling_explain_matrix,
)

DENOMINATOR_GUARD = 1e-3
RESAMPLE_ROUNDS = 100


@dataclass(frozen=True)
class ResponseFunction:
    """One catalog entry: a vectorized formula over the first ``arity`` columns."""

    id: str
    arity: int
    formula: Callable[[np.ndarray], np.ndarray]
    denominator: Callable[[np.ndarray], np.ndarray] | None = None


def _y_sum(X):
    return X[:, 0] + X[:, 1] + X[:, 2]


def _y_weighted(X):
    return 2 * X[:, 0] + 2 * X[:, 1] + 3 * X[:, 2]


def _y_product(X):
    return X[:, 0] * X[:, 1] * X[:, 2]


def _y_powers(X):
    return X[:, 0] ** 2 * X[:, 1] ** 3 * X[:, 2] ** 4


def _y_ratio(X):
    return (X[:, 0] + X[:, 1]) / (X[:, 0] + X[:, 1] + X[:, 2])


def _y_ratio_den(X):
    return X[:, 0] + X[:, 1] + X[:, 2]


def _y_rational(X):
    return X[:, 0] * X[:, 1] / _y_rational_den(X)


def _y_rational_den(X):
    return X[:, 0] + X[:, 0] * X[:, 1] + X[:, 0] ** 2 * X[:, 2] ** 2


RESPONSE_FUNCTIONS: dict[str, ResponseFunction] = {
    "Y1A": ResponseFunction("Y1A", 3, _y_sum),
    "Y1B": ResponseFunction("Y1B", 3, _y_weighted),
    "Y2A": ResponseFunction("Y2A", 3, _y_sum),
    "Y2B": ResponseFunction("Y2B", 3, _y_weighted),
    "Y2C": ResponseFunction("Y2C", 3, _y_product),
    "Y2D": ResponseFunction("Y2D", 3, _y_powers),
    "Y2E": ResponseFunction("Y2E", 3, _y_ratio, _y_ratio_den),
    "Y2F": ResponseFunction("Y2F", 3, _y_rational, _y_rational_den),
    # control response: a constant second part collapses the product to the
    # first part, so every method must reproduce the part attribution exactly
    "CONST1": ResponseFunction("CONST1", 1, lambda X: np.ones(X.shape[0])),
}

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
    p: int
    n: int
    method: str
    wall_seconds: float
    per_observation_seconds: float

    def __post_init__(self):
        if not self.wall_seconds > 0:
            raise InvalidInputError(f"wall_seconds must be > 0, got {self.wall_seconds}")


@dataclass(frozen=True)
class BenchError:
    p: int
    n: int
    method: str
    message: str


def derive_seed(*parts: int) -> int:
    """Stable per-cell seed from a grid seed and cell coordinates."""
    return int(np.random.SeedSequence(tuple(int(x) for x in parts)).generate_state(1)[0])


def scenario_model(fn_id: str, p: int) -> ModelFunction:
    """Wrap a catalog response as a p-ary model; columns past the arity are inert."""
    try:
        rf = RESPONSE_FUNCTIONS[fn_id]
    except KeyError:
        raise InvalidInputError(f"unknown response function id: {fn_id!r}") from None
    if p < rf.arity:
        raise DimensionError(f"{rf.id} needs >= {rf.arity} features, got p={p}")
    return ModelFunction(p, rf.formula)


def _guard_mask(spec: ScenarioSpec, rows: np.ndarray) -> np.ndarray:
    """True for rows that violate a denominator guard of either response."""
    bad = np.zeros(rows.shape[0], dtype=bool)
    for fn_id in (spec.y1, spec.y2):
        rf = RESPONSE_FUNCTIONS[fn_id]
        if rf.denominator is not None:
            bad |= np.abs(rf.denominator(rows)) < DENOMINATOR_GUARD
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


def _explain_three(
    spec: ScenarioSpec, rows: np.ndarray, background: np.ndarray
) -> tuple[ShapExplanation, ShapExplanation, ShapExplanation]:
    """Exact explanations of f, g and f * g, padded with zeros to the cell's p columns."""
    # a column neither part reads is a null player, so its exact value is 0 (Shapley 1953)
    k = _pair_arity(spec.y1, spec.y2)
    three = explain_product(
        scenario_model(spec.y1, k), scenario_model(spec.y2, k), rows[:, :k], background[:, :k]
    )
    if k == spec.n_features:
        return three
    zeros = np.zeros((rows.shape[0], spec.n_features - k))
    return tuple(
        ShapExplanation(np.concatenate((e.values, zeros), axis=1), e.baseline, e.predictions)
        for e in three
    )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one simulation cell and score all four alpha weightings.

    Pipeline: sample guarded covariates, take the leading rows as the
    background set, explain both parts and the product with the exact oracle
    (one coalition pass for all three), combine the part explanations under
    each weighting in one pass, with mu_h set to the product's background
    baseline, and score the four combined matrices, stacked in one call,
    against the product's oracle attribution at the cell's thetas.
    """
    rows, resampled = sample_scenario_rows(spec)
    background = rows[: spec.background_size]
    expl_f, expl_g, reference_expl = _explain_three(spec, rows, background)
    for label, expl in (("parts", expl_f), ("parts", expl_g), ("reference", reference_expl)):
        if not np.isfinite(expl.values).all():
            raise InvalidInputError(
                f"non-finite attribution in the {label} explanation "
                f"(a spliced denominator collapsed); rerun with a different seed"
            )
    params = ScoreParams(spec.theta1, spec.theta2)
    advisories = []
    if resampled:
        advisories.append(f"resampled {resampled} rows for the denominator guard")
    combined, fallbacks, *_ = _combine_rules(expl_f, expl_g, reference_expl.baseline, tuple(AlphaMethod))
    for method, fallback in zip(AlphaMethod, fallbacks):
        if fallback.any():
            advisories.append(f"{method.value}: uniform fallback on {np.count_nonzero(fallback)} rows")
    breakdowns = score_matrices(combined, reference_expl.values, params)
    scores = dict(zip(AlphaMethod, breakdowns))
    return ScenarioResult(spec=spec, scores=scores, advisories=tuple(advisories))


def run_grid(specs: Sequence[ScenarioSpec], n_jobs: int = 1) -> list[ScenarioResult]:
    """Run scenarios independently; a failed cell is a result with its ``error``, not a raise.

    Results depend only on each cell's own seed, so the result list is
    identical for any ``n_jobs``.
    """
    if not specs:
        raise InvalidInputError("grid must contain at least one scenario")

    def cell(spec):
        try:
            return run_scenario(spec)
        except Exception as exc:
            return ScenarioResult(spec=spec, scores={}, error=f"{type(exc).__name__}: {exc}")

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(cell, specs))
    return [cell(spec) for spec in specs]


def default_grid(
    grid_seed: int = 0,
    n: int = 100,
    background_size: int = 100,
    theta1_values: Sequence[float] = DESK_THETA1_GRID,
    theta2_values: Sequence[float] = DESK_THETA2_GRID,
    covariates: CovariateSpec | None = None,
    y1_ids: Sequence[str] = Y1_IDS,
    y2_ids: Sequence[str] = Y2_IDS,
) -> list[ScenarioSpec]:
    """Cartesian grid over response pairs and theta values, one seed per cell.

    The defaults are the desk-scale sweep: every response pair crossed with
    the endpoints and midpoint of each theta range.
    """
    _check_integers(("grid_seed", grid_seed, 0))
    covariates = covariates if covariates is not None else CovariateSpec()
    specs = []
    index = 0
    for y1 in y1_ids:
        for y2 in y2_ids:
            for theta1 in theta1_values:
                for theta2 in theta2_values:
                    specs.append(
                        ScenarioSpec(
                            y1=y1,
                            y2=y2,
                            theta1=float(theta1),
                            theta2=float(theta2),
                            n=n,
                            covariates=covariates,
                            seed=derive_seed(grid_seed, index),
                            background_size=background_size,
                        )
                    )
                    index += 1
    return specs


def grid_table(results: Sequence[ScenarioResult]) -> list[dict]:
    """Flatten results to one record per (scenario, method), errors included.

    Scenarios are numbered by their position in ``results``.
    """
    records = []
    for index, out in enumerate(results):
        base = {
            "scenario": index,
            "y1": out.spec.y1,
            "y2": out.spec.y2,
            "theta1": out.spec.theta1,
            "theta2": out.spec.theta2,
            "n": out.spec.n,
            "background_size": out.spec.background_size,
            "seed": out.spec.seed,
        }
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
    return median(samples)


def bench_scaling(
    p_values: Sequence[int],
    n_values: Sequence[int],
    background_size: int = 100,
    seed: int = 0,
    n_permutations: int = 100,
    repetitions: int = 5,
) -> tuple[list[BenchRecord], list[BenchError]]:
    """Wall-clock scaling of composition vs enumeration vs sampling.

    For each (p, n) cell: covariates are uniform on [-1, 1], the part
    explanations fed to the composition are precomputed outside the timed
    region, and each method's time is the median of ``repetitions`` runs
    after a discarded warm-up.  The timed region itself is sequential.
    """
    records: list[BenchRecord] = []
    errors: list[BenchError] = []
    for p in p_values:
        for n in n_values:
            rng = np.random.Generator(np.random.PCG64(derive_seed(seed, p, n)))
            X = rng.uniform(-1.0, 1.0, size=(n, p))
            background = rng.uniform(-1.0, 1.0, size=(background_size, p))
            f, g = bench_models(p)
            h = product_model(f, g)
            sampling_seed = derive_seed(seed, p, n, 1)

            enumerable = p <= shapley.ENUM_LIMIT
            if enumerable:
                expl_f = explain_matrix(f, X, background)
                expl_g = explain_matrix(g, X, background)
            else:
                expl_f = sampling_explain_matrix(f, X, background, n_permutations, sampling_seed)
                expl_g = sampling_explain_matrix(g, X, background, n_permutations, sampling_seed + 1)
            mu_h = float(h(background).mean())

            timed: list[tuple[str, Callable[[], object]]] = [
                ("composition", lambda: combine(expl_f, expl_g, mu_h, AlphaMethod.ABSOLUTE)),
                (
                    "permutation_sampling",
                    lambda: sampling_explain_matrix(h, X, background, n_permutations, sampling_seed),
                ),
            ]
            if enumerable:
                timed.insert(1, ("exact_enumeration", lambda: explain_matrix(h, X, background)))
            else:
                errors.append(
                    BenchError(
                        p=p,
                        n=n,
                        method="exact_enumeration",
                        message=f"{p} features exceeds the enumeration limit of {shapley.ENUM_LIMIT}",
                    )
                )
            for name, fn in timed:
                wall = _median_seconds(fn, repetitions)
                records.append(
                    BenchRecord(
                        p=p,
                        n=n,
                        method=name,
                        wall_seconds=wall,
                        per_observation_seconds=wall / n,
                    )
                )
    return records, errors
