"""Exact Shapley attribution by subset enumeration, plus a permutation-sampling estimator.

Attributions use the interventional (marginal) value function: the value of a
coalition ``S`` at an instance ``x`` is the mean model output over the
background set with the features in ``S`` spliced in from ``x`` and the rest
taken from each background row.  The exact enumerator walks all ``2**p``
coalitions in Gray-code order so that each step flips a single feature column,
and combines coalition values with the classic factorial weights (computed in
log space so feature counts past 12 do not overflow).  The sampling estimator
averages marginal contributions over random feature orderings drawn from a
seeded PCG64 generator and is unbiased for the exact values.

Both estimators return attributions satisfying local accuracy: baseline plus
the attribution row sums to the model prediction for that instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, lgamma
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, EnumerationLimitError, InvalidInputError

DEFAULT_ENUM_LIMIT = 16
# Byte budget of one (rows, m, p) float64 splice block.  The exact and the
# sampling estimators cut the instance axis into chunks that fit it, so a
# large n never materialises the whole (n, m, p) tensor.
SPLICE_BUDGET_BYTES = 64 << 20


@dataclass(frozen=True)
class ModelFunction:
    """A deterministic prediction function over ``arity`` real covariates.

    ``fn`` must accept a ``(k, arity)`` array and return ``k`` predictions.
    """

    arity: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.arity < 1:
            raise DimensionError(f"model arity must be >= 1, got {self.arity}")

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.arity:
            raise DimensionError(
                f"expected a (k, {self.arity}) input matrix, got shape {X.shape}"
            )
        out = np.asarray(self.fn(X), dtype=float)
        if out.shape != (X.shape[0],):
            raise DimensionError(
                f"model returned shape {out.shape} for {X.shape[0]} input rows"
            )
        return out


def constant_model(arity: int, value: float) -> ModelFunction:
    return ModelFunction(arity, lambda X: np.full(X.shape[0], float(value)))


def additive_model(coefs: Sequence[float], intercept: float = 0.0) -> ModelFunction:
    c = np.asarray(coefs, dtype=float)
    return ModelFunction(len(c), lambda X: X @ c + intercept)


def product_model(f: ModelFunction, g: ModelFunction) -> ModelFunction:
    """The two-part model h(x) = f(x) * g(x)."""
    if f.arity != g.arity:
        raise DimensionError(f"part arities differ: {f.arity} vs {g.arity}")
    return ModelFunction(f.arity, lambda X: f(X) * g(X))


def _as_background(background, arity: int) -> np.ndarray:
    data = np.asarray(background, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise DimensionError(f"background must be a nonempty (m, p) matrix, got shape {data.shape}")
    if data.shape[1] != arity:
        raise DimensionError(
            f"background has {data.shape[1]} columns but the model arity is {arity}"
        )
    return data


@dataclass(frozen=True, eq=False)
class ShapExplanation:
    """Per-feature contributions for a batch of instances of one model part.

    ``values`` is (n, p); each row plus ``baseline`` reconstructs the matching
    entry of ``predictions`` (local accuracy). Feature names are optional and
    positional when absent.
    """

    values: np.ndarray
    baseline: float
    predictions: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        preds = np.asarray(self.predictions, dtype=float).reshape(-1)
        if values.shape[0] != preds.shape[0]:
            raise DimensionError(
                f"{values.shape[0]} attribution rows but {preds.shape[0]} predictions"
            )
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DimensionError(f"attribution matrix must be (n>=1, p>=1), got {values.shape}")
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != values.shape[1]:
                raise DimensionError(
                    f"{len(names)} feature names for {values.shape[1]} columns"
                )
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "baseline", float(self.baseline))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False, kw_only=True)
class SamplingExplanation(ShapExplanation):
    """Permutation-sampling attributions with their per-cell standard errors.

    ``stderr`` is (n, p), NaN when a single permutation was drawn;
    ``n_permutations`` counts the orderings actually used and ``exhaustive``
    says they were all p! of them, so ``values`` are exact.
    """

    stderr: np.ndarray
    n_permutations: int
    exhaustive: bool


@dataclass(frozen=True)
class LocalAccuracyReport:
    """Per-row check of ``prediction == baseline + sum(values)``."""

    row_ok: np.ndarray
    residuals: np.ndarray
    tol_rel: float

    @property
    def passed(self) -> bool:
        return bool(self.row_ok.all())

    @property
    def max_residual(self) -> float:
        return float(np.abs(self.residuals).max())

    @property
    def worst_row(self) -> int:
        return int(np.abs(self.residuals).argmax())


def validate_local_accuracy(expl: ShapExplanation, tol_rel: float = 1e-9) -> LocalAccuracyReport:
    """Report which rows satisfy local accuracy at a relative tolerance.

    Row i passes iff ``|pred_i - baseline - sum_j values_ij|`` is at most
    ``tol_rel * max(1, |pred_i|)``.
    """
    residuals = expl.predictions - expl.baseline - expl.values.sum(axis=1)
    bound = tol_rel * np.maximum(1.0, np.abs(expl.predictions))
    return LocalAccuracyReport(row_ok=np.abs(residuals) <= bound, residuals=residuals, tol_rel=tol_rel)


def baseline(model: ModelFunction, background) -> float:
    """Mean model prediction over the background set."""
    data = _as_background(background, model.arity)
    return float(model(data).mean())


def _popcounts(size: int) -> np.ndarray:
    idx = np.arange(size, dtype=np.uint32)
    return np.bitwise_count(idx).astype(np.intp)


def _shapley_weights(p: int) -> np.ndarray:
    # w[s] = s! (p-s-1)! / p!, evaluated in log space: factorials overflow past p=12
    s = np.arange(p)
    return np.exp([lgamma(k + 1) + lgamma(p - k) - lgamma(p + 1) for k in s])


def _splice_chunk(m: int, p: int) -> int:
    """Instance rows per (rows, m, p) splice block under SPLICE_BUDGET_BYTES.

    Never less than one row: a single row whose block alone exceeds the
    budget still runs, as a chunk of one.
    """
    return max(1, SPLICE_BUDGET_BYTES // (m * p * 8))


def _coalition_values(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    X: np.ndarray,
    background: np.ndarray,
    predictions: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Interventional value of every coalition for every instance, shape (k, 2**p, n).

    ``evaluate`` maps a (rows, p) matrix to a tuple of k output vectors, one
    per explained model, so several models share each spliced block;
    ``predictions`` is ``evaluate(X)``.
    Coalitions are visited in Gray-code order so each step re-splices a single
    feature column of the (rows, m, p) evaluation block.  Instance rows are
    taken in chunks whose block fits SPLICE_BUDGET_BYTES; each row's value is
    a mean over its own m spliced rows, so chunking changes no value.
    When X is bit for bit its own background and fits one chunk, the
    predictions are the background's outputs and the block of coalition S is
    the transpose of the block of its complement, so only the coalitions
    without the last feature are spliced; a complement's value averages the
    same model outputs in the same order, so it is bit-identical.
    """
    n, p = X.shape
    m = background.shape[0]
    step = _splice_chunk(m, p)
    full = (1 << p) - 1
    mirrored = X.shape == background.shape and n <= step and X.tobytes() == background.tobytes()
    base = predictions if mirrored else evaluate(background)
    values = np.empty((len(base), 1 << p, n))
    values[:, 0] = np.array([out.mean() for out in base])[:, None]
    if mirrored:
        # the full coalition's block is m copies of each x_i
        for k, out in enumerate(predictions):
            values[k, full] = np.repeat(out, m).reshape(n, m).mean(axis=1)
    buffer = np.empty((min(step, n), m, p))
    for lo in range(0, n, step):
        rows = X[lo : lo + step]
        c = rows.shape[0]
        spliced = buffer[:c]
        spliced[...] = background
        flat = spliced.reshape(c * m, p)
        mask = 0
        for t in range(1, 1 << (p - mirrored)):
            flip = (t & -t).bit_length() - 1
            mask ^= 1 << flip
            if mask & (1 << flip):
                spliced[:, :, flip] = rows[:, None, flip]
            else:
                spliced[:, :, flip] = background[None, :, flip]
            for k, out in enumerate(evaluate(flat)):
                block = out.reshape(c, m)
                values[k, mask, lo : lo + c] = block.mean(axis=1)
                if mirrored:
                    values[k, full ^ mask] = np.ascontiguousarray(block.T).mean(axis=1)
    return values


def _attributions_from_values(values: np.ndarray, p: int) -> np.ndarray:
    weights_by_size = _shapley_weights(p)
    pop = _popcounts(1 << p)
    masks = np.arange(1 << p)
    phi = np.empty((values.shape[1], p))
    for j in range(p):
        bit = 1 << j
        without = masks[(masks & bit) == 0]
        w = weights_by_size[pop[without]]
        phi[:, j] = w @ (values[without | bit] - values[without])
    return phi


def _instances(X, arity: int) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, p = X.shape
    if n < 1:
        raise DimensionError(f"need at least one instance row, got shape {X.shape}")
    if p != arity:
        raise DimensionError(f"instances have {p} features but the model arity is {arity}")
    return X


def _explain_exact(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    X: np.ndarray,
    data: np.ndarray,
    enum_limit: int,
    feature_names: Sequence[str] | None = None,
) -> tuple[ShapExplanation, ...]:
    p = X.shape[1]
    if p > enum_limit:
        raise EnumerationLimitError(
            f"{p} features exceeds the enumeration limit of {enum_limit} "
            f"(2**{p} coalitions); raise the limit or use sampling"
        )
    predictions = evaluate(X)
    values = _coalition_values(evaluate, X, data, predictions)
    names = tuple(feature_names) if feature_names is not None else None
    return tuple(
        ShapExplanation(
            values=_attributions_from_values(v, p),
            baseline=float(v[0, 0]),
            predictions=pred,
            feature_names=names,
        )
        for v, pred in zip(values, predictions)
    )


def explain_matrix(
    model: ModelFunction,
    X: np.ndarray,
    background,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    feature_names: Sequence[str] | None = None,
) -> ShapExplanation:
    """Exact Shapley attributions for every row of ``X`` by full enumeration.

    phi_j sums, over all coalitions S not containing j, the factorial weight
    |S|! (p-|S|-1)! / p! times the value gap v(S + {j}) - v(S).
    """
    data = _as_background(background, model.arity)
    X = _instances(X, model.arity)
    (expl,) = _explain_exact(lambda rows: (model(rows),), X, data, enum_limit, feature_names)
    return expl


def explain_product(
    f: ModelFunction,
    g: ModelFunction,
    X: np.ndarray,
    background,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
) -> tuple[ShapExplanation, ShapExplanation, ShapExplanation]:
    """Exact explanations of f, g and h = f * g from one coalition pass.

    Each spliced block goes through f and g once and h's outputs are their
    elementwise product, the arithmetic ``product_model`` performs, so the
    three results equal three ``explain_matrix`` calls bit for bit at the
    cost of two.
    """
    if f.arity != g.arity:
        raise DimensionError(f"part arities differ: {f.arity} vs {g.arity}")
    data = _as_background(background, f.arity)
    X = _instances(X, f.arity)

    def evaluate(rows):
        a, b = f(rows), g(rows)
        return a, b, a * b

    return _explain_exact(evaluate, X, data, enum_limit)


def _sampling_core(
    model: ModelFunction,
    X: np.ndarray,
    background: np.ndarray,
    n_permutations: int,
    seed: int,
):
    n, p = X.shape
    m = background.shape[0]
    exhaustive = p <= 20 and n_permutations >= factorial(p)
    if exhaustive:
        drawn = None
        count = factorial(p)
    else:
        # drawn once, before the row chunks, so every chunk sees the same orders
        rng = np.random.Generator(np.random.PCG64(seed))
        drawn = [rng.permutation(p) for _ in range(n_permutations)]
        count = n_permutations

    v_empty = model(background).mean()
    total = np.zeros((n, p))
    total_sq = np.zeros((n, p))
    step = _splice_chunk(m, p)
    buffer = np.empty((min(step, n), m, p))
    for lo in range(0, n, step):
        rows = X[lo : lo + step]
        c = rows.shape[0]
        spliced = buffer[:c]
        flat = spliced.reshape(c * m, p)
        contrib = np.empty((c, p))
        chunk_total = total[lo : lo + c]
        chunk_total_sq = total_sq[lo : lo + c]
        for perm in itertools.permutations(range(p)) if exhaustive else drawn:
            spliced[...] = background
            v_prev = np.full(c, v_empty)
            for j in perm:
                spliced[:, :, j] = rows[:, None, j]
                v = model(flat).reshape(c, m).mean(axis=1)
                contrib[:, j] = v - v_prev
                v_prev = v
            chunk_total += contrib
            chunk_total_sq += contrib * contrib

    phi = total / count
    if count > 1:
        var = np.maximum(total_sq - count * phi * phi, 0.0) / (count - 1)
        stderr = np.sqrt(var / count)
    else:
        stderr = np.full((n, p), np.nan)
    return phi, v_empty, stderr, count, exhaustive


def sampling_explain_matrix(
    model: ModelFunction,
    X: np.ndarray,
    background,
    n_permutations: int,
    seed: int,
    feature_names: Sequence[str] | None = None,
) -> SamplingExplanation:
    """Permutation-sampling estimate of the exact Shapley values of every row of ``X``.

    Each random feature ordering contributes one marginal-contribution vector
    per row; the estimate is their mean, which is unbiased for the exact
    values and reproducible under a fixed seed.  All rows share the same
    permutation draws, so the whole batch costs ``n_permutations * p`` model
    evaluations regardless of n.  When ``n_permutations`` covers all p!
    orderings, each distinct ordering is enumerated exactly once and the
    result coincides with exact enumeration.
    """
    if n_permutations < 1:
        raise InvalidInputError(f"n_permutations must be >= 1, got {n_permutations}")
    data = _as_background(background, model.arity)
    X = _instances(X, model.arity)
    phi, v_empty, stderr, count, exhaustive = _sampling_core(model, X, data, n_permutations, seed)
    return SamplingExplanation(
        values=phi,
        baseline=float(v_empty),
        predictions=model(X),
        feature_names=tuple(feature_names) if feature_names is not None else None,
        stderr=stderr,
        n_permutations=count,
        exhaustive=exhaustive,
    )
