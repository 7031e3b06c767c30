"""Exact Shapley attribution by subset enumeration, plus a permutation-sampling estimator.

Attributions use the interventional (marginal) value function: the value of a
coalition ``S`` at an instance ``x`` is the mean model output over the
background set with the features in ``S`` spliced in from ``x`` and the rest
taken from each background row; both estimators read it from one splice walk.
The exact enumerator walks all ``2**p`` coalitions in Gray-code order, one
column per step, with factorial weights in log space (no overflow past p=12);
each feature's value gaps are the two halves of the coalition values viewed
as a (2,) * p cube along that feature's axis, under one shared weight vector.
The sampling estimator walks the distinct prefix coalitions of seeded PCG64
random orderings in Gray-code rank order; its mean contribution is unbiased.

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

# The most features exact enumeration accepts (2**16 coalitions); read at each call.
ENUM_LIMIT = 16
# Byte budget of one chunk: its (rows, m, p) float64 splice block, plus the walked
# values and sampled contributions it holds for those rows.  Instances are cut
# into such chunks, so a large n never materialises the whole (n, m, p) tensor.
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


def additive_model(coefs: Sequence[float], intercept: float = 0.0) -> ModelFunction:
    c = np.asarray(coefs, dtype=float)
    return ModelFunction(len(c), lambda X: X @ c + intercept)


def product_model(f: ModelFunction, g: ModelFunction) -> ModelFunction:
    """The two-part model h(x) = f(x) * g(x)."""
    if f.arity != g.arity:
        raise DimensionError(f"part arities differ: {f.arity} vs {g.arity}")
    return ModelFunction(f.arity, lambda X: f(X) * g(X))


def _as_rows(data, arity: int, what: str) -> np.ndarray:
    """``data`` as a nonempty, finite (rows, arity) matrix; ``what`` names it in the error."""
    rows = np.asarray(data, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != arity:
        raise DimensionError(f"{what} must be a nonempty (rows, {arity}) matrix, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise InvalidInputError(f"{what} {'hold' if what.endswith('s') else 'holds'} a non-finite value")
    return rows


def _check_integers(*checks: tuple[str, object, int]) -> None:
    """Reject each (name, value, least) whose value is not an integer >= least; a bool is not one."""
    for name, value, least in checks:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")


def _first_repeat(names) -> str | None:
    """The first name that occurs earlier in ``names`` too, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _check_unique(names) -> None:
    repeated = _first_repeat(names)
    if repeated is not None:
        raise DimensionError(f"feature name {repeated!r} appears more than once")


@dataclass(frozen=True, eq=False)
class ShapExplanation:
    """Per-feature contributions for a batch of instances of one model part.

    ``values`` is (n, p); each row plus ``baseline`` reconstructs the matching
    entry of ``predictions`` (local accuracy, which means nothing for inf or
    NaN, so the constructor raises ``InvalidInputError`` for a non-finite
    entry). Feature names are optional and positional when absent.
    """

    values: np.ndarray
    baseline: float
    predictions: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        preds = np.asarray(self.predictions, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DimensionError(f"attribution matrix must be (n>=1, p>=1), got {values.shape}")
        if preds.shape != values.shape[:1]:
            raise DimensionError(f"predictions must have shape ({values.shape[0]},), got {preds.shape}")
        base = float(self.baseline)
        for name, entries in (("values", values), ("predictions", preds), ("baseline", base)):
            if not np.isfinite(entries).all():
                raise InvalidInputError(f"non-finite {name} in an explanation")
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != values.shape[1]:
                raise DimensionError(
                    f"{len(names)} feature names for {values.shape[1]} columns"
                )
            _check_unique(names)
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "baseline", base)

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

    @property
    def passed(self) -> bool:
        return bool(self.row_ok.all())

    @property
    def max_residual(self) -> float:
        return float(np.abs(self.residuals).max())


def validate_local_accuracy(expl: ShapExplanation, tol_rel: float = 1e-9) -> LocalAccuracyReport:
    """Report which rows satisfy local accuracy at a relative tolerance.

    Row i passes iff ``|pred_i - baseline - sum_j values_ij|`` is at most
    ``tol_rel * max(1, |pred_i|)``.  A stack of C explanations' arrays,
    values (C, n, p), baseline (C,) and predictions (C, n), is checked in
    one call, with (C, n) rows and residuals.
    """
    residuals = expl.predictions - np.asarray(expl.baseline)[..., None] - expl.values.sum(axis=-1)
    bound = tol_rel * np.maximum(1.0, np.abs(expl.predictions))
    return LocalAccuracyReport(row_ok=np.abs(residuals) <= bound, residuals=residuals)


def baseline(model: ModelFunction, background) -> float:
    """Mean model prediction over the background set."""
    data = _as_rows(background, model.arity, "background")
    return float(model(data).mean())


def _shapley_weights(p: int) -> np.ndarray:
    # w[s] = s! (p-s-1)! / p!, evaluated in log space: factorials overflow past p=12
    s = np.arange(p)
    return np.exp([lgamma(k + 1) + lgamma(p - k) - lgamma(p + 1) for k in s])


def _splice_chunk(m: int, p: int, stacked: int = 0) -> int:
    """Instance rows per chunk: each row costs its (m, p) splice block plus
    ``stacked`` other values, and a chunk fits SPLICE_BUDGET_BYTES or is one row.
    """
    return max(1, SPLICE_BUDGET_BYTES // ((m * p + stacked) * 8))


def _splice_walk(
    evaluate: Callable, rows: np.ndarray, background: np.ndarray, masks: Sequence[int], k: int, mirror: bool = False
) -> np.ndarray:
    """Interventional value of each coalition in ``masks`` at each of the c ``rows``.

    One (c, m, p) block, allocated per call, starts as the background, and
    each mask re-splices only the columns whose bits differ from the previous
    mask's, so a Gray-code sequence costs one column per coalition.
    ``evaluate`` maps the block's rows to k outputs; a value is the mean of a
    row's own m outputs, so chunking the instances changes no value if a model's
    per-row outputs do not depend on how many rows it is given, which
    ``additive_model``'s BLAS ``X @ c`` does not meet.  Shape (1 + mirror, k,
    len(masks), c): the values, then with ``mirror`` (the rows are bit for bit
    the background) the complements' values, read from transposed blocks.
    """
    c, p = rows.shape
    m = background.shape[0]
    spliced = np.empty((c, m, p))
    spliced[...] = background
    flat = spliced.reshape(c * m, p)
    walked = np.empty((1 + mirror, k, len(masks), c))
    prev = 0
    for i, mask in enumerate(map(int, masks)):
        diff, prev = mask ^ prev, mask
        while diff:
            j = (diff & -diff).bit_length() - 1
            diff ^= 1 << j
            spliced[:, :, j] = rows[:, None, j] if mask >> j & 1 else background[None, :, j]
        for model, out in enumerate(evaluate(flat)):
            block = out.reshape(c, m)
            # np.add.reduce(x, axis) / m is np.mean's arithmetic without its per-call wrapper cost
            walked[0, model, i] = np.add.reduce(block, axis=1) / m
            if mirror:
                walked[1, model, i] = np.add.reduce(np.ascontiguousarray(block.T), axis=1) / m
    return walked


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
    Coalitions are walked in Gray-code order so each step re-splices a single
    feature column, over instance chunks whose block and walked values fit
    SPLICE_BUDGET_BYTES.  When X is bit for bit its own background and fits
    one chunk, the predictions are the background's outputs and the block of
    coalition S is the transpose of the block of its complement, so only the
    coalitions without the last feature are spliced; a complement's value
    averages the same model outputs in the same order, so it is bit-identical.
    """
    n, p = X.shape
    m = background.shape[0]
    k = len(predictions)
    full = (1 << p) - 1
    # a chunk's walk holds (1 + mirrored) * k * len(masks) values per row beside
    # its block, which is k * (2**p - 2) when mirrored
    mirrored = (
        X.shape == background.shape
        and n <= _splice_chunk(m, p, k * (full - 1))
        and X.tobytes() == background.tobytes()
    )
    t = np.arange(1, 1 << (p - mirrored))
    masks = t ^ (t >> 1)  # the Gray code: each mask differs from the one before in one bit
    step = _splice_chunk(m, p, (1 + mirrored) * k * len(masks))
    base = predictions if mirrored else evaluate(background)
    values = np.empty((k, 1 << p, n))
    with np.errstate(invalid="ignore"):  # a mean of +inf and -inf is NaN, which ShapExplanation rejects
        values[:, 0] = np.array([np.add.reduce(out) / m for out in base])[:, None]
        if mirrored:
            # the full coalition's block is m copies of each x_i
            for i, out in enumerate(predictions):
                values[i, full] = np.add.reduce(np.broadcast_to(out[:, None], (n, m)), axis=1) / m
        for lo in range(0, n, step):
            walked = _splice_walk(evaluate, X[lo : lo + step], background, masks, k, mirrored)
            values[:, masks, lo : lo + step] = walked[0]
            if mirrored:
                values[:, full ^ masks] = walked[1]
    return values


def _attributions_from_values(values: np.ndarray, p: int) -> np.ndarray:
    """Shapley values from the (2**p, n) coalition values, one column per feature.

    Viewed as a (2,) * p + (n,) cube, bit j of a mask is axis p - 1 - j, so
    v(S + {j}) and v(S) over the coalitions S without j are that axis's
    index-1 and index-0 views, both in ascending order of S.  Dropping bit j
    keeps a mask's popcount, so one weight vector serves every feature.
    """
    n = values.shape[1]
    cube = values.reshape((2,) * p + (n,))
    w = _shapley_weights(p)[np.bitwise_count(np.arange(1 << (p - 1)))]
    phi = np.empty((n, p))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which ShapExplanation rejects
        for j in range(p):
            lead = (slice(None),) * (p - 1 - j)  # the axes of bits above j
            phi[:, j] = w @ (cube[lead + (1,)] - cube[lead + (0,)]).reshape(-1, n)
    return phi


def _explain_exact(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    X: np.ndarray,
    data: np.ndarray,
    feature_names: Sequence[str] | None = None,
) -> tuple[ShapExplanation, ...]:
    p = X.shape[1]
    if p > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{p} features exceeds the enumeration limit of {ENUM_LIMIT} "
            f"(2**{p} coalitions); use sampling"
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
    *,
    feature_names: Sequence[str] | None = None,
) -> ShapExplanation:
    """Exact Shapley attributions for every row of ``X`` by full enumeration.

    phi_j sums, over all coalitions S not containing j, the factorial weight
    |S|! (p-|S|-1)! / p! times the value gap v(S + {j}) - v(S).
    """
    data = _as_rows(background, model.arity, "background")
    X = _as_rows(X, model.arity, "instances")
    (expl,) = _explain_exact(lambda rows: (model(rows),), X, data, feature_names)
    return expl


def explain_product(
    f: ModelFunction,
    g: ModelFunction,
    X: np.ndarray,
    background,
) -> tuple[ShapExplanation, ShapExplanation, ShapExplanation]:
    """Exact explanations of f, g and h = f * g from one coalition pass.

    Each spliced block goes through f and g once and h's outputs are their
    elementwise product, the arithmetic ``product_model`` performs, so the
    three results equal three ``explain_matrix`` calls bit for bit at the
    cost of two.
    """
    if f.arity != g.arity:
        raise DimensionError(f"part arities differ: {f.arity} vs {g.arity}")
    data = _as_rows(background, f.arity, "background")
    X = _as_rows(X, f.arity, "instances")

    def evaluate(rows):
        a, b = f(rows), g(rows)
        return a, b, a * b

    return _explain_exact(evaluate, X, data)


def sampling_explain_matrix(
    model: ModelFunction,
    X: np.ndarray,
    background,
    n_permutations: int,
    seed: int,
) -> SamplingExplanation:
    """Permutation-sampling estimate of the exact Shapley values of every row of ``X``.

    Each random feature ordering contributes one marginal-contribution vector
    per row; the estimate is their mean, which is unbiased for the exact
    values and reproducible under a fixed seed.  All rows share the same
    permutation draws.  Each chunk of rows splices each distinct prefix
    coalition once, at most ``n_permutations * p`` blocks, and holds every
    ordering's p contributions per row, which the chunk budget counts.  When
    ``n_permutations`` covers all p! orderings, each distinct ordering is
    enumerated exactly once and the result coincides with exact enumeration.
    """
    _check_integers(("n_permutations", n_permutations, 1), ("seed", seed, 0))
    data = _as_rows(background, model.arity, "background")
    X = _as_rows(X, model.arity, "instances")
    n, p = X.shape
    exhaustive = p <= 20 and n_permutations >= factorial(p)
    if exhaustive:
        orders = np.array(list(itertools.permutations(range(p))))
    else:
        # drawn once, before the row chunks; row by row, the stream of rng.permutation(p) calls
        rng = np.random.Generator(np.random.PCG64(seed))
        orders = rng.permuted(np.tile(np.arange(p), (n_permutations, 1)), axis=1)
    count = len(orders)
    # prefixes[k, s] indexes the distinct masks, walked in ascending Gray-code rank (each
    # mask's inverse Gray code) so that neighbours share most bits; past bit 62 a Python int
    ranks = np.cumsum(np.left_shift(1, orders, dtype=np.int64 if p < 63 else object), axis=1)
    for k in range((p - 1).bit_length()):  # shifts 1, 2, 4, ... below p
        ranks ^= ranks >> (1 << k)
    ranks, prefixes = np.unique(ranks, return_inverse=True)
    masks = ranks ^ (ranks >> 1)  # the Gray code of each rank, as the exact walk takes it
    total, total_sq = np.empty((2, n, p))
    # a row holds its walked values and, per ordering, p + 1 gathered, p differenced and p scattered
    step = _splice_chunk(data.shape[0], p, len(masks) + count * (3 * p + 1))
    with np.errstate(invalid="ignore"):  # +inf and -inf average or subtract to NaN, which ShapExplanation rejects
        v_empty = model(data).mean()
        for lo in range(0, n, step):
            v = _splice_walk(lambda rows: (model(rows),), X[lo : lo + step], data, masks, 1)[0, 0]
            steps = np.diff(v[prefixes], axis=1, prepend=v_empty)  # v(prefix) - v(prefix before)
            contrib = np.empty((count, v.shape[1], p))
            contrib[np.arange(count)[:, None], :, orders] = steps
            # axis 0 adds one ordering after another, as a running total would
            total[lo : lo + step] = np.add.reduce(contrib, axis=0)
            total_sq[lo : lo + step] = np.add.reduce(contrib * contrib, axis=0)
            del steps, contrib  # freed before the next chunk's gather, as the budget assumes
        phi = total / count
        var = np.maximum(total_sq - count * phi * phi, 0.0) / max(count - 1, 1)
    stderr = np.sqrt(var / count) if count > 1 else np.full((n, p), np.nan)
    return SamplingExplanation(
        values=phi,
        baseline=float(v_empty),
        predictions=model(X),
        stderr=stderr,
        n_permutations=count,
        exhaustive=exhaustive,
    )
