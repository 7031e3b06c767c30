"""Exact Shapley attribution by subset enumeration, plus a permutation-sampling estimator.

Attributions use the interventional (marginal) value function: the value of a
coalition ``S`` at an instance ``x`` is the mean model output over the
background set with the features in ``S`` spliced in from ``x`` and the rest
taken from each background row; both estimators read it from one splice walk.
The exact enumerator walks all ``2**p`` coalitions in Gray-code order, one
column per step, with factorial weights in log space (no overflow past p=12).
The sampling estimator walks each distinct prefix coalition of seeded PCG64
random feature orderings once; its mean marginal contribution is unbiased.

Both estimators return attributions satisfying local accuracy: baseline plus
the attribution row sums to the model prediction for that instance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import factorial, lgamma
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, EnumerationLimitError, InvalidInputError

# The most features exact enumeration accepts (2**16 coalitions); read at each call.
ENUM_LIMIT = 16
# Byte budget of one chunk: its (rows, m, p) float64 splice block, plus the
# sampler's walked coalition values for those rows.  Instances are cut into
# such chunks, so a large n never materialises the whole (n, m, p) tensor.
SPLICE_BUDGET_BYTES = 64 << 20
# The last walk's splice block, keyed by its (c, m, p) shape, kept for the next
# walk of that shape: a grid of small cells would otherwise allocate and fault
# in a fresh block per call.  It holds at most one block, which fits the budget
# above.  A walk pops it while in use, so a concurrent or re-entrant walk finds
# the slot empty and allocates its own.
_spare_block: dict[tuple[int, int, int], np.ndarray] = {}


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
            repeated = _first_repeat(names)
            if repeated is not None:
                raise DimensionError(f"feature name {repeated!r} appears more than once")
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


def _splice_chunk(m: int, p: int, stacked: int = 0) -> int:
    """Instance rows per chunk: each row costs its (m, p) splice block plus
    ``stacked`` walked values, and a chunk fits SPLICE_BUDGET_BYTES or is one row.
    """
    return max(1, SPLICE_BUDGET_BYTES // ((m * p + stacked) * 8))


def _splice_walk(
    evaluate: Callable, rows: np.ndarray, background: np.ndarray, masks: Sequence[int], k: int, mirror: bool = False
) -> np.ndarray:
    """Interventional value of each coalition in ``masks`` at each of the c ``rows``.

    One (c, m, p) block, the last walk's spare if it has this shape, starts
    as the background, and each mask re-splices only the columns whose bits
    differ from the previous mask's, so a Gray-code sequence costs one column
    per coalition.  ``evaluate`` maps the block's rows to k outputs; a value
    is the mean of a row's own m outputs, so chunking the instances changes
    no value.  Shape (1 + mirror, k, len(masks), c): the values, then with
    ``mirror`` (the rows are bit for bit the background) the complements'
    values, read from transposed blocks.
    """
    c, p = rows.shape
    m = background.shape[0]
    shape = (c, m, p)
    spliced = _spare_block.pop(shape, None)
    if spliced is None:
        _spare_block.clear()  # hold at most one spare: drop another shape's before allocating
        spliced = np.empty(shape)
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
    _spare_block.clear()  # a nested walk may have left a block of another shape
    _spare_block[shape] = spliced
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
    feature column, over instance chunks whose block fits SPLICE_BUDGET_BYTES.
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
    values[:, 0] = np.array([np.add.reduce(out) / m for out in base])[:, None]
    if mirrored:
        # the full coalition's block is m copies of each x_i
        for k, out in enumerate(predictions):
            values[k, full] = np.add.reduce(np.broadcast_to(out[:, None], (n, m)), axis=1) / m
    t = np.arange(1, 1 << (p - mirrored))
    masks = t ^ (t >> 1)  # the Gray code: each mask differs from the one before in one bit
    for lo in range(0, n, step):
        walked = _splice_walk(evaluate, X[lo : lo + step], background, masks, len(base), mirrored)
        values[:, masks, lo : lo + step] = walked[0]
        if mirrored:
            values[:, full ^ masks] = walked[1]
    return values


@functools.lru_cache(maxsize=4)
def _weight_plan(p: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per feature j: the coalitions without j, the same coalitions with j, and their weights.

    Cached per p and shared by every call, so the arrays are read-only.
    """
    weights_by_size = _shapley_weights(p)
    pop = _popcounts(1 << p)
    masks = np.arange(1 << p)
    plan = []
    for j in range(p):
        bit = 1 << j
        without = masks[(masks & bit) == 0]
        entry = (without, without | bit, weights_by_size[pop[without]])
        for array in entry:
            array.flags.writeable = False
        plan.append(entry)
    return tuple(plan)


def _attributions_from_values(values: np.ndarray, p: int) -> np.ndarray:
    phi = np.empty((values.shape[1], p))
    for j, (without, with_j, w) in enumerate(_weight_plan(p)):
        phi[:, j] = w @ (values[with_j] - values[without])
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
    data = _as_background(background, model.arity)
    X = _instances(X, model.arity)
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
    data = _as_background(background, f.arity)
    X = _instances(X, f.arity)

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
    permutation draws, and each distinct prefix coalition of the orderings is
    spliced once per chunk of rows, so the whole batch costs at most
    ``n_permutations * p`` model evaluations regardless of n.  When
    ``n_permutations`` covers all p! orderings, each distinct ordering is
    enumerated exactly once and the result coincides with exact enumeration.
    """
    _check_integers(("n_permutations", n_permutations, 1), ("seed", seed, 0))
    data = _as_background(background, model.arity)
    X = _instances(X, model.arity)
    n, p = X.shape
    exhaustive = p <= 20 and n_permutations >= factorial(p)
    if exhaustive:
        orders = np.array(list(itertools.permutations(range(p))))
    else:
        # drawn once, before the row chunks, so every chunk sees the same orders
        rng = np.random.Generator(np.random.PCG64(seed))
        orders = np.array([rng.permutation(p) for _ in range(n_permutations)])
    count = len(orders)
    # each order's prefix coalitions (bit masks) as indices, numbered in first-seen order
    index: dict[int, int] = {}
    prefixes = np.array(
        [[index.setdefault(s, len(index)) for s in itertools.accumulate(1 << j for j in o)] for o in orders.tolist()]
    )

    v_empty = model(data).mean()
    total, total_sq = np.zeros((2, n, p))
    step = _splice_chunk(data.shape[0], p, len(index))
    for lo in range(0, n, step):
        v = _splice_walk(lambda rows: (model(rows),), X[lo : lo + step], data, list(index), 1)[0, 0]
        contrib = np.empty((v.shape[1], p))
        empty = np.full((1, v.shape[1]), v_empty)
        for order, prefix in zip(orders, prefixes):
            at = v[prefix]
            contrib[:, order] = (at - np.concatenate((empty, at[:-1]))).T
            total[lo : lo + step] += contrib
            total_sq[lo : lo + step] += contrib * contrib

    phi = total / count
    if count > 1:
        var = np.maximum(total_sq - count * phi * phi, 0.0) / (count - 1)
        stderr = np.sqrt(var / count)
    else:
        stderr = np.full((n, p), np.nan)
    return SamplingExplanation(
        values=phi,
        baseline=float(v_empty),
        predictions=model(X),
        stderr=stderr,
        n_permutations=count,
        exhaustive=exhaustive,
    )
