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
from functools import cache
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

    ``fn`` must accept a ``(k, arity)`` array and return ``k`` predictions.  The oracle
    hands ``fn`` C-ordered rows it copied, and reuses a walk's array between calls.
    """

    arity: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _check_integers(("arity", self.arity, 1))

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


def _check_finite(values, baseline, predictions) -> None:
    """Raise an explanation's ``InvalidInputError`` for its first non-finite entry: values, predictions,
    then baseline; with a leading axis of k explanations, explanation by explanation."""
    finite = (np.isfinite(values).all(axis=(-2, -1)), np.isfinite(predictions).all(axis=-1), np.isfinite(baseline))
    bad = np.flatnonzero(~np.stack(finite, axis=-1))
    if bad.size:
        raise InvalidInputError(f"non-finite {('values', 'predictions', 'baseline')[bad[0] % 3]} in an explanation")


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
        _check_finite(values, base, preds)
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


@cache
def _shapley_weights(p: int) -> np.ndarray:
    # w[s] = s! (p-s-1)! / p!, evaluated in log space: factorials overflow past p=12;
    # computed once per p and read-only, since every call shares it
    w = np.exp([lgamma(k + 1) + lgamma(p - k) - lgamma(p + 1) for k in range(p)])
    w.flags.writeable = False
    return w


def _splice_chunk(m: int, p: int, stacked: int = 0) -> int:
    """Instance rows per chunk: each row costs its (m, p) splice block plus
    ``stacked`` other values, and a chunk fits SPLICE_BUDGET_BYTES or is one row.
    """
    return max(1, SPLICE_BUDGET_BYTES // ((m * p + stacked) * 8))


def _block_columns(evaluate: Callable[[np.ndarray], Sequence[np.ndarray]], m: int) -> Callable:
    """A matrix ``evaluate``, (rows, p) to k output vectors, as a map of p columns to k outputs.

    Columns of one dimension are a batch of rows, copied into a new C-ordered (rows, p) matrix.
    Columns of two dimensions are a walk step's (c, 1) and (1, m) views, spliced into a (c, m, p)
    block, c their largest leading length, that is remade only when c changes; a call splices
    only the columns whose view is not the one it spliced last, so a walk that swaps one view
    per coalition splices one column per coalition.  ``evaluate``'s outputs go back as they are.
    """
    block = flat = spliced = None

    def columns(*cols):
        nonlocal block, flat, spliced
        if cols[0].ndim == 1:  # a (p, rows) F-ordered copy is a C-ordered (rows, p) matrix
            return evaluate(np.array(cols, order="F").T)
        c = max(map(len, cols))
        if block is None or len(block) != c:
            block = np.empty((c, m, len(cols)))
            flat, spliced = block.reshape(c * m, len(cols)), [None] * len(cols)
        for j, col in enumerate(cols):
            if col is not spliced[j]:
                block[:, :, j] = spliced[j] = col
        return evaluate(flat)

    return columns


def _splice_walk(
    columns: Callable, rows: np.ndarray, background: np.ndarray, masks: Sequence[int], k: int, mirror: bool = False
) -> np.ndarray:
    """Interventional value of each coalition in ``masks`` at each of the c ``rows``.

    The walk holds p column views, ``rows[:, j, None]`` (c, 1) for each bit in the mask and
    ``background[None, :, j]`` (1, m) for the others; each mask swaps only the views whose bits
    differ from the previous mask's, so a Gray-code sequence swaps one view per coalition.
    ``columns`` maps the p views to k outputs that broadcast to (c, m), so a formula's scalings and
    powers run on c or m values, or that hold c * m values in row order, as :func:`_block_columns`
    passes a matrix model's.  That adapter's two call forms are p columns of one dimension (X or the
    background), copied into a C-ordered matrix, and the walk's views, spliced into its (c, m, p)
    block even at the full mask.  A value is the mean of a row's own m outputs, so chunking the
    instances changes no value if a model's per-row outputs do not depend on how many rows it is
    given, which ``additive_model``'s BLAS ``X @ c`` does not meet.  Shape (1 + mirror, k,
    len(masks), c): the values, then with ``mirror`` (the rows are bit for bit the background) the
    complements' values.
    """
    c, p = rows.shape
    m = background.shape[0]
    inside = [rows[:, j, None] for j in range(p)]
    outside = [background[None, :, j] for j in range(p)]
    cols = list(outside)
    walked = np.empty((1 + mirror, k, len(masks), c))
    prev = 0
    for i, mask in enumerate(map(int, masks)):
        diff, prev = mask ^ prev, mask
        while diff:
            j = (diff & -diff).bit_length() - 1
            diff ^= 1 << j
            cols[j] = inside[j] if mask >> j & 1 else outside[j]
        for model, out in enumerate(columns(*cols)):
            # a (c, m) C-order block, so each row's m outputs are added in np.mean's order
            block = np.ascontiguousarray(out.reshape(c, m) if out.size == c * m else np.broadcast_to(out, (c, m)))
            # np.add.reduce(x, axis) / m is np.mean's arithmetic without its per-call wrapper cost
            walked[0, model, i] = np.add.reduce(block, axis=1) / m
            if mirror:
                walked[1, model, i] = np.add.reduce(np.ascontiguousarray(block.T), axis=1) / m
    return walked


def _coalition_values(columns: Callable, X: np.ndarray, background: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Interventional value of every coalition for every instance, shape (k, 2**p, n).

    ``columns`` maps p feature columns to k output vectors, one per explained
    model, so several models share each coalition; ``predictions`` is
    ``columns(*X.T)``, its k vectors stacked or not, and the empty coalition
    averages ``columns(*background.T)``.  Coalitions are walked in Gray-code
    order so each step swaps a single feature column, over instance chunks whose
    (c, m, p) block and walked values fit SPLICE_BUDGET_BYTES.  When X is bit for
    bit its own background and fits one chunk, the predictions are the
    background's outputs and the outputs of coalition S are the transpose of
    those of its complement, so only the coalitions without the last feature are
    walked; a complement's value averages the same model outputs in the same
    order, so it is bit-identical.
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
    base = predictions if mirrored else columns(*background.T)
    values = np.empty((k, 1 << p, n))
    # each model's row is reduced alone, in one call for all k: the bits of k separate reductions
    with np.errstate(invalid="ignore"):  # a mean of +inf and -inf is NaN, which ShapExplanation rejects
        values[:, 0] = (np.add.reduce(np.asarray(base), axis=1) / m)[:, None]
        if mirrored:
            # the full coalition's block is m copies of each x_i
            values[:, full] = np.add.reduce(np.broadcast_to(np.asarray(predictions)[:, :, None], (k, n, m)), axis=2) / m
        for lo in range(0, n, step):
            walked = _splice_walk(columns, X[lo : lo + step], background, masks, k, mirrored)
            values[:, masks, lo : lo + step] = walked[0]
            if mirrored:
                values[:, full ^ masks] = walked[1]
    return values


def _attributions_from_values(values: np.ndarray, p: int) -> np.ndarray:
    """Shapley values (k, n, p) from k models' (k, 2**p, n) coalition values, one column per feature.

    Viewed as a (k,) + (2,) * p + (n,) cube, bit j of a mask is axis p - j, so
    v(S + {j}) and v(S) over the coalitions S without j are that axis's
    index-1 and index-0 views, both in ascending order of S.  Dropping bit j
    keeps a mask's popcount, so one weight vector serves every feature.  The
    matmul takes the k models as a batch, one (2**(p-1), n) product each, so a
    model's bits do not depend on k.
    """
    k, _, n = values.shape
    cube = values.reshape((k,) + (2,) * p + (n,))
    w = _shapley_weights(p)[np.bitwise_count(np.arange(1 << (p - 1)))]
    phi = np.empty((k, n, p))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which ShapExplanation rejects
        for j in range(p):
            lead = (slice(None),) * (p - j)  # the model axis and the axes of bits above j
            phi[:, :, j] = w @ (cube[lead + (1,)] - cube[lead + (0,)]).reshape(k, -1, n)
    return phi


def _explain_exact(columns: Callable, X: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact attributions of the k models the column map ``columns`` runs, as arrays:
    (k, n, p) values, (k,) baselines and (k, n) predictions, not yet checked for finiteness."""
    p = X.shape[1]
    if p > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{p} features exceeds the enumeration limit of {ENUM_LIMIT} "
            f"(2**{p} coalitions); use sampling"
        )
    predictions = np.array(columns(*X.T))
    values = _coalition_values(columns, X, data, predictions)
    return _attributions_from_values(values, p), values[:, 0, 0].copy(), predictions


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
    (values,), (base,), (predictions,) = _explain_exact(_block_columns(lambda rows: (model(rows),), len(data)), X, data)
    return ShapExplanation(values, base, predictions, feature_names)


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

    return tuple(ShapExplanation(*arrays) for arrays in zip(*_explain_exact(_block_columns(evaluate, len(data)), X, data)))


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
    columns = _block_columns(lambda rows: (model(rows),), len(data))
    with np.errstate(invalid="ignore"):  # +inf and -inf average or subtract to NaN, which ShapExplanation rejects
        v_empty = columns(*data.T)[0].mean()
        for lo in range(0, n, step):
            v = _splice_walk(columns, X[lo : lo + step], data, masks, 1)[0, 0]
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
        predictions=columns(*X.T)[0],
        stderr=stderr,
        n_permutations=count,
        exhaustive=exhaustive,
    )
