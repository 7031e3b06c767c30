"""Multiplicative composition of two additive SHAP explanations.

For a two-part model ``h(x) = f(x) * g(x)`` whose parts were explained
additively (``x_hat = mu_f + sum_j sx_j`` and ``y_hat = mu_g + sum_j sy_j``),
expanding the product of the two sums assigns every cross term to a feature:
the diagonal term ``sx_j * sy_j`` and the ``mu`` terms belong wholly to
feature j, while each off-diagonal product ``sx_j * sy_a`` is split evenly
between features j and a.  That yields the pre-correction attribution

    s'_j = mu_f * sy_j + sx_j * mu_g + (1/2) * sum_a (sx_j * sy_a + sy_j * sx_a)

whose row sum telescopes to ``x_hat * y_hat - mu_f * mu_g``.  The product of
the part baselines is not the product model's mean prediction, so the scalar
correction ``alpha = mu_f * mu_g - mu_h`` must be folded back into the
attributions.  Four distribution rules are supported, all of which preserve
local accuracy (``z_hat = mu_h + sum_j sz_j``):

    uniform    sz_j = s'_j + alpha / p
    raw        sz_j = s'_j + alpha * s'_j / (z_hat - mu_f * mu_g)
    absolute   sz_j = s'_j + alpha * |s'_j| / sum_k |s'_k|
    squared    sz_j = s'_j + alpha * s'_j**2 / sum_k s'_k**2

Rows where a weighting denominator degenerates (an identically-zero s' row,
or a raw denominator indistinguishable from zero) fall back to the uniform
rule and are flagged on the result, since only the uniform rule is defined
there.  Expected-value models that take a linear combination of several
product models are handled by applying the same linear combination to the
attribution matrices (:func:`linear_combine_explanations`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Sequence

import numpy as np

from .errors import DimensionError, InvalidInputError
from .shapley import ShapExplanation, validate_local_accuracy
from .tables import _block_rows

INPUT_ACCURACY_TOL = 1e-6
RAW_DEGENERACY_TOL = 1e-12
# raw weights blow up as the row total cancels; past this amplification the
# corrected entries are so large that their own float64 rounding (eps * |entry|,
# summed over the row) would eat the 1e-9 local-accuracy budget, so the row
# falls back to the uniform rule instead of emitting numerically void output
RAW_AMPLIFICATION_LIMIT = 1e5


class AlphaMethod(Enum):
    """How the baseline-product correction is spread across features."""

    UNIFORM = "uniform"
    RAW = "raw"
    ABSOLUTE = "absolute"
    SQUARED = "squared"


@dataclass(frozen=True, eq=False, kw_only=True)
class MshapExplanation(ShapExplanation):
    """Combined attributions for a product model.

    A plain :class:`ShapExplanation` whose ``baseline`` is mu_h, so each row of
    ``values`` plus the baseline reconstructs ``z_hat = x_hat * y_hat``.
    ``alpha`` records the distributed correction ``mu_f * mu_g - mu_h``;
    ``fallback_rows`` lists rows where the requested weighting degenerated and
    the uniform rule was used instead.
    """

    alpha: float
    method: AlphaMethod
    fallback_rows: tuple[int, ...] = ()

    def as_shap_explanation(self) -> ShapExplanation:
        """The explanation itself; it already is one with baseline mu_h."""
        return self


def mean_product_baseline(preds_f: np.ndarray, preds_g: np.ndarray) -> float:
    """mu_h as the mean of element-wise prediction products."""
    f = np.asarray(preds_f, dtype=float)
    g = np.asarray(preds_g, dtype=float)
    if f.ndim != 1 or f.shape != g.shape:
        raise DimensionError(f"prediction vectors must be (n,) and (n,), got {f.shape} and {g.shape}")
    if not f.size:
        raise DimensionError("prediction vectors are empty")
    with np.errstate(all="ignore"):  # a non-finite mu_h is rejected by combine
        return float((f * g).mean())


def _prime_rows(sx: np.ndarray, sy: np.ndarray, mu_f: np.ndarray, mu_g: np.ndarray) -> np.ndarray:
    # factored form of the cross-term split: 0.5 * (sx_j * sum(sy) + sy_j * sum(sx))
    row_sx = sx.sum(axis=-1, keepdims=True)
    row_sy = sy.sum(axis=-1, keepdims=True)
    return mu_f * sy + mu_g * sx + 0.5 * (sx * row_sy + sy * row_sx)


# the mass each rule gives feature j; a row's weights are its masses over their total
_MASS = {
    AlphaMethod.UNIFORM: np.ones_like,
    AlphaMethod.RAW: lambda s: s,
    AlphaMethod.ABSOLUTE: np.abs,
    AlphaMethod.SQUARED: lambda s: s * s,
}


def _distribute_rows(
    s_prime: np.ndarray,
    alpha: float | np.ndarray,
    method: AlphaMethod,
    z_hat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the alpha weighting row-wise to (n, p) or (C, n, p) s'; returns (s_z, fallback mask)."""
    if method not in _MASS:
        raise InvalidInputError(f"unknown alpha method: {method!r}")
    mass = _MASS[method](s_prime)
    # the raw total is the row total of s', which telescopes to z_hat - mu_f*mu_g;
    # summing s' itself keeps sum(w) = 1 to rounding, where dividing by the
    # independently-computed z_hat - mu_f*mu_g would amplify their float
    # discrepancy by alpha/total near degeneracy
    total = mass.sum(axis=-1)
    scale = np.maximum(1.0, np.abs(z_hat)) if method is AlphaMethod.RAW else 1.0
    fallback = np.abs(total) < RAW_DEGENERACY_TOL * scale
    if method is AlphaMethod.RAW:
        # |alpha| * max|s'| / |total| is the corrected-entry magnitude; written
        # multiplication-only so a zero total needs no special case
        fallback |= (
            (np.abs(alpha) * np.abs(s_prime).max(axis=-1, keepdims=True))[..., 0]
            > RAW_AMPLIFICATION_LIMIT * scale * np.abs(total)
        )
    weights = np.where(
        fallback[..., None], 1.0 / s_prime.shape[-1], mass / np.where(fallback, 1.0, total)[..., None]
    )
    return s_prime + alpha * weights, fallback


# the arrays of C part explanations, (C, n, p), (C,) and (C, n), as validate_local_accuracy reads them
_PartStack = namedtuple("_PartStack", "values baseline predictions")


def _stack(parts: Sequence[ShapExplanation]) -> _PartStack:
    """C part explanations of one shape, copied into one stack."""
    return _PartStack(*(np.array([getattr(e, key) for e in parts]) for key in _PartStack._fields))


def _check_alignment(expl_f: ShapExplanation, expl_g: ShapExplanation) -> tuple[str, ...] | None:
    if expl_f.values.shape != expl_g.values.shape:
        raise DimensionError(
            f"part explanations differ in shape: {expl_f.values.shape} vs {expl_g.values.shape}"
        )
    names_f, names_g = expl_f.feature_names, expl_g.feature_names
    if names_f is not None and names_g is not None:
        if names_f != names_g:
            bad = next(i for i, (a, b) in enumerate(zip(names_f, names_g)) if a != b)
            raise DimensionError(
                f"feature names disagree at column {bad}: {names_f[bad]!r} vs {names_g[bad]!r}"
            )
        return names_f
    return names_f if names_f is not None else names_g


def _combine_rules(
    part_f: _PartStack,
    part_g: _PartStack,
    mu_h: Sequence[float],
    methods: Collection[AlphaMethod],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """Cell c composes cell c of the aligned stacks ``part_f`` and ``part_g`` with the
    finite ``mu_h[c]`` under each of r ``methods``, all in one pass.

    Returns the (C, r, n, p) values, the (C, r, n) fallback row masks, the C
    alphas, the (C, n) z_hat and per cell its error: None, or the
    ``InvalidInputError`` of its first failed check (part f's local accuracy,
    part g's, overflow).  Rows are composed in blocks of the tables'
    ``_BLOCK_CELLS`` input cells straight into the output, and every reduction
    runs along a cell's own rows, so neither the blocks nor another cell change
    a bit; :func:`combine` is the one-cell, one-rule case.
    """
    reports = [validate_local_accuracy(part, INPUT_ACCURACY_TOL) for part in (part_f, part_g)]
    (sx, mu_f, pred_f), (sy, mu_g, pred_g) = part_f, part_g
    cells, n, p = sx.shape
    values = np.empty((cells, len(methods), n, p))
    fallbacks = np.empty((cells, len(methods), n), dtype=bool)
    step = _block_rows(cells * p)
    with np.errstate(all="ignore"):  # an overflow is reported below, once per cell, as an error
        alpha = mu_f * mu_g - np.asarray(mu_h, dtype=float)
        z_hat = pred_f * pred_g
        finite = np.isfinite(alpha) & np.isfinite(z_hat).all(axis=1)
        for rows in (slice(lo, lo + step) for lo in range(0, n, step)):
            s_prime = _prime_rows(sx[:, rows], sy[:, rows], mu_f[:, None, None], mu_g[:, None, None])
            for r, method in enumerate(methods):
                values[:, r, rows], fallbacks[:, r, rows] = _distribute_rows(
                    s_prime, alpha[:, None, None], method, z_hat[:, rows]
                )
            finite &= np.isfinite(values[:, :, rows]).all(axis=(1, 2, 3))

    def error(c: int) -> InvalidInputError | None:
        for label, report in zip("fg", reports):
            if not report.row_ok[c].all():
                worst = np.abs(report.residuals[c]).argmax()
                return InvalidInputError(
                    f"part {label} fails local accuracy: worst row {worst} "
                    f"has residual {report.residuals[c, worst]:.3e}"
                )
        return None if finite[c] else InvalidInputError(
            f"the combined attributions are not finite (alpha={float(alpha[c])}): the part "
            "baselines, values or predictions overflow float64"
        )

    return values, fallbacks, alpha, z_hat, [error(c) for c in range(cells)]


def combine(
    expl_f: ShapExplanation,
    expl_g: ShapExplanation,
    mu_h: float,
    method: AlphaMethod = AlphaMethod.ABSOLUTE,
) -> MshapExplanation:
    """Combine two part explanations into product-model attributions.

    ``mu_h`` is the mean product prediction over the training/background set
    (see :func:`mean_product_baseline`); it is passed explicitly because the
    set defining it may differ from the rows being explained.  Inputs must
    satisfy local accuracy at 1e-6 relative, and ``mu_h`` must be finite.  The
    default weighting is the absolute-value rule, the best scorer of the four
    in simulation.
    """
    mu_h = float(mu_h)
    if not np.isfinite(mu_h):
        raise InvalidInputError(f"mu_h must be finite, got {mu_h}")
    names = _check_alignment(expl_f, expl_g)
    # views of the one cell: no copy of either part
    parts = [_PartStack(e.values[None], np.array([e.baseline]), e.predictions[None]) for e in (expl_f, expl_g)]
    values, fallbacks, alpha, z_hat, (error,) = _combine_rules(*parts, [mu_h], (method,))
    if error is not None:
        raise error
    return MshapExplanation(
        values=values[0, 0],
        baseline=mu_h,
        predictions=z_hat[0],
        feature_names=names,
        alpha=float(alpha[0]),
        method=method,
        fallback_rows=tuple(np.flatnonzero(fallbacks[0, 0]).tolist()),
    )


def linear_combine_explanations(
    parts: Sequence[tuple[float, ShapExplanation]],
) -> ShapExplanation:
    """Weighted sum of explanations: values, baselines and predictions.

    Parts must agree in shape and in their feature names where they have any.
    Local accuracy is preserved: if each part reconstructs its own prediction,
    the combined values reconstruct the same weighted sum of predictions.
    """
    if not parts:
        raise InvalidInputError("a linear combination needs at least one part")
    if not np.isfinite([float(w) for w, _ in parts]).all():
        raise InvalidInputError("linear combination weights must be finite")
    # checked against a named part, if any, so no two names disagree
    first = next((e for _, e in parts if e.feature_names is not None), parts[0][1])
    for _, e in parts:
        _check_alignment(first, e)
    with np.errstate(all="ignore"):  # an overflow is non-finite, which ShapExplanation rejects
        values = sum(float(w) * e.values for w, e in parts)
        base = sum(float(w) * e.baseline for w, e in parts)
        predictions = sum(w * e.predictions for w, e in parts)
    return ShapExplanation(
        values=values, baseline=base, predictions=predictions, feature_names=first.feature_names
    )


def linear_combine_mshap(
    parts: Sequence[tuple[float, MshapExplanation]],
) -> MshapExplanation:
    """Weighted sum of combined explanations, e.g. expected-value class models.

    All parts must share the distribution method; alphas combine with the same
    weights as the values, baselines and predictions, so local accuracy carries
    over.
    """
    total = linear_combine_explanations(parts)
    methods = {e.method for _, e in parts}
    if len(methods) > 1:
        raise InvalidInputError(f"parts mix alpha methods: {sorted(m.value for m in methods)}")
    fallback = sorted({i for _, e in parts for i in e.fallback_rows})
    return MshapExplanation(
        values=total.values,
        baseline=total.baseline,
        predictions=total.predictions,
        feature_names=total.feature_names,
        alpha=sum(w * e.alpha for w, e in parts),
        method=parts[0][1].method,
        fallback_rows=tuple(fallback),
    )
