"""Helpers shared by test modules.

They live here rather than in conftest.py because benchmarks/tests has a
conftest.py of its own, so ``from conftest import ...`` is ambiguous when
both directories are collected.
"""

from mshap import ShapExplanation


def make_parts(rng, n, p, scale=1e3, names=None):
    """Random part explanations whose predictions satisfy local accuracy exactly."""
    sx = rng.uniform(-scale, scale, (n, p))
    sy = rng.uniform(-scale, scale, (n, p))
    mu_f = float(rng.uniform(-scale, scale))
    mu_g = float(rng.uniform(-scale, scale))
    expl_f = ShapExplanation(sx, mu_f, mu_f + sx.sum(axis=1), feature_names=names)
    expl_g = ShapExplanation(sy, mu_g, mu_g + sy.sum(axis=1), feature_names=names)
    return expl_f, expl_g
