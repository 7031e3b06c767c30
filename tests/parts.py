"""Helpers shared by test modules.

They live here rather than in conftest.py because benchmarks/tests has a
conftest.py of its own, so ``from conftest import ...`` is ambiguous when
both directories are collected.
"""

import tracemalloc

import numpy as np

from mshap import ModelFunction, ShapExplanation
from mshap.simulation import RESPONSE_FUNCTIONS


def constant_model(arity, value):
    """A model that predicts ``value`` for every row."""
    return ModelFunction(arity, lambda X: np.full(X.shape[0], float(value)))


def scenario_model(fn_id, p):
    """A catalog response as a p-ary matrix model; columns past its arity are inert.

    The oracle runs the catalog formulas on columns; this matrix form is the
    reference the property tests compare those columns against.
    """
    rf = RESPONSE_FUNCTIONS[fn_id]
    return ModelFunction(p, lambda X: rf.formula(*X.T[: rf.arity]))


def peak_bytes(call):
    """``call()`` and the traced peak of the heap it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_parts(rng, n, p, scale=1e3, names=None):
    """Random part explanations whose predictions satisfy local accuracy exactly."""
    sx = rng.uniform(-scale, scale, (n, p))
    sy = rng.uniform(-scale, scale, (n, p))
    mu_f = float(rng.uniform(-scale, scale))
    mu_g = float(rng.uniform(-scale, scale))
    expl_f = ShapExplanation(sx, mu_f, mu_f + sx.sum(axis=1), feature_names=names)
    expl_g = ShapExplanation(sy, mu_g, mu_g + sy.sum(axis=1), feature_names=names)
    return expl_f, expl_g
