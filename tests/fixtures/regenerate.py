"""Regenerate the stored CLI parity fixtures (deterministic).

Run from the repository root:  python3 tests/fixtures/regenerate.py [OUT_DIR]
OUT_DIR defaults to this directory.
"""

import json
import sys
from pathlib import Path

import numpy as np

from mshap import (
    ShapExplanation,
    ShapTable,
    additive_model,
    explain_matrix,
    explanation_to_table,
    write_shap_table,
)

HERE = Path(__file__).parent


def main(out: Path = HERE):
    rng = np.random.default_rng(977)

    # fixture 1: single-feature pair
    expl_f, expl_g = _pair(rng, n=6, p=1, names=("mileage",))
    write_shap_table(out / "single_f.csv", explanation_to_table(expl_f))
    write_shap_table(out / "single_g.csv", explanation_to_table(expl_g))

    # fixture 2: identity pair (second part constant 1)
    expl_f, _ = _pair(rng, n=8, p=3, names=("age", "zone", "power"))
    ident = ShapExplanation(np.zeros((8, 3)), 1.0, np.ones(8), ("age", "zone", "power"))
    write_shap_table(out / "identity_f.csv", explanation_to_table(expl_f))
    write_shap_table(out / "identity_g.csv", explanation_to_table(ident))

    # fixture 3: 20 x 3 pair from exactly-explained additive models
    names = ("x1", "x2", "x3")
    X = rng.uniform(-3, 3, (20, 3))
    background = X[:10]
    f = additive_model(rng.uniform(-2, 2, 3), intercept=0.7)
    g = additive_model(rng.uniform(-2, 2, 3), intercept=1.9)
    write_shap_table(
        out / "additive_f.csv",
        explanation_to_table(explain_matrix(f, X, background, feature_names=names)),
    )
    write_shap_table(
        out / "additive_g.csv",
        explanation_to_table(explain_matrix(g, X, background, feature_names=names)),
    )

    # fixture 4: candidate/reference tables for score (no prediction columns)
    reference = rng.uniform(-5, 5, (15, 4))
    candidate = reference + rng.normal(0, 0.8, (15, 4))
    cols = ("a", "b", "c", "d")
    for name, values in (("score_candidate", candidate), ("score_reference", reference)):
        write_shap_table(out / f"{name}.csv", ShapTable(values=values, baseline=0.25, feature_names=cols))

    # fixture 5: one-cell simulation config
    (out / "sim_config.json").write_text(
        json.dumps(
            {
                "scenarios": [
                    {
                        "y1": "Y1B",
                        "y2": "Y2C",
                        "theta1": 1.5,
                        "theta2": 1.0,
                        "n": 40,
                        "background_size": 20,
                        "seed": 31,
                    }
                ]
            },
            indent=2,
        )
        + "\n"
    )


def _pair(rng, n, p, names):
    sx = rng.uniform(-2, 2, (n, p))
    sy = rng.uniform(-2, 2, (n, p))
    mu_f = float(rng.uniform(0.5, 2.0))
    mu_g = float(rng.uniform(0.5, 2.0))
    expl_f = ShapExplanation(sx, mu_f, mu_f + sx.sum(axis=1), names)
    expl_g = ShapExplanation(sy, mu_g, mu_g + sy.sum(axis=1), names)
    return expl_f, expl_g


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
