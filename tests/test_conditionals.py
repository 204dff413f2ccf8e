"""Negative control for the joint-distribution harness.

The positive Geweke checks and the single-vs-all-column fidelity check run
in the acceptance suite (criteria 8 and 10); this file keeps the detection
power test: the harness must flag the per-individual conditional (exact
only at R = I, built here from ``imputation_probabilities``) as wrong under
correlated residuals.
"""

import numpy as np

from snpgibbs.model import PriorHyperparams

from conftest import make_dataset
from _geweke import geweke_compare, per_individual_impute

Z_CRIT = 3.29  # two-sided p = 0.001

HARNESS_PRIORS = PriorHyperparams(5.0, 4.0, 5.0, 4.0)


def test_harness_detects_broken_conditional():
    data, _ = make_dataset(n=6, s=2, p=1, seed=31, missing=0.25, kinship="correlated")
    z = geweke_compare(
        data, beta0=[0.5], priors=HARNESS_PRIORS,
        n_marginal=40_000, n_successive=60_000, seed=3, impute=per_individual_impute,
    )
    assert np.max(np.abs(z)) > Z_CRIT, z
