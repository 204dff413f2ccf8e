import numpy as np
import pytest

import snpgibbs.gibbs as gibbs
from snpgibbs.model import (
    Dataset,
    FamilyDesign,
    GenotypeMatrix,
    PhenotypeVector,
    snp_design_matrix,
)
from snpgibbs.pedigree import RelationshipMatrix


def make_dataset(
    n=12,
    s=3,
    p=2,
    seed=0,
    missing=0.0,
    coding="signed",
    kinship="identity",
    beta=None,
    gamma=None,
    sigma2=1.0,
):
    """Small synthetic dataset with known coefficients, for unit tests."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(-1, 2, size=(n, s)).astype(np.int8)
    mask = np.zeros((n, s), dtype=bool)
    if missing:
        cells = rng.choice(n * s, size=int(round(missing * n * s)), replace=False)
        mask.ravel()[cells] = True
        # keep at least one observed entry per column
        for j in range(s):
            if mask[:, j].all():
                mask[0, j] = False
    ids = tuple(f"i{k}" for k in range(n))
    X = np.zeros((n, p))
    for i in range(n):
        X[i, i % p] = 1.0
    if kinship == "identity":
        R = RelationshipMatrix.identity(ids)
    else:
        entries = np.full((n, n), 0.3)
        np.fill_diagonal(entries, 1.0)
        R = RelationshipMatrix(ids, entries)
    beta = np.arange(1, p + 1, dtype=float) if beta is None else np.asarray(beta, float)
    sdim = s if coding == "signed" else 2 * s
    if gamma is None:
        gamma = rng.normal(0, 1, size=sdim)
    Zd = snp_design_matrix(codes, coding)
    L = np.linalg.cholesky(R.entries)
    y = X @ beta + Zd @ np.asarray(gamma, float) + np.sqrt(sigma2) * (L @ rng.standard_normal(n))
    visible = codes.copy()
    visible[mask] = 0
    data = Dataset(
        genotypes=GenotypeMatrix(visible, mask),
        phenotypes=PhenotypeVector(y),
        design=FamilyDesign(X),
        kinship=R,
        snp_coding=coding,
        ids=ids,
    )
    truth = {"beta": beta, "gamma": np.asarray(gamma, float), "codes": codes, "sigma2": sigma2}
    return data, truth


def fresh_workspace(state, data):
    """A chain workspace of the state's completed design, as a chain
    builds at its start."""
    return gibbs.ChainWorkspace(data, snp_design_matrix(state.z_imputed, data.snp_coding))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def poison_phi2(monkeypatch, k):
    """Make the k-th phi^2 draw (iteration k - 1) a tiny negative value, so
    that the gamma precision of iteration k is not positive definite."""
    real = gibbs.sample_phi2
    calls = []

    def draw(state, priors, rng):
        calls.append(None)
        value = real(state, priors, rng)
        return -1e-12 if len(calls) == k else value

    monkeypatch.setattr(gibbs, "sample_phi2", draw)
