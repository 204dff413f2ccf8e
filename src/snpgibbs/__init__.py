"""snpgibbs: SNP effect estimation under missing genotypes.

A Gibbs sampler for the linear mixed model Y = X beta + Z gamma + eps
with pedigree-based residual correlation, multiple imputation of missing
genotypes inside the chain, Bayes-factor-driven model search, and an EM
baseline. The chain keeps Z'R^-1 Z exact as imputation rewrites design
columns and draws gamma from one Cholesky factorization per sweep.
"""

__version__ = "0.1.0"

from .gibbs import (
    CredibleInterval,
    GibbsConfig,
    ParameterState,
    PosteriorSamples,
    hpd_interval,
    run_chain,
)
from .model import (
    Dataset,
    FamilyDesign,
    GenotypeMatrix,
    ImputationPrior,
    PhenotypeVector,
    PriorHyperparams,
    encode_genotypes,
)
from .pedigree import (
    OrderedPedigree,
    PedigreeRecord,
    RelationshipMatrix,
    build_numerator_matrix,
    extract_submatrix,
    order_pedigree,
)
from .selector import (
    BayesFactorEstimate,
    ModelIndicator,
    SearchConfig,
    SearchTrace,
    bayes_factor_statistics,
    estimate_bayes_factor,
    exhaustive_search,
    mh_model_search,
)

__all__ = [
    "__version__",
    "CredibleInterval",
    "GibbsConfig",
    "ParameterState",
    "PosteriorSamples",
    "hpd_interval",
    "run_chain",
    "Dataset",
    "FamilyDesign",
    "GenotypeMatrix",
    "ImputationPrior",
    "PhenotypeVector",
    "PriorHyperparams",
    "encode_genotypes",
    "OrderedPedigree",
    "PedigreeRecord",
    "RelationshipMatrix",
    "build_numerator_matrix",
    "extract_submatrix",
    "order_pedigree",
    "BayesFactorEstimate",
    "ModelIndicator",
    "SearchConfig",
    "SearchTrace",
    "bayes_factor_statistics",
    "estimate_bayes_factor",
    "exhaustive_search",
    "mh_model_search",
]
