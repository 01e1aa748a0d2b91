"""Sign-flip randomization inference for regressions with few clusters.

Per-cluster least squares estimates are centered at the hypothesized
value, and the reference distribution comes from flipping their signs
cluster by cluster -- valid with as few as five clusters and arbitrary
heterogeneity across them.  Confidence intervals for a scalar contrast
have a closed form; time series fit in through pseudo-cluster blocks.
"""

from artcluster.blocks import BlockPlan, blockify, merge_clusters, plan_blocks
from artcluster.errors import (
    ArtClusterError,
    DegenerateGrouping,
    DegenerateVariance,
    EmptyCluster,
    GridTooCoarse,
    GroupTooLarge,
    IdentificationFailure,
    MissingColumn,
    NonFiniteValue,
    ParseError,
    SingularFullGram,
    SingularSigma,
    TooFewClusters,
    TooFewObservations,
    WidthMismatch,
)
from artcluster.estimation import (
    ClusterEstimates,
    RestrictedFit,
    cluster_scores,
    fit_per_cluster,
    fit_restricted,
)
from artcluster.groups import (
    SignGroup,
    enumerate_group,
    exhaustive_group,
    sampled_group,
)
from artcluster.intervals import (
    ConfidenceInterval,
    IntervalInputs,
    interval,
    interval_by_inversion,
    interval_inputs,
    pvalue_profile,
)
from artcluster.model import (
    ClusteredDataset,
    LinearHypothesis,
    MultiHypothesis,
    canonicalize,
)
from artcluster.randtest import (
    TestResult,
    critical_value,
    run_test,
    run_wald_test,
    scores_from_estimates,
    scores_via_restricted,
)
from artcluster.simulation import (
    DgpSpec,
    MonteCarloReport,
    generate,
    power_study,
    size_study,
)

__version__ = "0.1.0"

__all__ = [
    "ArtClusterError",
    "BlockPlan",
    "ClusterEstimates",
    "ClusteredDataset",
    "ConfidenceInterval",
    "DegenerateGrouping",
    "DegenerateVariance",
    "DgpSpec",
    "EmptyCluster",
    "GridTooCoarse",
    "GroupTooLarge",
    "IdentificationFailure",
    "IntervalInputs",
    "LinearHypothesis",
    "MissingColumn",
    "MonteCarloReport",
    "MultiHypothesis",
    "NonFiniteValue",
    "ParseError",
    "RestrictedFit",
    "SignGroup",
    "SingularFullGram",
    "SingularSigma",
    "TestResult",
    "TooFewClusters",
    "TooFewObservations",
    "WidthMismatch",
    "blockify",
    "canonicalize",
    "cluster_scores",
    "critical_value",
    "enumerate_group",
    "exhaustive_group",
    "fit_per_cluster",
    "fit_restricted",
    "generate",
    "interval",
    "interval_by_inversion",
    "interval_inputs",
    "merge_clusters",
    "plan_blocks",
    "power_study",
    "pvalue_profile",
    "run_test",
    "run_wald_test",
    "sampled_group",
    "scores_from_estimates",
    "scores_via_restricted",
    "size_study",
]
