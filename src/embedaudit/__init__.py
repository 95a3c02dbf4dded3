"""Audit toolkit for dot-product graph embeddings and triangle structure.

The central statistic is the triangle-foundation curve: for each degree
threshold c, the number of triangles whose endpoints all have degree at
most c, divided by the total vertex count.  The package computes this curve
exactly for graphs, builds spectral embeddings, maps pair scores to edge
probabilities under four model variants, samples graphs from those models
reproducibly, and ships numeric verifiers for the rank lower-bound toolbox
that explains why low-rank dot-product models cannot keep low-degree
triangle density.
"""

from .embedding import (
    EigensolverError,
    Embedding,
    EmbeddingFormatError,
    load_embedding,
    save_embedding,
    spectral_embed,
)
from .graph import (
    EdgeListParseError,
    Graph,
    InputError,
    LoadedEdgeList,
    TriangleFoundationCurve,
    load_edge_list,
    save_edge_list,
    triangle_foundation_curve,
)
from .models import (
    DegreeSoftmax,
    FitReport,
    LogisticDot,
    LogisticHadamard,
    TruncatedDot,
    build_softmax,
    fit_lrdp,
    fit_lrhp,
    model_digest,
    model_to_json,
    softmax_clamp_count,
)
from .sampling import (
    SampleCurveSet,
    curve_over_samples,
    expected_degree_second_moment,
    expected_degrees,
    expected_triangles_exact,
    sample_graph,
)
from .theory import (
    ALPHA_CEILING,
    LengthBounds,
    RankCertificate,
    TheoremBoundParams,
    core_rank_certificate,
    greedy_independent_set,
    independent_set_floor,
    length_lower_bound,
    negative_dot_mass,
    numeric_rank,
    packing_max_dot,
    rank_lemma_bound,
    theorem_rank_lower_bound,
)

__version__ = "0.1.0"
