"""Polygon-model state spaces, local discrimination protocols, and the
nonlocality-without-entanglement gap between global and local success
probabilities, with Bloch-circle qubit comparisons and classical-channel
polytope certification."""

from .catalog import (
    CATALOG_IDS,
    NamedEnsemble,
    PriorFamily,
    SearchSpaceTooLarge,
    biased,
    load,
    load_measurement,
    search_perfect_separable,
    uniform,
)
from .composition import (
    CompositeSystem,
    ProductEffect,
    ProductState,
    SeparableMeasurement,
    check_complete,
    kron,
)
from .discrimination import (
    DiscriminationReport,
    Leaf,
    MalformedTreeError,
    Node,
    SearchConfig,
    confusion_matrix,
    delta,
    eval_tree,
    optimal_local,
    tree_to_text,
)
from .quantum import (
    CurvePoint,
    curve,
    curve_csv,
    grouping,
    qt_delta_closed,
    qt_optimize,
    write_curve_csv,
)
from .signaling import (
    Channel,
    InconclusiveMembership,
    MembershipResult,
    classical_vertices,
    gpt_channel,
    in_classical_polytope,
)
from .systems import (
    DEFAULT_EPS,
    GptSystem,
    ProbabilityBoundError,
    find_pair_discriminator,
    make_bloch_circle,
    make_polygon,
    prob,
    zero_one_profile,
)

__version__ = "0.1.0"
