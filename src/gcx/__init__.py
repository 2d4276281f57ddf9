"""Computational checks for generalized complex surgeries.

Symbolic mixed forms on coordinate charts, pure-spinor verification
(type, stability, twisted integrability), surgery bookkeeping on
manifold descriptors, and a small scenario language with a bundled
corpus of worked examples.
"""

from .chart import Chart, ChartError, Interval, Region, RegionError, everywhere
from .forms import (
    EqualityResult,
    FormError,
    GeneralizedSection,
    MixedForm,
    clifford,
    courant_bracket,
    d,
    exp_form,
    form_equal,
    interior,
    lie_derivative,
    pairing,
    wedge,
)
from .groups import (
    AbelianInvariants,
    GroupError,
    GroupPresentation,
    abelianization,
    free_product,
    parse_word,
    quotient_normal_closure,
    smith_normal_form,
    tietze_simplify,
)
from .maps import CoordinateMap, MapError, pullback
from .scalars import bump_function, expr_equal, opaque_function
from .scenario import ParseError, Scenario, parse_scenario
from .runner import Report, RunError, list_corpus, load_scenario, run
from .spinor import (
    IntegrabilityResult,
    SpinorError,
    SpinorStructure,
    StabilityResult,
    assembly_check,
    b_field_transform,
    build_gluck_spinor,
    build_luttinger_spinor,
    check_integrable,
    check_nondegenerate,
    check_stable,
    lemma_extension_check,
    luttinger_gluing_map,
    type_at,
)
from .topology import (
    BranchComponent,
    BranchingData,
    ManifoldDescriptor,
    SurgeryLocus,
    SurgeryParams,
    TopologyError,
    TypeChangeComponent,
    apply_branched_cover,
    apply_cover,
    apply_gluck,
    apply_luttinger,
    classify_from_surface,
    classify_simply_connected_5,
    components_report,
    riemann_hurwitz_check,
    validate_surgery_params,
)

__version__ = "0.1.0"
