"""Spectral analysis of discrete and continuous stellar oscillation operators.

The discrete side builds geometric shell models (``model``), assembles
their tridiagonal wave operators (``discrete``), and locates truncation
spectra, Jost asymptotics and band structures (``spectra``); sparse
perturbations that accumulate point spectrum live in ``ppmodes`` and
the diagonal rescaling of stiff constant-exponent profiles in
``polytrans``.  The continuous side (``slform``) transforms singular
oscillation equations to canonical form and quantifies surface behavior.
``cli`` drives every analysis from JSON configs with reproducible
artifacts.
"""

from types import ModuleType as _ModuleType

from .errors import NumericalError, ValidationError
from .model import (
    FOUR_PI,
    GammaProfile,
    MassDistribution,
    PressureDensityDistribution,
    ScalingParams,
    build_mass_distribution,
    build_pd_distribution,
    check_power_law,
    coupling_constant,
    gamma_profile,
    profile_constant,
    scaling_params,
)
from .discrete import (
    JacobiOperator,
    assemble_jacobi,
    coupling_values,
    delta_r_bounded,
)
from .spectra import (
    BandReport,
    BandStructure,
    FillReport,
    JostFit,
    band_report,
    band_structure,
    eigenpairs_tridiagonal,
    eigenvalues_tridiagonal,
    eigenvectors_inverse_iteration,
    gershgorin_interval,
    jost_verify,
    spectrum_fill_report,
    sturm_counts,
)
from .ppmodes import (
    BumpField,
    EdgeModes,
    construct_dsp,
    detect_edge_eigenvalues,
    theorem_model,
)
from .polytrans import (
    GrowthReport,
    LocalFrequencies,
    ScaledSystem,
    TransformCheck,
    build_scaled_system,
    delta_r_growth,
    grading_exact,
    grading_exponents,
    local_frequencies,
    similarity_check,
)
from .slform import (
    CanonicalForm,
    CanonicalTrace,
    CaseReport,
    DecayReport,
    LinearThermal,
    Polytropic,
    QuadCheck,
    SurfaceLayer,
    TailEnvelope,
    WKBFit,
    canonical_derivative_exponents,
    classify_sl_case,
    edge_quadratic,
    extend_trace_asymptotic,
    integrate_canonical,
    l2_growth,
    regularity_check,
    trace_regularity,
    wkb_fit,
)

__version__ = "0.1.0"

# every name imported above is public; the submodules stay reachable as
# attributes but are not part of the star-import
__all__ = ["__version__", *sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType))]
