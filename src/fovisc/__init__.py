"""Fractional-order viscoelastic rendering toolkit.

Short-memory fractional-difference kernels, the discrete standard-linear-
solid law with a fractional damper, sampled-data passivity bounds, effective
stiffness/damping decompositions, a rendering-loop simulator with an energy
observer, and passivity-constrained parameter identification.  Units are
{N, mm, s} throughout.
"""

from .fitting import (
    ExperimentData,
    FitConfig,
    FitResult,
    fit,
    nrmse,
    synth_experiment,
)
from .glkernel import (
    GLKernel,
    binom_general,
    build_kernel,
    delta_d,
    delta_p,
    delta_p_asymptotic,
    delta_p_sufficient,
    delta_s,
    s_of_omega,
)
from .impedance import (
    bfo_response,
    es_ed_asymptotic,
    es_ed_finite,
    es_ed_lowfreq,
    special_case_es_ed,
)
from .models import (
    CreepProtocol,
    DiscreteVE,
    FoSlsParams,
    RelaxationProtocol,
    creep_response,
    freq_response,
    relaxation_response,
)
from .passivity import (
    PassivityResult,
    RegionBoundary,
    bound_closed_form,
    bound_variants,
    max_passivity,
    passivity_function,
    region_scan,
    special_case_bound,
)
from .simloop import (
    ForceChirp,
    Impulse,
    PlantParams,
    PureSpring,
    Scripted,
    SimTrace,
    empirical_boundary,
    energy_observer,
    is_unstable,
    plant_ident,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "GLKernel",
    "build_kernel",
    "binom_general",
    "delta_p",
    "delta_p_asymptotic",
    "delta_p_sufficient",
    "delta_s",
    "delta_d",
    "s_of_omega",
    "FoSlsParams",
    "DiscreteVE",
    "freq_response",
    "relaxation_response",
    "creep_response",
    "PassivityResult",
    "RegionBoundary",
    "passivity_function",
    "max_passivity",
    "bound_closed_form",
    "bound_variants",
    "special_case_bound",
    "region_scan",
    "es_ed_finite",
    "es_ed_asymptotic",
    "es_ed_lowfreq",
    "bfo_response",
    "special_case_es_ed",
    "PlantParams",
    "SimTrace",
    "Impulse",
    "ForceChirp",
    "Scripted",
    "PureSpring",
    "simulate",
    "energy_observer",
    "is_unstable",
    "empirical_boundary",
    "plant_ident",
    "ExperimentData",
    "FitResult",
    "FitConfig",
    "CreepProtocol",
    "RelaxationProtocol",
    "nrmse",
    "fit",
    "synth_experiment",
    "__version__",
]
