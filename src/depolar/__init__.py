"""Polarization, depolarization and Alexander duality for monomial ideals.

The package turns a squarefree monomial computation into a smaller one on
fewer variables: depolarize along a chain partition of the support poset,
dualize there, then expand the answer back.  Exact simplicial homology and
Hochster-style multigraded Betti numbers ride on the same machinery.
"""

from .complexes import (
    SimplicialComplex,
    alexander_dual_complex,
    complex_of_squarefree_ideal,
    facet_complement_complex,
    facet_complement_ideal,
    koszul_complex,
    stanley_reisner_ideal,
)
from .depolarization import (
    ChainPartition,
    Depolarization,
    SupportPoset,
    depolarize,
    min_chain_partition,
    ordered_support_poset,
    singleton_partition,
    support_sets,
    validate_depolarization,
)
from .duality import (
    a_minus,
    alexander_dual_ideal,
    dual_complex_via_depolarization,
    repolarize_dual,
)
from .families import (
    FAMILY_BUILDERS,
    gen_jknm,
    gen_power_ideal,
    gen_random_ideal,
    gen_variable_powers,
)
from .homology import (
    BettiTable,
    graded_betti,
    hochster_betti,
    reduced_homology_dims,
    total_betti,
)
from .ideals import (
    InputError,
    MonomialIdeal,
    ResourceLimit,
    Ring,
    format_monomial,
    minimalize,
    parse_monomial,
)
from .polarization import (
    PolarVariableMap,
    expanded_koszul,
    polarize_ideal,
    verify_polar_koszul_iso,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "ChainPartition",
    "Depolarization",
    "FAMILY_BUILDERS",
    "InputError",
    "MonomialIdeal",
    "PolarVariableMap",
    "ResourceLimit",
    "Ring",
    "SimplicialComplex",
    "SupportPoset",
    "a_minus",
    "alexander_dual_complex",
    "alexander_dual_ideal",
    "complex_of_squarefree_ideal",
    "depolarize",
    "dual_complex_via_depolarization",
    "expanded_koszul",
    "facet_complement_complex",
    "facet_complement_ideal",
    "format_monomial",
    "gen_jknm",
    "gen_power_ideal",
    "gen_random_ideal",
    "gen_variable_powers",
    "graded_betti",
    "hochster_betti",
    "koszul_complex",
    "min_chain_partition",
    "minimalize",
    "ordered_support_poset",
    "parse_monomial",
    "polarize_ideal",
    "reduced_homology_dims",
    "repolarize_dual",
    "singleton_partition",
    "stanley_reisner_ideal",
    "support_sets",
    "total_betti",
    "validate_depolarization",
    "verify_polar_koszul_iso",
]
