"""Commuting conjugations of unitary operators.

Antilinear, isometric, involutive maps C with C U C = U: existence tests,
canonical construction, family sampling, membership verification, parameter
recovery, atomic measure models, exact grid shift models, and the Fourier /
Hilbert transform families.
"""

from .antilinear import (
    AntilinearOperator,
    ConjugationReport,
    commutation_defect,
    is_conjugation,
    symmetry_defect,
    transport,
)
from .errors import (
    AbsoluteContinuityError,
    InputError,
    MembershipError,
    NotSelfDualError,
    ToleranceError,
)
from .family import (
    ConjugationParams,
    canonical_conjugation,
    decompose,
    from_params,
    identity_params,
    layout_conjugation,
    verify_membership,
)
from .linalg import (
    four_unitary_split,
    haar_unitary,
    symmetric_unitary,
    unitarity_defect,
)
from .measures import AtomicMeasure
from .spectral import (
    BlockLayout,
    MultiplicityModel,
    UnitarySpectrum,
    canonical_form,
    check_selfdual,
    diagonalize_unitary,
    multiplicity_model,
)

__all__ = [
    "AbsoluteContinuityError",
    "AntilinearOperator",
    "AtomicMeasure",
    "BlockLayout",
    "ConjugationParams",
    "ConjugationReport",
    "InputError",
    "MembershipError",
    "MultiplicityModel",
    "NotSelfDualError",
    "ToleranceError",
    "UnitarySpectrum",
    "canonical_conjugation",
    "canonical_form",
    "check_selfdual",
    "commutation_defect",
    "decompose",
    "diagonalize_unitary",
    "four_unitary_split",
    "from_params",
    "haar_unitary",
    "identity_params",
    "is_conjugation",
    "layout_conjugation",
    "multiplicity_model",
    "symmetric_unitary",
    "symmetry_defect",
    "transport",
    "unitarity_defect",
    "verify_membership",
]
