"""Generalized Hermite (Hermite-Chihara) orthogonal polynomial systems.

Construct systems from governing sequences, realize their derivation operators
and oscillator algebras, and verify the defining identities exactly (rational
arithmetic) or numerically (quadrature, truncated matrices).
"""

from .governing import (
    ConstructionError,
    GoverningSequence,
    ValidationReport,
    bracket_table,
    gamma_squares,
    is_special_family,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
    validate,
)
from .derivation import DerivationOperator, OrderVerdict, Poly, epsilons_from_sequence
from .systems import (
    DecompositionReport,
    FloatRangeError,
    PolynomialSystem,
    UnsupportedSystemError,
    alpha_closed,
    alpha_nested,
)
from .oscillator import (
    CommutatorReport,
    OperatorSet,
    SpectrumReport,
    build_operators,
    commutator_report,
    spectrum_report,
    square_lowering_report,
)
from .measure import (
    DeterminacyReport,
    MeasureSpec,
    OrthonormalityReport,
    carleman_determinacy,
    gram_deviation,
    jacobi_moment,
    moment_closed,
    normalization,
    spec_for_system,
)

__version__ = "0.1.0"
