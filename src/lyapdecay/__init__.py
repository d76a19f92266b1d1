"""Sharp decay envelopes for defective linear ODE systems.

The package constructs (possibly time-dependent) Lyapunov norms adapted to a
positive stable matrix C, derives decay envelopes of the form
C * (1 + t^(2(M-1))) * exp(-2 mu t) for solutions of dx/dt = -C x with fully
explicit constants, and verifies those envelopes against the exact matrix
propagator.  Three spectral sensitivity models (convection-diffusion,
two-velocity relaxation, Fokker-Planck) exercise the machinery uniformly in
an uncertainty parameter.
"""

from .linalg import (
    expm,
    spectral_norm,
    hermitian_extremes,
    eigenvalues,
    HermitianSpectrum,
)
from .jordan import (
    JordanBlock,
    JordanStructure,
    cluster_eigenvalues,
    jordan_chains,
    structure_from_chains,
    verify_chain,
    JordanAmbiguityError,
    NotPositiveStableError,
)
from .lyapunov import (
    LyapunovForm,
    DecayEnvelope,
    build_form,
    build_p,
    build_p_epsilon,
    case2_weights,
    c_m_constant,
    decay_constant,
    improved_defect1_envelope,
    lower_bound_lemma_gap,
    tilde_constant,
    verify_matrix_inequality,
    w_vector,
)
from .oracle import (
    EnvelopeReport,
    check_dominance,
    duhamel_solve,
    nilpotent2_propagator_sq,
    sharpness_order,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
