"""Verified computational library for Clifford algebras over the
hyperbolic-complex scalars.

See the README for the library tour and the ``hyperclifford`` command for
the verification harness.
"""

from .scalars import (
    BackendMismatch,
    HScalar,
    ZeroDivisor,
    from_null_coords,
    to_null_coords,
    trig_tilde,
)
from .matrices import (
    HMatrix,
    SingularMatrix,
    kron,
    pauli2,
    pauli4,
    sigma_ab,
)
from .algebra import (
    AlgebraRep,
    Multivector,
    NonOrthogonalBasis,
    Signature,
    enumerate_algebra,
    even_subalgebra,
    get_rep,
    involution_table,
    porteous_conjugate_2x2,
    porteous_dagger_4x4,
    porteous_hat_4x4,
    pseudoscalar,
)
from .paravectors import (
    Paravector,
    ParavectorSpace,
    dot,
    embed_momentum,
    get_space,
    quasi_sphere_residual,
    wedge2,
    wedge3,
    wedge4,
)
from .rotors import (
    ResultOutsideParavectorSpan,
    Rotor,
    RotorParams,
    SeriesNonConvergence,
    act,
    quasi_sphere_point_r66,
    rotor_from_params,
    sphere_point,
    sphere_point_via_rotors,
)
from .physics import (
    DegenerateAmplitude,
    DomainError,
    MomentumHM4,
    hermiticity_check,
    interfere,
    linearize,
    mass_qform,
)

__version__ = "0.1.0"
