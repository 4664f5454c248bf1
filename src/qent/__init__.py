"""Symbolic engine for the quantum SU(2) group and bipartite entanglement tests.

The package couples a normal-form engine for the q-deformed SU(2)
polynomial *-algebra (with its Hopf structure maps and Haar state) to a
Fourier transform between density operators and algebra elements, and uses
it to run positive-definiteness and partial-transposition separability
checks on both sides of the transform.
"""

from .algebra import (
    PLAIN,
    STAR,
    AlgebraParams,
    Element,
    Monomial,
    adjoint,
    equal,
    generators,
    mul,
    normal_form,
)
from .corep import (
    Corep,
    compute_F,
    fundamental_corep,
    orthogonality_check,
    product_catalog,
    product_corep,
    standard_catalog,
    trivial_corep,
    unitarity_residual,
)
from .entangle import (
    ENTANGLED,
    NOT_POSITIVE_DEFINITE,
    POSITIVE_DEFINITE,
    SEPARABLE,
    UNDECIDED_SUPPORT,
    PDReport,
    PPTMatrixReport,
    decide_separability_2x2,
    find_negative_witness,
    is_positive_definite,
    is_positive_definite_many,
    is_positive_definite_single,
    partial_transpose,
    pd_witness_value,
    ppt_check,
    ppt_many,
    ppt_matrix,
    separable_build,
    tensor_pd,
)
from .fourier import (
    DensityOp,
    forward,
    inverse,
    maximally_mixed,
    normalization_check,
    product_basis_projector,
    reconstruct,
    singlet_state,
    support_residual,
    werner_state,
)
from .haar import (
    convolve_check,
    haar,
    haar_monomial,
    invariance_residual,
    translated_haar_left,
    translated_haar_right,
)
from .hopf import (
    MultiElement,
    apply_coproduct_leg,
    coinverse,
    coinverse_squared,
    coproduct,
    counit,
    partial_theta,
    product_coinverse,
    product_coproduct,
    product_counit,
    tensor,
    theta,
)

__version__ = "0.1.0"
