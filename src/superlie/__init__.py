"""Exact computation with Lie superalgebras: non-abelian tensor and
exterior products, universal central extensions, homology, non-abelian
homology, and cyclic homology of associative superalgebras, over the
rationals or odd prime fields."""

from .fields import Field, FieldError, QQ
from .linalg import (
    AmbientMismatch,
    ContainmentError,
    Echelon,
    Matrix,
    Subquotient,
    Subspace,
)
from .spaces import (
    GradedMap,
    SuperSpace,
    exterior_power,
    superspace,
    tensor_space,
    wedge_normalize,
)
from .algebras import (
    AssocSuperAlgebra,
    LieSuperAlgebra,
    NotAnIdeal,
    SizeError,
    abelian,
    abelianization,
    check_assoc_axioms,
    check_lie_axioms,
    ground_assoc,
    heisenberg,
    ideal_closure,
    is_engel,
    lie_from_assoc,
    matrix_assoc,
    matrix_gl,
    matrix_sl,
    quotient_algebra,
    series,
    subalgebra_closure,
    subalgebra_on,
)
from .actions import (
    Action,
    ActionInvalid,
    CrossedModule,
    adjoint_action,
    check_action,
    check_compatible,
    check_crossed,
    ideal_crossed,
    identity_crossed,
    semidirect,
    supermodule_crossed,
    trivial_action,
)
from .tensor import (
    BracketNotWellDefined,
    CentralExtension,
    ExteriorProduct,
    IncompatibleActions,
    NotPerfect,
    TensorProduct,
    adjoint_tensor_square,
    exterior_square,
    nilpotency_bounds_check,
    nonabelian_exterior,
    nonabelian_tensor,
    tensor_symmetry_iso,
    trivial_action_tensor,
    uce,
)
from .homology import (
    ChainComplex,
    ClassExceeded,
    ComplexInconsistent,
    CrossedSES,
    ce_complex,
    d3_lemma_check,
    exact_sequence,
    h2_via_exterior,
    homology,
    hopf_formula,
    ideal_sixterm,
    nh,
    right_exactness_check,
    snake_sequence,
    trivial_module,
)
from .cyclic import (
    ConnesComplex,
    NotUnital,
    connes,
    cyclic_sixterm,
    dual_numbers,
    grassmann_line,
    hc,
    hc1_kernel_model,
    milnor_hc1,
    v_algebra,
)
from .freelie import (
    DegreeOverflow,
    FreeTruncation,
    GradedGenSet,
    Presentation,
    TruncationOutOfRange,
    free_nilpotent,
    free_truncated,
    genset,
    miller_truncated_check,
)

__version__ = "0.1.0"
