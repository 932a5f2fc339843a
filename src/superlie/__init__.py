"""Exact computation with Lie superalgebras: non-abelian tensor and
exterior products, universal central extensions, homology, non-abelian
homology, and cyclic homology of associative superalgebras, over the
rationals or odd prime fields.

``import superlie`` loads no submodule.  Each public name below, and each
submodule it comes from, is imported on first use (PEP 562) and then
cached here, so ``from superlie import uce`` and ``superlie.uce`` load
the modules that ``uce`` needs and nothing else.  The function
``homology`` shares its name with its submodule and keeps it: binding
the submodule on import binds the function instead.
"""

import sys
from importlib import import_module
from types import ModuleType

_SUBMODULE_NAMES = {
    "fields": "Field FieldError QQ",
    "linalg": "AmbientMismatch ContainmentError Echelon Matrix Subquotient Subspace",
    "spaces": "GradedMap SuperSpace exterior_power superspace tensor_space wedge_normalize",
    "algebras": "AssocSuperAlgebra LieSuperAlgebra NotAnIdeal SizeError abelian abelianization "
                "check_assoc_axioms check_lie_axioms ground_assoc heisenberg ideal_closure "
                "is_engel lie_from_assoc matrix_assoc matrix_gl matrix_sl quotient_algebra "
                "series subalgebra_closure subalgebra_on",
    "actions": "Action ActionInvalid CrossedModule adjoint_action check_action check_compatible "
               "check_crossed ideal_crossed identity_crossed semidirect supermodule_crossed "
               "trivial_action",
    "tensor": "BracketNotWellDefined CentralExtension ExteriorProduct IncompatibleActions "
              "NotPerfect TensorProduct adjoint_tensor_square exterior_square "
              "nilpotency_bounds_check nonabelian_exterior nonabelian_tensor "
              "tensor_symmetry_iso trivial_action_tensor uce",
    "homology": "ChainComplex ClassExceeded ComplexInconsistent CrossedSES ce_complex "
                "d3_lemma_check exact_sequence h2_via_exterior homology hopf_formula "
                "ideal_sixterm nh right_exactness_check snake_sequence trivial_module",
    "cyclic": "ConnesComplex NotUnital connes cyclic_sixterm dual_numbers grassmann_line hc "
              "hc1_kernel_model milnor_hc1 v_algebra",
    "freelie": "DegreeOverflow FreeTruncation GradedGenSet Presentation TruncationOutOfRange "
               "free_nilpotent free_truncated genset miller_truncated_check",
}
# each public name -> the submodule it is read from
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names.split()}

__all__ = list(dict.fromkeys([*_SUBMODULE_NAMES, *_EXPORTS]))
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULE_NAMES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


class _Package(ModuleType):
    def __setattr__(self, name: str, value):
        # the import system binds a loaded submodule here; a public name of
        # the same name (the function homology) wins
        if isinstance(value, ModuleType) and _EXPORTS.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
