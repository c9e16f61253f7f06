"""Exact verification kernel for quasi-Hopf algebras and their first
Heisenberg doubles, with the twisted group-algebra family as the worked
class of examples."""

from .scalar import CycScalar, cyclotomic_polynomial, root_of_unity
from .algebra import (
    Coproduct,
    LinearMap,
    Mapped,
    Placement,
    SparseTensor,
    StructureConstants,
    invert_map,
    leg_embed,
    multiply,
    solve_linear,
)
from .quasihopf import (
    DerivedElements,
    QuasiHopfAlgebra,
    check_quasi_antipode,
    check_quasi_bialgebra,
    compute_qR_pL,
    compute_U_Vtilde,
    derive_elements,
)
from .heisenberg import (
    CanonicalElements,
    HeisenbergAlgebra,
    build_H1,
    build_H1_dual,
    canonical_element,
    canonical_elements,
    check_theorem_4_4,
    check_theorem_4_5,
    probe_invertibility,
)
from .twisted import (
    Cocycle3,
    FiniteGroup,
    build_k_omega_G,
    check_cocycle,
    closed_form_double,
    closed_form_elements,
    cyclic_cocycle,
    invertibility_criterion,
    klein_cocycle,
    trivial_cocycle,
)

# the classes and functions imported above; the submodules are not exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and callable(value))
__version__ = "0.1.0"
