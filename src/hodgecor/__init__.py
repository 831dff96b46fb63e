"""hodgecor: exact tree/word algebra and numeric correlator integrals on
complex curves."""

from .exact_algebra import (
    AlgebraElement, CyclicElement, CyclicWord, Letter, TensorSquareQ,
    antihol_form, concat, cyclic_project, derivative_identity_check,
    dilog_coproduct, hol_form, is_lie_element, parse_cyclic, parse_element,
    partial_derivative, point, shuffle_sum, sympl_p, sympl_q, word,
)
from .form_calculus import (
    FormPolynomial, FormSymbol, alt, d_omega_identity, omega, omega_star,
    xi_eta,
)
from .tree_calculus import (
    CasimirBasis, ForestVector, OrientedForest, PlaneTree, Wedge2,
    abstract_projection, cobracket, cobracket_squared, differential,
    enumerate_trivalent_trees, tree_sum_ext, tree_sum_map,
)
from .derivations import (
    AlphabetSpec, Derivation, kappa, kernel_check, lie_bracket, morphism_check,
)
from .geometry import (
    INFINITY, EKIndex, EllipticCurve, GreenSpec, RationalCurve, cross_ratio,
    eisenstein_kronecker, ek_correlator_value, ek_generating_series, green,
    green_arakelov_decomposition, levin_polylog, polylog,
    single_valued_polylog,
)
from .engine import (
    CorrelatorRequest, CorrelatorResult, correlate, cyclic_polylog_series,
    cyclic_polylog_table, elliptic_correlator, multiple_green,
    symmetric_form_word,
)

__version__ = "0.1.0"
