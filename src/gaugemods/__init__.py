"""Exact-arithmetic algebra of vector fields on affine varieties and
their gauge modules, with a verification CLI.

The layers, bottom up: sparse rational polynomials and monomial orders
(``polyring``); cofactor determinants and elimination over QQ
(``linalg``); Groebner bases, quotient rings, and localizations
(``groebner``); varieties, charts, and tangent frames (``variety``);
gl_N modules and central elements (``glrep``); the gauge-module action
(``gauge``); the de Rham complex (``derham``); the explicit circle
modules (``circle``); scenario files and the CLI (``scenario``,
``cli``).
"""

from .linalg import BudgetExceededError
from .polyring import (
    MonomialOrder,
    Polynomial,
    PolyRing,
    RingMismatchError,
    grevlex,
    leading_term,
    lex,
    render,
)
from .parser import ParseError, parse_poly
from .groebner import (
    GroebnerBasis,
    Ideal,
    Localization,
    LocalizedElement,
    QuotientElement,
    QuotientRing,
    TauDerivation,
    buchberger,
    is_member,
    is_unit_ideal,
    loc_partial,
    s_polynomial,
)
from .variety import (
    Chart,
    TangentFrame,
    Variety,
    VectorField,
    affine_space,
    bracket,
    chart_apply,
    circle_variety,
    solve_tau,
    sphere_variety,
    to_chart,
)
from .glrep import (
    ExceptionalReport,
    GlModule,
    GlModuleError,
    NonScalarActionError,
    UEAElement,
    casimir,
    central_character,
    custom_module,
    evaluate,
    exceptional_check,
    exterior_power,
    hat_omega,
    p_poly_matrix,
    stabilizer_sum,
    symmetric_square,
    trivial_module,
)
from .gauge import (
    CheckResult,
    GaugeElement,
    GaugeField,
    GaugeModule,
    OneForm,
    check_av_compat,
    check_lie_action,
)
from .derham import (
    FormElement,
    ObstructionResult,
    act_form,
    check_complex,
    check_morphism,
    d,
    gaussian_obstruction,
    witness_not_a_morphism,
)
from .circle import (
    CircleElement,
    act_e,
    annihilator_q,
    annihilator_s,
    apply_word,
    basis_leading_terms,
    basis_u,
    basis_v,
    casimir_scalar_check,
    circle_gauge,
    gauge_crosscheck,
    operator_p,
    sl2_casimir,
    witt_bracket_check,
)
from .scenario import ScenarioError, central_character_table, run_scenario

__version__ = "0.1.0"
