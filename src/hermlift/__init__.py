"""hermlift: exact arithmetic for hermitian Maass lifts on U(2,2).

Builds lifts of elliptic newforms of odd prime level D and nebentypus the
quadratic character of Q(sqrt(-D)), applies hermitian Hecke operators to
them, verifies the descent and L-factor identities, and measures
congruence depths between Hecke eigenvalue systems.
"""

from .ring import HeckeRing, HeckeElem, PrimeAboveL, primes_above, val_at, VAL_CAP, INF
from .quadfield import (
    FieldParams,
    QuadInt,
    SplitType,
    BQF,
    ClassChar,
    ClassGroup,
    chi_K,
    split_type,
    class_group,
    reduced_forms,
    prime_class,
    char_values,
    trivial_char,
    norm_ball,
)
from .hermitian import HermPoint, point, content, enumerate_points
from .elliptic import (
    NewformData,
    QExpansion,
    parse_newform,
    format_newform,
    extend_coeffs,
    rho_conjugate,
    apply_tp_poly,
    synthetic_newform,
    bundled_cm_form,
)
from .maass import (
    MaassTuple,
    CoeffTable,
    RangeError,
    a_K,
    alpha_from_newform,
    antisymmetrize,
    build_lift,
    random_alpha_tuple,
    check_maass,
    descend,
)
from .hecke import (
    HeckeOpId,
    DescendedOp,
    act_inert_T0,
    act_inert_T,
    act_inert_Up,
    act_inert_on_lift,
    act_split_on_lift,
    eval_inert_raw,
    descend_op,
    maass_eigenvalue,
)
from .lfun import (
    ZetaTerm,
    EulerFactor,
    bc_factor,
    std_factor_lift,
    verify_product134,
)
from .congr import (
    EigenSystem,
    DepthReport,
    build_eigen_system,
    table_congruence,
    eigen_congruence,
    maass_ideal_report,
)

__version__ = "0.1.0"
