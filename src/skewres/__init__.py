"""Exact resultant computations for quaternionic polynomials in two variables."""

from .errors import (
    DegreeTooLow,
    DimensionMismatch,
    DivisionByZero,
    ExprSyntaxError,
    HypothesisViolation,
    IndexOutOfRange,
    InternalRealityViolation,
    InvalidInput,
    MixedVariableError,
    NonCommutingPoint,
    NonSquare,
    NotRationallyNormalizable,
    RealArgument,
    SchemaError,
    SingularSystem,
    SkewresError,
    ZeroPolynomial,
)
from .quaternion import ONE, ZERO, I, J, K, Quaternion, Rational, Sphere
from .polyone import (
    ONE_P,
    ZERO_P,
    Poly1,
    RealPoly,
    RootClassification,
    classify_root_on_sphere,
    gcld,
    gcrd,
    lcrm,
    left_divmod,
    llcm,
    real_gcd,
    right_divmod,
)
from .polytwo import (
    VAR_Q1,
    VAR_Q2,
    Poly2,
    factor_left_linear,
    left_linear_multiplicity,
)
from .orefield import ONE_FRAC, ZERO_FRAC, OreFrac
from .dieudonne import (
    DetClass,
    SkewMatrix,
    ZERO_DET,
    cramer_solve,
    det,
    det2,
    det_class_of,
    kernel_vector,
    mat_vec,
    poly_representative,
    rank,
    row_ops_check,
    sdets_equal,
)
from .resultant import (
    BezoutCertificate,
    CommonZeroReport,
    LeftFactorReport,
    ResultantReport,
    SymmetrizedResultantReport,
    bezout_certificate,
    check_common_zero,
    check_left_factor_criterion,
    classical_resultant,
    discriminant_q1,
    discriminant_q2,
    kernel_cofactors,
    resultant,
    sylvester,
    sylvester_q1,
    sylvester_q2,
    symmetrized_resultant_criterion,
)
from .exprio import (
    lower,
    lower1,
    lower2,
    parse,
    poly1_from_json,
    poly1_to_json,
    poly2_from_json,
    poly2_to_json,
    print_latex,
    print_poly,
    report_to_json,
)

__version__ = "0.1.0"
