"""Exact q-trinomial coefficients and cyclotomic supercongruence verification."""

from .polyring import (
    ONE,
    ZERO,
    LaurentPoly,
    NegativeExponent,
    NonExactDivision,
    NotMonic,
    eval_at_one,
    exact_div,
    from_text,
    make_poly,
    monomial,
    rem_monic,
    shift,
    substitute_power,
    to_text,
)
from .cyclotomic import Modulus, cyclotomic, cyclotomic_power, mobius
from .qcombinatorics import binomial, q_binomial, q_binomial_base, q_integer
from .trinomials import (
    InvalidParameters,
    NotPrime,
    TrinomialKind,
    classical_trinomial,
    is_prime,
    q_trinomial,
    theta,
    truncated_classical,
    truncated_q_trinomial,
    vartheta,
)
from .congruence import (
    TARGETS,
    CongruenceOutcome,
    CongruenceReport,
    VerificationTask,
    congruent,
    rhs_theorem,
    run_task,
    verify,
)

__version__ = "0.1.0"
