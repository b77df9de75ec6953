"""The theorems against a second opinion that shares no arithmetic with
qtrinom: both sides evaluated at q = z + e over F_p (tests/oracles.py)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dual_prime, eval_dual, exact_sides, primitive_roots, rhs_theorem_by_kind, theorem_sides_at
from qtrinom.congruence import TARGET_BY_KIND, congruent, verify
from qtrinom.cyclotomic import cyclotomic_power
from qtrinom.trinomials import TrinomialKind, truncated_q_trinomial


@settings(deadline=None)
@given(
    st.sampled_from(list(TrinomialKind)),
    st.integers(2, 4).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, a - 1))),
    st.integers(1, 40),
    st.integers(0, 1 << 16),
)
def test_exact_holds_gives_zero_at_q_eq_z_plus_e(kind, ab, n, pick):
    a, b = ab
    p = dual_prime(n)
    roots = primitive_roots(n, p)
    z = roots[pick % len(roots)]
    assert (p - 1) % n == 0 and pow(z, n, p) == 1
    assert verify(TARGET_BY_KIND[kind], a=a, b=b, n=n).holds
    lhs, rhs = theorem_sides_at(kind, a, b, n, p, z)
    assert lhs == rhs, (kind, a, b, n, z)
    # the exact path's own sides take the same values there; both are
    # reduced modulo (q^n - 1)^2, which vanishes to second order at q = z
    reduced_lhs, reduced_rhs = exact_sides(kind, a, b, n)
    assert eval_dual(reduced_lhs, z, p) == lhs, (kind, a, b, n, z)
    assert eval_dual(reduced_rhs, z, p) == rhs, (kind, a, b, n, z)


def test_brace_free_rhs_gives_nonzero_at_q_eq_z_plus_e():
    # the negative control through the oracle, at points where the exact
    # check fails too (T1 and t1 hold brace-free at (2,1,5): vartheta(5) = 1)
    for kind in TrinomialKind:
        for a, b, n in ((2, 1, 3), (3, 1, 4), (4, 1, 7)):
            corrupted = rhs_theorem_by_kind(kind, a, b, n, correction=False)
            lhs = truncated_q_trinomial(kind, a, b, n)
            assert not congruent(lhs, corrupted, cyclotomic_power(n, 2)).holds, (kind, a, b, n)
            p = dual_prime(n)
            differs = 0
            for z in primitive_roots(n, p):
                lhs_at, rhs_at = theorem_sides_at(kind, a, b, n, p, z, correction=False)
                assert rhs_at == eval_dual(corrupted, z, p), (kind, a, b, n, z)
                differs += lhs_at != rhs_at
            assert differs, (kind, a, b, n)
