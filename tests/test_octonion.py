import numpy as np
import pytest

from twistcal.errors import DomainError
from twistcal import g2, spin7
from twistcal.octonion import SIGMA, left_mult_matrix, oct_mul, standard_pinor_context, structure_constants

from conftest import (
    associative_model_form,
    cayley_dickson_left_mult,
    cayley_dickson_mul,
    cayley_model_form,
    comass_estimate,
    cross2,
    cross3,
    cross3_via_form,
    det_by_permutations,
    oct_conj,
    rng_for,
)

# basis octonions (1, i, j, k, e, ie, je, ke) as (8,) coefficient arrays
ONE, I, J, K, E, IE, JE, KE = np.eye(8)


def random_oct(rng):
    return rng.standard_normal(8)


def imag(x):
    out = x.copy()
    out[0] = 0.0
    return out


def associator(x, y, z):
    """[x, y, z] = (xy)z - x(yz)."""
    return oct_mul(oct_mul(x, y), z) - oct_mul(x, oct_mul(y, z))


def close(x, y, tol=1e-12):
    return bool(np.allclose(x, y, atol=tol))


norm = np.linalg.norm


# -- algebra basics ------------------------------------------------------------


def test_unit_and_quaternion_table():
    x = rng_for(0).standard_normal(8)
    assert close(oct_mul(ONE, x), x)
    assert close(oct_mul(x, ONE), x)
    assert close(oct_mul(I, J), K)
    assert close(oct_mul(J, K), I)
    assert close(oct_mul(K, I), J)
    assert close(oct_mul(I, I), -ONE)
    assert close(oct_mul(E, E), -ONE)


def test_structure_constants_are_phi_and_the_cayley_dickson_table():
    # bit for bit, -0.0 included: <e_a e_b, e_c> by Cayley-Dickson doubling, and its
    # imaginary block is phi at the slots SIGMA with no sign change
    eye = np.eye(8)
    table = cayley_dickson_mul(eye[:, None], eye[None, :])
    assert structure_constants(g2.PHI_TABLE).tobytes() == table.tobytes()
    assert oct_mul(eye[:, None], eye[None, :]).tobytes() == table.tobytes()
    phi = g2.unit_tensor(g2.PHI_TABLE, 7)
    assert np.array_equal(table[1:, 1:, 1:], phi[np.ix_(SIGMA, SIGMA, SIGMA)])


def test_pinor_matrices_keep_the_cayley_dickson_bytes():
    # spin7's _GF, _GG, j_L and default spinor frame are built from these matrices alone
    ctx = standard_pinor_context()
    for row, gamma in zip(ctx.embed, ctx.gammas):
        assert gamma.tobytes() == cayley_dickson_left_mult(row).tobytes()
    jl = cayley_dickson_left_mult(cayley_dickson_mul(ctx.embed[0], ctx.embed[1]))
    assert spin7._jl_matrix().tobytes() == jl.tobytes()
    c = rng_for(27).standard_normal(4)
    assert ctx.gamma_covector(c).tobytes() == cayley_dickson_left_mult(c @ ctx.embed).tobytes()


def test_composition_norm_many_pairs():
    rng = rng_for(1)
    xs = rng.standard_normal((10_000, 8))
    ys = rng.standard_normal((10_000, 8))
    prod = oct_mul(xs, ys)
    lhs = np.linalg.norm(prod, axis=1)
    rhs = np.linalg.norm(xs, axis=1) * np.linalg.norm(ys, axis=1)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_alternativity():
    rng = rng_for(2)
    for _ in range(100):
        x, y = random_oct(rng), random_oct(rng)
        assert norm(associator(x, x, y)) < 1e-12 * (1 + norm(x) ** 2 * norm(y))
        assert norm(associator(x, y, y)) < 1e-12 * (1 + norm(y) ** 2 * norm(x))


def test_associator_cases():
    assert close(associator(I, J, E), 2.0 * KE)
    rng = rng_for(3)
    for _ in range(20):
        x, y, z = (np.concatenate([rng.standard_normal(4), np.zeros(4)]) for _ in range(3))
        assert norm(associator(x, y, z)) < 1e-12


def test_orthonormal_he_pairs_anticommute_in_action():
    # u1 (conj(u2) v) = -u2 (conj(u1) v) for orthonormal u1, u2 in He
    rng = rng_for(4)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        u1 = np.concatenate([np.zeros(4), q[:, 0]])
        u2 = np.concatenate([np.zeros(4), q[:, 1]])
        v = random_oct(rng)
        lhs = oct_mul(u1, oct_mul(oct_conj(u2), v))
        rhs = -oct_mul(u2, oct_mul(oct_conj(u1), v))
        assert close(lhs, rhs)


# -- cross products --------------------------------------------------------------


def test_cross2_cases():
    rng = rng_for(5)
    assert norm(cross2(I, I)) == 0.0
    assert close(cross2(I, J), K)
    for _ in range(50):
        u = imag(random_oct(rng))
        v = imag(random_oct(rng))
        assert abs(cross2(u, v) @ u) < 1e-12 * (1 + norm(u) ** 2 * norm(v))
        assert abs(cross2(u, v) @ v) < 1e-12 * (1 + norm(v) ** 2 * norm(u))


def test_cross2_rejects_non_imaginary():
    with pytest.raises(DomainError):
        cross2(ONE, I)


def test_cross3_alternating():
    rng = rng_for(6)
    for _ in range(30):
        u, v = random_oct(rng), random_oct(rng)
        scale = 1 + norm(u) ** 2 * norm(v) + norm(v) ** 2 * norm(u)
        assert norm(cross3(u, u, v)) < 1e-12 * scale
        assert norm(cross3(u, v, v)) < 1e-12 * scale
        assert norm(cross3(u, v, u)) < 1e-12 * scale


def test_cross3_agrees_with_model_form_contraction():
    assert close(cross3(ONE, I, J), cross3_via_form(ONE, I, J))
    rng = rng_for(7)
    for _ in range(20):
        u, v, w = (random_oct(rng) for _ in range(3))
        assert close(cross3(u, v, w), cross3_via_form(u, v, w), tol=1e-9)


def test_cross3_norm_equals_wedge_volume():
    rng = rng_for(8)
    for _ in range(30):
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        scale = rng.uniform(0.5, 2.0, size=3)
        u, v, w = (q[:, j] * scale[j] for j in range(3))
        gram = np.array([[a @ b for b in (u, v, w)] for a in (u, v, w)])
        vol = np.sqrt(det_by_permutations(gram))
        assert norm(cross3(u, v, w)) == pytest.approx(vol, rel=1e-10)


# -- pinor representation ---------------------------------------------------------


def test_clifford_relation():
    ctx = standard_pinor_context()
    rng = rng_for(9)
    for _ in range(100):
        ca, cb = rng.standard_normal((2, 4))
        ga = ctx.gamma_covector(ca)
        gb = ctx.gamma_covector(cb)
        anti = ga @ gb + gb @ ga
        assert np.max(np.abs(anti + 2.0 * float(ca @ cb) * np.eye(8))) < 1e-12


def test_gamma_squares_to_minus_norm():
    ctx = standard_pinor_context()
    rng = rng_for(10)
    for _ in range(50):
        c = rng.standard_normal(4)
        s = random_oct(rng)
        out = ctx.gamma_covector(c) @ (ctx.gamma_covector(c) @ s)
        assert close(out, -float(c @ c) * s)


def test_volume_operator_eigenspaces():
    ctx = standard_pinor_context()
    vol = ctx.volume_op
    for s in np.eye(8)[:4]:  # H block
        assert close(vol @ s, -s)
    for s in np.eye(8)[4:]:  # He block
        assert close(vol @ s, s)


def test_pinor_split_identifications():
    p_plus, p_minus = standard_pinor_context().projectors()
    rng = rng_for(11)
    q = np.concatenate([rng.standard_normal(4), np.zeros(4)])
    assert norm(p_plus @ q) < 1e-14
    assert close(p_minus @ q, q)
    he = np.concatenate([np.zeros(4), rng.standard_normal(4)])
    assert norm(p_minus @ he) < 1e-14
    assert close(p_plus @ he, he)
    s = random_oct(rng)
    assert close(p_plus @ s + p_minus @ s, s, tol=1e-14)


def _gamma_f_matrices():
    from twistcal.spin7 import gamma_f_matrix

    return [gamma_f_matrix(k) for k in (1, 2, 3)]


def test_gamma_f_identities_on_negative_spinors():
    # squares equal -16, distinct factors anticommute, pair products are
    # 4x the third element (all as operators on the quaternion slot)
    gf = _gamma_f_matrices()
    rng = rng_for(12)
    spinors = rng.standard_normal((10_000, 4))
    s = np.zeros((10_000, 8))
    s[:, :4] = spinors
    for k in range(3):
        out = s @ (gf[k] @ gf[k]).T
        assert np.max(np.abs(out + 16.0 * s)) < 1e-12 * (1 + np.max(np.abs(s)))
    combos = [(0, 1, +4.0, 2), (0, 2, -4.0, 1), (1, 2, +4.0, 0)]
    for a, b, coeff, c in combos:
        lhs = s @ (gf[a] @ gf[b]).T
        rhs = coeff * (s @ gf[c].T)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))
        anti = s @ (gf[a] @ gf[b] + gf[b] @ gf[a]).T
        assert np.max(np.abs(anti)) < 1e-12


def test_gamma_operator_square_and_agreement():
    ctx = standard_pinor_context()
    g = ctx.gammas
    g12 = g[0] @ g[1]
    g34 = g[2] @ g[3]
    p_minus = ctx.projectors()[1]
    # equal on the negative eigenspace and squaring to -1 there
    assert np.max(np.abs((g12 - g34) @ p_minus)) < 1e-14
    assert np.max(np.abs((g12 @ g12 + np.eye(8)) @ p_minus)) < 1e-14
    gf1 = _gamma_f_matrices()[0]
    assert np.max(np.abs((0.25 * gf1 - g12) @ p_minus)) < 1e-14


def test_gamma_operator_frame_independent():
    ctx = standard_pinor_context()
    rng = rng_for(13)
    base = ctx.embed
    p_minus = ctx.projectors()[1]
    g12 = ctx.gammas[0] @ ctx.gammas[1]
    for _ in range(20):
        al, be = rng.uniform(0, 2 * np.pi, size=2)
        r1 = np.cos(al) * base[0] + np.sin(al) * base[1]
        r2 = -np.sin(al) * base[0] + np.cos(al) * base[1]
        r3 = np.cos(be) * base[2] + np.sin(be) * base[3]
        r4 = -np.sin(be) * base[2] + np.cos(be) * base[3]
        m12 = left_mult_matrix(r1) @ left_mult_matrix(r2)
        m34 = left_mult_matrix(r3) @ left_mult_matrix(r4)
        assert np.max(np.abs((m12 - g12) @ p_minus)) < 1e-13
        assert np.max(np.abs((m34 - g12) @ p_minus)) < 1e-13


def test_model_associative_form_comass_one():
    phi0 = associative_model_form()
    rng = rng_for(14)
    best = comass_estimate(phi0, 3, rng, restarts=8)
    assert best <= 1.0 + 1e-9
    # the quaternion triple attains the bound
    attained = phi0.evaluate(np.eye(7)[0], np.eye(7)[1], np.eye(7)[2])
    assert abs(attained) == pytest.approx(1.0)
    assert best == pytest.approx(1.0, abs=1e-6)


def test_model_cayley_form_alternating_and_normalised():
    phi = cayley_model_form()
    assert phi.grades() == (4,)
    vals = [
        phi.evaluate(*(np.eye(8)[i] for i in quad))
        for quad in [(0, 1, 2, 3), (4, 5, 6, 7)]
    ]
    assert vals[0] == pytest.approx(1.0)
    assert abs(vals[1]) == pytest.approx(1.0)
    rng = rng_for(15)
    best = comass_estimate(phi, 4, rng, restarts=6)
    assert best <= 1.0 + 1e-9
    assert best == pytest.approx(1.0, abs=1e-6)
