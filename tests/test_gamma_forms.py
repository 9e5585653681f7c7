"""Bilinear collision term: equivalence of the three representations and
conservation properties."""

import numpy as np

from landau_hermite.hermite_core import (
    unit_spectrum,
    random_spectrum,
    inner_product,
)
from landau_hermite.landau_ops import (
    apply_L1,
    apply_L2,
    gamma_weak_D,
    gamma_weak_E,
    gamma_apply,
)

ZERO = (0, 0, 0)
E = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_ground_state_blocks_give_minus_L1():
    N = 8
    phi0 = unit_spectrum(N, ZERO)
    g = unit_spectrum(N, E[0])
    val = gamma_weak_D(phi0, g, g)
    assert abs(val - (-4.0)) < 1e-12
    assert abs(val + inner_product(apply_L1(g), g)) < 1e-12


def test_annihilators_kill_ground_state_in_g_slot():
    rng = np.random.default_rng(20)
    N = 8
    f = unit_spectrum(N, E[0])
    phi0 = unit_spectrum(N, ZERO)
    h = random_spectrum(N, rng)
    # with g = Phi_0 only the pure-raising blocks survive; the annihilator
    # and rotation blocks vanish identically
    val_D = gamma_weak_D(f, phi0, h)
    val_E = gamma_weak_E(f, phi0, h)
    assert abs(val_D - val_E) < 1e-12


def test_D_equals_E_on_random_triples():
    rng = np.random.default_rng(21)
    N = 10
    for _ in range(100):
        f = random_spectrum(N, rng)
        g = random_spectrum(N, rng, max_level=N - 2)
        h = random_spectrum(N, rng, max_level=N - 2)
        d = gamma_weak_D(f, g, h)
        e = gamma_weak_E(f, g, h)
        assert abs(d - e) < 1e-12


def test_apply_matches_weak_forms():
    rng = np.random.default_rng(22)
    N = 10
    for _ in range(100):
        f = random_spectrum(N, rng)
        g = random_spectrum(N, rng, max_level=N - 2)
        h = random_spectrum(N, rng, max_level=N - 2)
        d = gamma_weak_D(f, g, h)
        a = inner_product(gamma_apply(f, g), h)
        assert abs(d - a) < 1e-12


def test_apply_ground_state_identities():
    rng = np.random.default_rng(23)
    N = 10
    phi0 = unit_spectrum(N, ZERO)
    for _ in range(20):
        g = random_spectrum(N, rng)
        left = gamma_apply(phi0, g)
        right = apply_L1(g)
        assert np.max(np.abs(left.coeffs + right.coeffs)) < 1e-12
        left2 = gamma_apply(g, phi0)
        right2 = apply_L2(g)
        assert np.max(np.abs(left2.coeffs + right2.coeffs)) < 1e-12


def test_bilinearity():
    rng = np.random.default_rng(24)
    N = 8
    f1 = random_spectrum(N, rng)
    f2 = random_spectrum(N, rng)
    g = random_spectrum(N, rng)
    a = 0.7 - 0.3j
    lhs = gamma_apply(f1 * a + f2, g)
    rhs = a * gamma_apply(f1, g) + gamma_apply(f2, g)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
    lhs = gamma_apply(g, f1 * a + f2)
    rhs = a * gamma_apply(g, f1) + gamma_apply(g, f2)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_levels_shift_by_at_most_two():
    rng = np.random.default_rng(25)
    N = 12
    from landau_hermite.hermite_core import get_basis, zero_spectrum

    basis = get_basis(N)
    f = random_spectrum(N, rng)
    for n in (0, 3, 6):
        g = zero_spectrum(N)
        sel = basis.levels == n
        g.coeffs[sel] = rng.standard_normal(int(np.sum(sel)))
        out = gamma_apply(f, g)
        hot = basis.levels[np.abs(out.coeffs) > 1e-13]
        if hot.size:
            assert hot.max() <= n + 2
            assert hot.min() >= n - 2


def first_moments(s):
    from landau_hermite.landau_ops import collision_moments

    m = collision_moments(s)
    radial = m.m2d.sum()
    return np.array([m.m0, m.m1[0], m.m1[1], m.m1[2], radial])


def test_conservation_diagonal():
    # mass, momentum and energy moments of B(g, g) vanish
    rng = np.random.default_rng(26)
    N = 10
    for _ in range(30):
        g = random_spectrum(N, rng, max_level=N - 2)
        mom = first_moments(gamma_apply(g, g))
        assert np.max(np.abs(mom)) < 1e-10


def test_conservation_symmetrized():
    # the same moments vanish for B(f, g) + B(g, f) with independent f, g
    rng = np.random.default_rng(27)
    N = 10
    for _ in range(30):
        f = random_spectrum(N, rng, max_level=N - 2)
        g = random_spectrum(N, rng, max_level=N - 2)
        out = gamma_apply(f, g) + gamma_apply(g, f)
        assert np.max(np.abs(first_moments(out))) < 1e-10


def test_mass_moment_vanishes_per_slot():
    # the ground-state moment vanishes for every argument pair separately
    rng = np.random.default_rng(28)
    N = 10
    for _ in range(30):
        f = random_spectrum(N, rng)
        g = random_spectrum(N, rng)
        assert abs(gamma_apply(f, g).coeffs[0]) < 1e-12


def test_example_first_moment_of_diagonal_pair():
    N = 8
    g = unit_spectrum(N, E[0])
    out = gamma_apply(g, g)
    assert np.max(np.abs(first_moments(out))) < 1e-12


def pinned_triple(seed, N=10):
    """(f, g, h) at the verify suite's size: f of full degree, g and h of
    degree <= N - 2."""
    rng = np.random.default_rng(seed)
    f = random_spectrum(N, rng)
    return f, random_spectrum(N, rng, max_level=N - 2), random_spectrum(N, rng, max_level=N - 2)


# (gamma_weak_D, gamma_weak_E) at pinned_triple(seed), as computed at commit
# ef80485, where every block applied its own operator products
PINNED_WEAK_FORMS = {
    0: ((0.22345056132464017-0.10904207815980568j), (0.22345056132464014-0.10904207815980568j)),
    1: ((0.08550771044411536+0.012588267178569462j), (0.08550771044411534+0.012588267178569446j)),
    2: ((-0.31199815070284015+0.24365185356047867j), (-0.3119981507028401+0.24365185356047864j)),
}


def test_weak_forms_match_their_pinned_values():
    """Sharing the operator products inside each weak form keeps every bit.

    The pinned values were printed with this file copied into the tests of
    a checkout of commit ef80485, from the checkout's root, by
        PYTHONPATH=src:tests python -c "from test_gamma_forms import pinned_triple as t; from landau_hermite.landau_ops import gamma_weak_D as D, gamma_weak_E as E; print([(D(*t(s)), E(*t(s))) for s in (0, 1, 2)])"
    """
    for seed, (want_d, want_e) in PINNED_WEAK_FORMS.items():
        triple = pinned_triple(seed)
        assert gamma_weak_D(*triple) == want_d
        assert gamma_weak_E(*triple) == want_e
