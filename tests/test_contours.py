"""Triangle/contour geometry, removal costs, counting bounds, droplet fits."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from longrange_ising import contours as ct
from longrange_ising import model as m


# ---------------------------------------------------------------------------
# flip points and interface


def test_flip_points_step():
    vol = m.Volume(1, 2)
    assert ct.spin_flip_points(vol, [1, 1, 1, -1, -1], m.plus_bc()) == [0.5, 2.5]


def test_flip_points_all_plus():
    vol = m.Volume(1, 2)
    assert ct.spin_flip_points(vol, [1] * 5, m.plus_bc()) == []
    assert ct.spin_flip_points(vol, [1] * 5, m.dobrushin1d_bc()) == [-2.5]


def test_flip_parity():
    rng = np.random.default_rng(0)
    vol = m.Volume(1, 4)
    for _ in range(50):
        cfg = m.random_configuration(vol, rng)
        assert len(ct.spin_flip_points(vol, cfg, m.plus_bc())) % 2 == 0
        assert len(ct.spin_flip_points(vol, cfg, m.dobrushin1d_bc())) % 2 == 1


def test_flip_points_need_definite_boundary():
    vol = m.Volume(1, 2)
    with pytest.raises(ValueError):
        ct.spin_flip_points(vol, [1] * 5, m.free_bc())


def test_flip_geometry_rejects_rules_of_the_other_dimension():
    # the edge spins used to be read first and raise TypeError
    vol = m.Volume(1, 2)
    for call in (lambda bc: ct.triangles(vol, [1] * 5, bc),
                 lambda bc: ct.interface_point(vol, [1] * 5, bc),
                 lambda bc: ct.spin_flip_points(vol, [1] * 5, bc)):
        with pytest.raises(ValueError, match="half-plane rule in a 1d boundary condition"):
            call(m.dobrushin2d_bc(0))
        with pytest.raises(ValueError, match=r"pattern site \(0, 3\) in a 1d"):
            call(m.dobrushin1d_bc().with_pattern({(0, 3): 1}))


def test_interface_extremes():
    vol = m.Volume(1, 3)
    L = vol.half_width
    assert ct.interface_point(vol, [1] * 7) == -L - 0.5
    assert ct.interface_point(vol, [-1] * 7) == L + 0.5


def test_interface_rejects_homogeneous_boundary():
    vol = m.Volume(1, 2)
    with pytest.raises(ValueError):
        ct.interface_point(vol, [1] * 5, m.plus_bc())


def test_interface_equivariance_exhaustive():
    for L in (1, 2, 3, 4):
        vol = m.Volume(1, L)
        for bits in itertools.product((-1, 1), repeat=vol.n_sites):
            cfg = np.array(bits, dtype=np.int8)
            assert ct.interface_point(vol, -cfg[::-1]) == -ct.interface_point(vol, cfg)


# ---------------------------------------------------------------------------
# triangles: examples, bijection, invariants


def test_single_island():
    vol = m.Volume(1, 3)
    fam = ct.triangles(vol, [1, 1, -1, -1, -1, 1, 1], m.plus_bc())
    assert len(fam) == 1
    t = fam.triangles[0]
    assert (t.left, t.right, t.sign, t.length) == (-1.5, 1.5, -1, 3)


def test_all_plus_empty_family():
    vol = m.Volume(1, 3)
    assert len(ct.triangles(vol, [1] * 7, m.plus_bc())) == 0


def test_close_triangles_merge_with_hole():
    vol = m.Volume(1, 2)
    fam = ct.triangles(vol, [1, -1, 1, -1, 1], m.plus_bc())
    assert len(fam) == 1
    t = fam.triangles[0]
    assert (t.left, t.right, t.sign) == (-1.5, 1.5, -1)
    assert [(c.left, c.right, c.sign) for c in t.children] == [(-0.5, 0.5, 1)]


def test_distant_triangles_stay_separate():
    vol = m.Volume(1, 5)
    cfg = [-1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1]
    fam = ct.triangles(vol, cfg, m.plus_bc())
    assert len(fam) == 2


@pytest.mark.parametrize("bc_name", ["plus", "minus", "dobrushin"])
def test_bijection_exhaustive(bc_name):
    bc = {"plus": m.plus_bc(), "minus": m.minus_bc(),
          "dobrushin": m.dobrushin1d_bc()}[bc_name]
    for L in (0, 1, 2, 3, 4, 5):
        if bc_name == "dobrushin" and L == 0:
            continue
        vol = m.Volume(1, L)
        seen = set()
        for bits in itertools.product((-1, 1), repeat=vol.n_sites):
            cfg = np.array(bits, dtype=np.int8)
            fam = ct.triangles(vol, cfg, bc)
            iface = ct.interface_point(vol, cfg, bc) if bc_name == "dobrushin" else None
            rec = ct.reconstruct(vol, fam, bc, interface=iface)
            assert np.array_equal(rec, cfg)
            key = (iface, tuple((t.left, t.right, t.sign, t.children) for t in fam))
            assert key not in seen
            seen.add(key)


# SHA-256 of the outputs below over every configuration with L <= 5 under
# plus, minus and Dobrushin boundaries, computed at commit a60c815: any other
# bijection, or a change in a float's value or type, moves it.
CONTOUR_DIGEST = "ef9758cc21ba3f2c4cc612fab2ae75f1f70f5bff85f6c20b7b69ad129c9a0b40"


def test_contour_outputs_pinned():
    h = hashlib.sha256()
    for L in range(6):
        vol = m.Volume(1, L)
        for bc in (m.plus_bc(), m.minus_bc(), m.dobrushin1d_bc()):
            for bits in itertools.product((-1, 1), repeat=vol.n_sites):
                cfg = np.array(bits, dtype=np.int8)
                parts = [ct.serialize_family(ct.triangles(vol, cfg, bc)),
                         repr(ct.spin_flip_points(vol, cfg, bc))]
                if bc.name == "dobrushin1d":
                    parts.append(repr(ct.interface_point(vol, cfg, bc)))
                h.update(("|".join(parts) + "\n").encode())
    assert h.hexdigest() == CONTOUR_DIGEST


def test_family_invariants_asserted_in_construction():
    # ordering and equal-sign separation hold on every exhaustive output
    vol = m.Volume(1, 5)
    for bits in itertools.product((-1, 1), repeat=vol.n_sites):
        fam = ct.triangles(vol, np.array(bits, dtype=np.int8), m.plus_bc())
        ct.validate_family(fam)  # raises on violation
        lengths = [t.length for t in fam]
        assert lengths == sorted(lengths, reverse=True)


def test_reconstruct_rejects_overlap():
    vol = m.Volume(1, 3)
    fam = ct.TriangleFamily((ct.Triangle(-1.5, 1.5, -1),))
    bad = ct.TriangleFamily.__new__(ct.TriangleFamily)
    object.__setattr__(bad, "triangles",
                       (ct.Triangle(-1.5, 1.5, -1), ct.Triangle(0.5, 2.5, -1)))
    with pytest.raises(ValueError):
        ct.reconstruct(vol, bad, m.plus_bc())
    assert np.array_equal(ct.reconstruct(vol, fam, m.plus_bc()),
                          np.array([1, 1, -1, -1, -1, 1, 1], dtype=np.int8))


# ---------------------------------------------------------------------------
# grouping


def _family_from_spans(spans):
    return ct.ordered_family([ct.Triangle(a - 0.5, b + 0.5, -1) for a, b in spans])


def test_grouping_far_pair_stays_split():
    fam = _family_from_spans([(0, 0), (11, 11)])
    grouped = ct.group_contours(fam, C=1.0)
    assert len(grouped) == 2


def test_grouping_close_pair_merges():
    fam = _family_from_spans([(0, 1), (7, 8)])   # dist 5 <= 2^3
    grouped = ct.group_contours(fam, C=1.0)
    assert len(grouped) == 1
    assert grouped.contours[0].length == 4


def test_grouping_random_families_invariant_and_order_free():
    rng = np.random.default_rng(23)
    for _ in range(100):
        spans, cursor = [], 0
        for _ in range(int(rng.integers(1, 6))):
            length = int(rng.integers(1, 5))
            gap = int(rng.integers(length + 1, 60))
            start = cursor + gap
            spans.append((start, start + length - 1))
            cursor = start + length
        try:
            fam = _family_from_spans(spans)
        except ValueError:
            continue  # generator produced a family violating triangle separation
        grouped = ct.group_contours(fam, C=1.0)
        assert ct.contour_separation_ok(grouped, C=1.0)
        assert sum(c.length for c in grouped) == sum(t.length for t in fam)
        # merge-order independence: feed the triangles back in span order
        refed = ct.ordered_family(list(fam.triangles)[::-1])
        again = ct.group_contours(refed, C=1.0)
        part = {tuple(sorted((t.left, t.right) for t in c.triangles))
                for c in grouped.contours}
        part2 = {tuple(sorted((t.left, t.right) for t in c.triangles))
                 for c in again.contours}
        assert part == part2


def test_grouping_idempotent():
    fam = _family_from_spans([(0, 1), (7, 8), (100, 101)])
    g1 = ct.group_contours(fam, C=1.0)
    flat = ct.ordered_family([t for c in g1.contours for t in c.triangles])
    g2 = ct.group_contours(flat, C=1.0)
    assert len(g1) == len(g2)


# ---------------------------------------------------------------------------
# energies and the removal-cost bound


def test_single_triangle_nn_cost():
    vol = m.Volume(1, 4)
    fam = ct.ordered_family([ct.Triangle(-0.5, 2.5, -1)])
    assert ct.removal_cost(vol, m.NearestNeighbor(1.0), fam, 0) == pytest.approx(4.0)
    assert ct.triangle_energy(vol, m.NearestNeighbor(1.0), fam.triangles[0]) == \
        pytest.approx(4.0)


def test_single_triangle_landau_bound():
    # removal cost of a solid droplet beats kappa * len^(2-alpha); the cost
    # itself is checked against a direct pair-sum oracle
    alpha = 1.8
    spec = m.PowerLaw(1.0, alpha)
    kap = ct.kappa(alpha)
    for ell in (1, 2, 4, 8, 16, 32, 64):
        vol = m.Volume(1, ell + 4)
        tri = ct.Triangle(-0.5, ell - 0.5, -1)
        cost = ct.triangle_energy(vol, spec, tri)
        flipped = list(tri.span_sites())
        oracle = 0.0
        for x in flipped:
            oracle += m.boundary_field(vol, spec, m.plus_bc(), x)
            for y in vol.sites():
                if y not in flipped and y != x:
                    oracle += m.coupling_value(spec, x, y)
        assert cost == pytest.approx(2.0 * oracle, rel=1e-10)
        assert cost >= kap * ell ** (2.0 - alpha)


@pytest.mark.parametrize("alpha", [1.5, 1.8])
def test_removal_bound_exhaustive_boosted(alpha):
    # every family arising from a configuration, short-range bond boosted to
    # J(1) = 10 (nn strength 9 plus the unit power-law value)
    spec = m.IsotropicMixed(9.0, alpha)
    vol = m.Volume(1, 5)
    kap = ct.kappa(alpha)
    for bits in itertools.product((-1, 1), repeat=vol.n_sites):
        fam = ct.triangles(vol, np.array(bits, dtype=np.int8), m.plus_bc())
        for k, t in enumerate(fam.triangles):
            assert ct.removal_cost(vol, spec, fam, k) >= kap * t.length ** (2.0 - alpha)


def test_kappa_values():
    assert ct.kappa(2.0) == pytest.approx(2.0)
    assert ct.kappa(1.5) == pytest.approx(2.0 * (3.0 - 2.0 ** 1.5), abs=1e-12)
    assert ct.kappa(ct.KAPPA_ROOT_ALPHA) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ct.kappa(2.4)
    with pytest.raises(ValueError):
        ct.kappa(1.0)


def test_quasi_additivity_single_contour():
    vol = m.Volume(1, 8)
    spec = m.PowerLaw(1.0, 1.6)
    fam = ct.group_contours(_family_from_spans([(0, 2)]), C=1.0)
    slack, frac = ct.quasi_additivity_check(vol, spec, [fam], zeta=0.5)
    h = ct.triangle_energy(vol, spec, fam.contours[0].triangles[0])
    assert slack == pytest.approx(0.5 * h, rel=1e-10)
    assert frac == 1.0


def test_quasi_additivity_random_two_contour_families():
    rng = np.random.default_rng(31)
    spec = m.PowerLaw(1.0, 1.6)
    vol = m.Volume(1, 120)
    families = []
    while len(families) < 60:
        l1, l2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        start1 = -int(rng.integers(60, 100))
        gap = int(rng.integers(1 + min(l1, l2) ** 3, 150))
        start2 = start1 + l1 + gap
        if start2 + l2 > 115:
            continue
        fam = _family_from_spans([(start1, start1 + l1 - 1), (start2, start2 + l2 - 1)])
        grouped = ct.group_contours(fam, C=1.0)
        if len(grouped) != 2:
            continue
        families.append(grouped)
    slack, frac = ct.quasi_additivity_check(vol, spec, families, zeta=0.5)
    assert frac == 1.0
    assert slack >= 0.0


def test_quasi_additivity_rejects_overlap():
    vol = m.Volume(1, 10)
    a = ct.Contour((ct.Triangle(-0.5, 3.5, -1),))
    b = ct.Contour((ct.Triangle(1.5, 5.5, -1),))
    with pytest.raises(ValueError):
        ct.quasi_additivity_check(vol, m.PowerLaw(1.0, 1.6),
                                  [ct.ContourFamily((a, b))], zeta=0.5)


# ---------------------------------------------------------------------------
# counting bound and droplet-cost fits


def test_peierls_closed_form_vs_series():
    for beta in (1.5, 2.0, 3.0):
        x = 3.0 * math.exp(-2.0 * beta)
        ls = np.arange(1, 10_001, dtype=np.float64)
        series = float(np.sum(ls * x ** ls))
        assert ct.peierls_entropy_bound(beta) == pytest.approx(series, abs=1e-10)


def test_peierls_reference_value():
    assert ct.peierls_entropy_bound(2.0) == pytest.approx(0.061522, abs=1e-6)


def test_peierls_monotone_to_zero():
    values = [ct.peierls_entropy_bound(b) for b in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-13


def test_peierls_divergent_rejected():
    with pytest.raises(ValueError):
        ct.peierls_entropy_bound(math.log(3.0) / 2.0)


@pytest.mark.parametrize("alpha,slope", [(1.5, 0.5), (1.2, 0.8)])
def test_droplet_exponent(alpha, slope):
    fit = ct.landau_exponent_fit(alpha, [8, 16, 32, 64, 128])
    assert abs(fit - slope) <= 0.05


def test_droplet_exponent_borderline():
    fit = ct.landau_exponent_fit(2.0, [8, 16, 32, 64, 128])
    assert abs(fit) <= 0.1


def test_droplet_sum_matches_brute():
    alpha, L, M = 1.5, 16, 40_000_000
    ks = np.arange(L, M, dtype=np.float64)
    brute = (2 * L + 1) * float(np.sum(ks ** -alpha))
    trunc = (2 * L + 1) * (M - 1) ** (1 - alpha) / (alpha - 1)
    got = ct.landau_excess_sum(alpha, L)
    assert brute < got < brute + 1.01 * trunc


# ---------------------------------------------------------------------------
# serialization


def test_configuration_round_trip():
    vol = m.Volume(1, 3)
    cfg = np.array([1, -1, -1, 1, 1, -1, 1], dtype=np.int8)
    text = ct.serialize_configuration(vol, cfg)
    vol2, cfg2 = ct.parse_configuration(text)
    assert vol2 == vol
    assert np.array_equal(cfg2, cfg)


@pytest.mark.parametrize("text", ["-1:+1\n0:+1\n1:+1\n0:-1", "-1:+1\n1:+1", "-1:+1\n0:2\n1:+1"])
def test_configuration_parse_needs_one_spin_per_site(text):
    # a site listed twice, a site missing, a spin not +-1
    with pytest.raises(ValueError, match="one spin"):
        ct.parse_configuration(text)


def test_family_serialization_mentions_children():
    vol = m.Volume(1, 2)
    fam = ct.triangles(vol, [1, -1, 1, -1, 1], m.plus_bc())
    text = ct.serialize_family(fam)
    assert "-1.5,1.5,-1" in text
    assert "-0.5,0.5,+1" in text
