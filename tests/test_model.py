"""Couplings, tail sums, boundary fields, Hamiltonians."""

import functools
import math
import time

import numpy as np
import pytest

from longrange_ising import model as m
from longrange_ising import verify
from longrange_ising.util import CapacityError

# each verify row by name, called at a test's own cases
ROW = {name: fn for name, _, fn in verify.CHECKS}

PI2_6 = math.pi ** 2 / 6.0


# ---------------------------------------------------------------------------
# coupling values


def test_coupling_power_law_direct():
    spec = m.PowerLaw(1.0, 2.0)
    assert m.coupling_value(spec, 0, 2) == 0.25
    assert m.coupling_value(spec, 5, 3) == 0.25


def test_coupling_nn_cutoff():
    spec = m.NearestNeighbor(1.0)
    assert m.coupling_value(spec, 0, 2) == 0.0
    assert m.coupling_value(spec, 0, 1) == 1.0


def test_coupling_axes_off_axis_zero():
    spec = m.AnisotropicAxes(1.5, "nn")
    assert m.coupling_value(spec, (0, 0), (1, 1)) == 0.0
    assert m.coupling_value(spec, (0, 0), (3, 0)) == 3.0 ** -1.5
    assert m.coupling_value(spec, (2, 0), (2, 1)) == 1.0
    assert m.coupling_value(spec, (2, 0), (2, 3)) == 0.0


def test_coupling_same_site_rejected():
    with pytest.raises(ValueError):
        m.coupling_value(m.PowerLaw(1.0, 1.5), 3, 3)


def test_coupling_symmetry_random_pairs():
    rng = np.random.default_rng(0)
    specs = [m.PowerLaw(0.7, 1.9), m.IsotropicMixed(4.0, 2.5),
             m.AnisotropicAxes(1.5, 2.2), m.NearestNeighbor(2.0)]
    for spec in specs:
        for _ in range(50):
            if isinstance(spec, (m.AnisotropicAxes,)) or \
                    (isinstance(spec, (m.PowerLaw, m.IsotropicMixed)) and rng.random() < 0.5):
                x = tuple(rng.integers(-6, 7, 2))
                y = tuple(rng.integers(-6, 7, 2))
            else:
                x, y = int(rng.integers(-9, 9)), int(rng.integers(-9, 9))
            if x == y:
                continue
            a = m.coupling_value(spec, x, y)
            assert a == m.coupling_value(spec, y, x)
            assert a >= 0.0


@pytest.mark.parametrize("vol, spec", [
    (m.Volume(1, 12), m.PowerLaw(1.0, 1.3)),
    (m.Volume(1, 12), m.PowerLaw(1.0, 1.7)),
    (m.Volume(1, 12), m.PowerLaw(0.7, 2.2)),
    (m.Volume(1, 12), m.PowerLaw(1.0, 3.2)),
    (m.Volume(1, 12), m.IsotropicMixed(4.0, 1.6)),
    (m.Volume(2, 4), m.IsotropicMixed(4.0, 2.5)),
    (m.Volume(2, 4), m.PowerLaw(1.0, 2.5)),
    (m.Volume(2, 5), m.AnisotropicAxes(1.5, 2.2)),
    (m.Volume(2, 4), m.AnisotropicAxes(1.5, "nn")),
])
def test_coupling_value_matches_matrix_bitwise(vol, spec):
    sites = vol.sites()
    values = np.array([[m.coupling_value(spec, x, y) if x != y else 0.0 for y in sites]
                       for x in sites])
    assert values.tobytes() == m.coupling_matrix(vol, spec).tobytes()


@pytest.mark.parametrize("vol, spec", [
    (m.Volume(1, 6), m.NearestNeighbor(0.7)),
    (m.Volume(1, 6), m.PowerLaw(0.7, 1.6)),
    (m.Volume(1, 6), m.IsotropicMixed(4.0, 1.6)),
    (m.Volume(2, 3), m.NearestNeighbor(1.0)),
    (m.Volume(2, 3), m.PowerLaw(1.0, 2.5)),
    (m.Volume(2, 3), m.IsotropicMixed(4.0, 2.5)),
    (m.Volume(2, 3), m.AnisotropicAxes(1.5, "nn")),
    (m.Volume(2, 3), m.AnisotropicAxes(1.5, 2.2)),
])
def test_coupling_rows_match_matrix_bitwise(vol, spec):
    J = m.coupling_matrix(vol, spec)
    for i, x in enumerate(vol.sites()):
        assert m.coupling_row(vol, spec, x).tobytes() == J[i].tobytes()
    # a row for a site outside the volume is the matching row of a larger
    # volume's matrix, restricted to the volume's columns
    big = m.Volume(vol.dimension, vol.half_width + 2)
    x = vol.half_width + 2 if vol.dimension == 1 else (vol.half_width + 2, -1)
    cols = [big.index(y) for y in vol.sites()]
    assert m.coupling_row(vol, spec, x).tobytes() == \
        m.coupling_matrix(big, spec)[big.index(x), cols].tobytes()
    assert m.coupling_rows(vol, spec, [x, vol.sites()[0]]).tobytes() == \
        np.stack([m.coupling_row(vol, spec, x), J[0]]).tobytes()


def test_antiferromagnetic_rejected():
    with pytest.raises(ValueError):
        m.PowerLaw(-1.0, 1.5)
    with pytest.raises(ValueError):
        m.NearestNeighbor(-0.5)


def test_summability_validation():
    with pytest.raises(ValueError):
        m.validate_coupling(m.PowerLaw(1.0, 1.5), 2)
    with pytest.raises(ValueError):
        m.PowerLaw(1.0, 0.9)
    with pytest.raises(ValueError):
        m.AnisotropicAxes(0.9, "nn")


# ---------------------------------------------------------------------------
# tail sums


def test_tail_analytic_values():
    assert m.tail_coupling_sum(2.0, 1) == pytest.approx(PI2_6 - 1.0, abs=1e-14)
    assert m.tail_coupling_sum(2.0, 0) == pytest.approx(PI2_6, abs=1e-13)


def test_tail_divergent_rejected():
    with pytest.raises(ValueError):
        m.tail_coupling_sum(1.0, 5)


def test_tail_against_brute_partial_sum():
    # 1e7-term partial sum plus an integral bracket midpoint, good to ~2e-11
    alpha, N = 1.5, 100
    M = 10_000_000
    ks = np.arange(N + 1, M + 1, dtype=np.float64)
    partial = float(np.sum(ks ** -alpha))
    lower = M ** (1 - alpha) / (alpha - 1)       # integral from M
    upper = (M + 1) ** (1 - alpha) / (alpha - 1)
    oracle = partial + 0.5 * (lower + upper)
    assert m.tail_coupling_sum(alpha, N) == pytest.approx(oracle, abs=1e-10)


def test_alternating_tail_analytic():
    # sum_{k >= 1} (-1)^k k^-a = -(1 - 2^(1-a)) zeta(a); zeta via our tail
    for alpha in (1.5, 2.0, 3.0):
        zeta = m.tail_coupling_sum(alpha, 0)
        want = -(1.0 - 2.0 ** (1.0 - alpha)) * zeta
        assert m.alternating_tail(alpha, 0.0, 0) == pytest.approx(want, abs=1e-13)


def test_alternating_tail_brute():
    alpha, shift, start = 1.7, 3.0, 5
    ks = np.arange(start + 1, 2_000_001, dtype=np.float64)
    brute = float(np.sum((-1.0) ** ks * (ks + shift) ** -alpha))
    assert m.alternating_tail(alpha, shift, start) == pytest.approx(brute, abs=1e-9)


TAIL_STARTS = (0, 1, m.EM_CROSSOVER - 1, m.EM_CROSSOVER, m.EM_CROSSOVER + 1, 5 * m.EM_CROSSOVER,
               10_000)


# alpha up to 9.5: the binomial tails of _half_row_sum reach alpha + 6
@pytest.mark.parametrize("alpha", (1.05, 1.2, 1.5, 2.5, 4.0, 9.5))
def test_tails_match_mpmath_zeta(alpha):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for shift in (0.0, -0.5, 0.5, 3.0, 3.7, 17.0, 17.25):
        for start in TAIL_STARTS:
            base = mpmath.mpf(start) + 1 + mpmath.mpf(shift)
            want = mpmath.zeta(alpha, base)
            assert abs(m.hurwitz_tail(alpha, shift, start) / want - 1) <= 1e-14
            # sum_{k > start} (-1)^k (k + shift)^-a from two half-step zetas
            want = (-1) ** (start + 1) * mpmath.mpf(2) ** -alpha * (
                mpmath.zeta(alpha, base / 2) - mpmath.zeta(alpha, (base + 1) / 2))
            assert abs(m.alternating_tail(alpha, shift, start) / want - 1) <= 1e-12
        # the vector form gathers the same values (up to numpy's array pow)
        starts = np.array(TAIL_STARTS)
        np.testing.assert_allclose(m.hurwitz_tail(alpha, shift, starts),
                                   [m.hurwitz_tail(alpha, shift, s) for s in TAIL_STARTS],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(m.alternating_tail(alpha, shift, starts),
                                   [m.alternating_tail(alpha, shift, s) for s in TAIL_STARTS],
                                   rtol=1e-15, atol=0)


@pytest.mark.parametrize("alpha", (1.2, 1.6, 2.6, 9.5))
def test_tail_entries_do_not_depend_on_the_batch(alpha):
    # bases below and beyond the crossover, and on both sides of the Boole
    # cutoff 40 (alpha + 1): each entry is its own one-start batch, bit for
    # bit, and a reversed batch is the reversed vector, so the two sides of
    # a ray can read one call
    starts = np.array([0, 1, 2, 5, 30, 61, 62, 63, 64, 65, 66, 100, 300, 419, 420, 421, 1000])
    for tail in (m.hurwitz_tail, m.alternating_tail):
        for shift in (0.0, 0.5, -0.3):
            batch = tail(alpha, shift, starts)
            for i in range(starts.size):
                assert batch[i] == tail(alpha, shift, starts[i:i + 1])[0], (tail, shift, i)
            assert np.array_equal(tail(alpha, shift, starts[::-1]), batch[::-1])


def test_tail_batches_on_any_shift_equal_their_one_start_calls():
    # start 63 + 1 + shift rounds one ulp below the crossover base
    # lo + n = 64.383..., so a float head test took it as head and indexed
    # one past the head sums
    alpha, shift = 5.510910337982246, 0.38298388979119735
    np.testing.assert_allclose(m.hurwitz_tail(alpha, shift, np.array([29, 63])),
                               [4.894714575940365e-08, 1.5910904527606364e-09],
                               rtol=4e-15, atol=0)
    # shifts the library passes (0 and halves) give each entry bit for bit;
    # any other shift can move a batch's bases by an ulp
    rng = np.random.default_rng(32)
    for k in range(600):
        alpha = float(rng.uniform(1.05, 9.5))
        dyadic = k % 2 == 0
        shift = float(rng.choice([0.0, 0.5, -0.5, 3.0])) if dyadic \
            else float(rng.uniform(-0.99, 20.0))
        starts = rng.integers(0, 300, size=int(rng.integers(1, 9)))
        for tail in (m.hurwitz_tail, m.alternating_tail):
            batch = tail(alpha, shift, starts)
            one = [tail(alpha, shift, int(s)) for s in starts]
            if dyadic:
                assert batch.tolist() == one, (tail, alpha, shift, starts)
            else:              # the alternating tail's two halves cancel digits
                np.testing.assert_allclose(batch, one, atol=0,
                                           rtol=4e-15 if tail is m.hurwitz_tail else 1e-13)


def test_tails_leave_their_arguments_alone():
    # the Euler-Maclaurin tail updates its own series in place; a float start
    # array and the bases it is handed must come back as they went in
    starts = np.array([0.0, 3.0, 40.0, 63.0, 64.0, 500.0])
    kept = starts.copy()
    m.hurwitz_tail(1.6, 0.5, starts)
    assert np.array_equal(starts, kept)
    bases = np.array([64.0, 64.5, 100.0, 1e6])
    kept = bases.copy()
    m._em_tail(2.5, bases)
    assert np.array_equal(bases, kept)


# ---------------------------------------------------------------------------
# boundary fields


def test_boundary_field_plus_analytic():
    vol = m.Volume(1, 1)
    got = m.boundary_field(vol, m.PowerLaw(1.0, 2.0), m.plus_bc(), 0)
    assert got == pytest.approx(2.0 * (PI2_6 - 1.0), abs=1e-12)


def test_boundary_field_free_zero():
    vol = m.Volume(1, 3)
    for x in vol.sites():
        assert m.boundary_field(vol, m.PowerLaw(1.0, 1.5), m.free_bc(), x) == 0.0


def test_boundary_field_dobrushin_center_cancels():
    vol = m.Volume(1, 4)
    for alpha in (1.2, 1.5, 2.0, 3.0):
        got = m.boundary_field(vol, m.PowerLaw(1.0, alpha), m.dobrushin1d_bc(), 0)
        assert got == pytest.approx(0.0, abs=1e-14)


def test_boundary_field_alternating_brute():
    vol = m.Volume(1, 2)
    alpha = 1.6
    for x in vol.sites():
        got = m.boundary_field(vol, m.PowerLaw(1.0, alpha), m.alternating_bc(), x)
        ys = np.arange(3, 3_000_000)
        right = np.sum((-1.0) ** ys * (ys - x) ** -alpha)
        left = np.sum((-1.0) ** ys * (ys + x) ** -alpha)
        assert got == pytest.approx(float(right + left), abs=1e-8)


def _ray_brute(bcs, site, x, alpha, first, R, E=64):
    """For each bc of bcs, Sum over first <= |y| < R of its spin at site(y)
    times |y - x|^-alpha.  Spins are read directly for |y| <= E; every pinned
    region and pattern lies within E, so beyond it the site at E+1 or E+2 on
    the same side stands for all sites of its parity, whose weights are
    summed once for all bcs."""
    ks = np.arange(first, R)
    totals = np.zeros(len(bcs))
    for side in (1, -1):
        w = np.abs(side * ks - x) ** -alpha
        near = ks[:E + 1 - first].tolist()
        totals += np.array([[bc.spin_at(site(side * k)) for k in near] for bc in bcs]) \
            @ w[:len(near)]
        for j in (0, 1):        # w[E + 1 - first + j::2]: the |y| = E + 1 + j, E + 3 + j, ...
            totals += np.array([bc.spin_at(site(side * (E + 1 + j))) for bc in bcs]) \
                * w[E + 1 - first + j::2].sum()
    return totals


@pytest.mark.parametrize("kind, alpha", [("frozen_interval", 2.6), ("left_neighborhood", 2.6),
                                         ("pattern_plus", 2.6), ("pattern_alternating", 1.6)])
def test_boundary_field_near_zone_brute(kind, alpha):
    # exteriors pinned beyond the volume, so the field has a near zone
    vol = m.Volume(1, 3)
    bc = {"frozen_interval": m.frozen_interval_bc(5, 12),
          "left_neighborhood": m.left_neighborhood_bc(-1, 12, 6),
          "pattern_plus": m.plus_bc().with_pattern({4: -1, -6: -1, 9: -1}),
          "pattern_alternating": m.alternating_bc().with_pattern({5: 1, -4: 1, 9: -1})}[kind]
    R = 2_000_000                      # truncation below 2e-10 at alpha = 2.6
    h = m.boundary_field_vector(vol, m.PowerLaw(1.0, alpha), bc)
    for x in vol.sites():
        brute = float(_ray_brute([bc], lambda y: y, x, alpha, 4, R)[0])
        assert m.boundary_field(vol, m.PowerLaw(1.0, alpha), bc, x) == h[vol.index(x)]
        assert h[vol.index(x)] == pytest.approx(brute, abs=1e-9)


def _mpmath_ray_field(mpmath, vol, alpha, bc, E):
    """1d h in mpmath: the exterior spins summed directly out to |y| = E,
    beyond it the constant far fill of bc times two Hurwitz zetas."""
    far = bc.spin_at(E + 1)
    return np.array([float(mpmath.fsum(bc.spin_at(y) * mpmath.mpf(abs(y - x)) ** -alpha
                                       for y in range(-E, E + 1) if not vol.contains(y))
                           + far * (mpmath.zeta(alpha, E + 1 - x) + mpmath.zeta(alpha, E + 1 + x)))
                     for x in vol.sites()])


@pytest.mark.parametrize("alpha", (1.2, 1.6, 2.6))
def test_cut_field_vectors_match_mpmath(alpha):
    # one tail per cut where a region fill changes: intervals inside the
    # volume, touching it and beyond it, and alternating windows at odd and
    # even edges, to 1e-14 of each vector's maximum
    mpmath = pytest.importorskip("mpmath")
    vol, spec = m.Volume(1, 4), m.PowerLaw(1.0, alpha)
    bcs = [m.frozen_interval_bc(-2, 1), m.frozen_interval_bc(5, 9), m.frozen_interval_bc(-9, -3),
           m.frozen_interval_bc(-7, 2, 1, -1), m.frozen_interval_bc(8, 20, 0),
           m.frozen_interval_bc(-30, -12, 1, 0)]
    bcs += [m.left_neighborhood_bc(sign, N, L, edge) for sign in (1, -1)
            for L, N in ((3, 12), (2, 16)) for edge in (0, -5, -10, -258)]
    with mpmath.workdps(30):
        for bc in bcs:
            want = _mpmath_ray_field(mpmath, vol, alpha, bc, 300)
            got = m.boundary_field_vector(vol, spec, bc)
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= 1e-14, (bc.name, err)


def test_far_half_plane_field_reads_no_more_spins(monkeypatch):
    # the column ray adds one tail at the boundary's cut: its cost does not
    # grow with the height
    calls, spin_at = [], m.BoundaryCondition.spin_at
    monkeypatch.setattr(m.BoundaryCondition, "spin_at",
                        lambda bc, y: calls.append(y) or spin_at(bc, y))
    counts = []
    for height in (0, 700, 7000):
        m.boundary_field_vector.cache_clear()
        calls.clear()
        m.boundary_field_vector(m.Volume(2, 2), m.PowerLaw(1, 2.5), m.dobrushin2d_bc(height))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2], counts


def _per_side_ray(vol, bc, alpha):
    """The 1d ray with one tail call per side and cut, at the starts
    a - direction * x of that side: the field builder's sums, nothing shared."""
    L, xs = vol.half_width, np.arange(-vol.half_width, vol.half_width + 1)
    h = np.zeros(vol.side)
    for direction in (+1, -1):
        value, phase = 0, 0
        for a in [L] + [a for a in bc.cuts(direction, 0) if a > L]:
            fill, starts = bc.tail_fill(direction * (a + 1)), a - direction * xs
            if (new_phase := getattr(fill, "phase", 0)) != phase:
                h += (new_phase - phase) * (1 - 2 * (xs % 2)) \
                    * m.alternating_tail(alpha, 0.0, starts)
            if (new := getattr(fill, "value", 0)) != value:
                h += (new - value) * m.hurwitz_tail(alpha, 0.0, starts)
            value, phase = new, new_phase
    return h


def test_one_tail_call_per_cut(monkeypatch):
    # both sides of a ray read one vector per (tail, cut); the alternating
    # tail's near part counts as Hurwitz calls too
    calls = []
    for name in ("hurwitz_tail", "alternating_tail"):
        def spy(*args, _name=name, _tail=getattr(m, name)):
            calls.append(_name)
            return _tail(*args)
        monkeypatch.setattr(m, name, spy)
    chain = m.PowerLaw(1, 1.5)
    for vol, spec, bc, want in [
            (m.Volume(1, 3), chain, m.plus_bc(), (1, 0)),
            (m.Volume(1, 3), chain, m.dobrushin1d_bc(), (1, 0)),
            (m.Volume(1, 3), chain, m.alternating_bc(), (2, 1)),
            (m.Volume(1, 3), chain, m.frozen_interval_bc(5, 9), (3, 0)),
            (m.Volume(2, 2), m.AnisotropicAxes(1.5, 2.2), m.plus_bc(), (2, 0))]:
        m.boundary_field_vector.cache_clear()
        calls.clear()
        m.boundary_field_vector(vol, spec, bc)
        assert (calls.count("hurwitz_tail"), calls.count("alternating_tail")) == want, bc.name
    monkeypatch.undo()
    # the shared vector gives the per-side sums byte for byte, on chains whose
    # starts straddle the crossover and the Boole cutoff
    for vol in (m.Volume(1, 3), m.Volume(1, 70)):
        for bc in (m.plus_bc(), m.alternating_bc(), m.dobrushin1d_bc(),
                   m.left_neighborhood_bc(-1, 12, 3, -4)):
            m.boundary_field_vector.cache_clear()
            got = m.boundary_field_vector(vol, chain, bc)
            assert np.array_equal(got, _per_side_ray(vol, bc, chain.alpha)), (vol, bc.name)


def test_boundary_field_tail_crossover_doubling():
    cases = [(m.Volume(1, 3), spec, bc)
             for spec in (m.PowerLaw(1.0, 1.5), m.IsotropicMixed(9.0, 1.8))
             for bc in (m.plus_bc(), m.alternating_bc(), m.dobrushin1d_bc())]
    cases += [(m.Volume(2, 2), m.PowerLaw(1.0, 2.5), m.plus_bc()),
              (m.Volume(2, 2), m.IsotropicMixed(1.0, 3.0), m.dobrushin2d_bc(1))]
    ok, detail = ROW["tail-crossover-doubling"](cases)
    assert ok, detail


def test_boundary_field_2d_isotropic_brute():
    vol = m.Volume(2, 2)
    alpha = 4.0
    bc = m.dobrushin2d_bc(0)
    R = 400
    ring_bound = 8.0 * R ** (2 - alpha) / (alpha - 2)
    for x in [(0, 0), (2, -1), (-2, 2)]:
        got = m.boundary_field(vol, m.PowerLaw(1.0, alpha), bc, x)
        y1, y2 = np.arange(x[0] - R, x[0] + R + 1), np.arange(x[1] - R, x[1] + R + 1)
        # half-plane rules only: one spin per row
        spins = np.array([bc.spin_at((x[0], y)) for y in y2.tolist()], dtype=np.float64)
        d = np.hypot((y1 - x[0])[:, None], (y2 - x[1])[None, :])
        d[(np.abs(y1) <= vol.half_width)[:, None] & (np.abs(y2) <= vol.half_width)] = np.inf
        brute = float(np.sum(d ** -alpha * spins))
        assert abs(got - brute) < ring_bound + 1e-12


@pytest.mark.parametrize("alpha", (2.05, 3.0, 9.5))
def test_half_row_sums_do_not_depend_on_the_batch(alpha):
    # heads of 1000 to 4800 terms, starts inside and beyond them: each entry
    # must equal the scalar view, which computes it alone
    ds = np.array([0, 1, 2, 7, 16, 63, 64, 65, 299, 300])
    starts = np.array([1, 2, 5, 17, 999, 1000, 1001, 1002, 4800, 4801, 6000])
    batch = m._half_row_sums(alpha, ds, starts[:, None])
    for i, start in enumerate(starts.tolist()):
        part = m._half_row_sums(alpha, ds[::-1], start)[::-1]
        for j, d in enumerate(ds.tolist()):
            want = m._half_row_sum(alpha, d, start, m.EM_CROSSOVER)
            assert batch[i, j] == part[j] == want
    full = m._full_row_sums(alpha, ds[1:])
    assert full.tolist() == [m._full_row_sum(alpha, d, m.EM_CROSSOVER) for d in ds[1:].tolist()]
    with pytest.raises(ValueError, match="start must be >= 1"):
        m._half_row_sums(alpha, ds, 0)


def _isotropic_site_field(vol, spec, bc, x, ray):
    """Per-site reference for _isotropic_field: the same row sums added in
    the same order; `ray` is the column ray of Poisson leading terms at x."""
    L, (x1, x2), a = vol.half_width, x, spec.alpha
    c, D = m._row_leading_term(a)
    total = 0.0
    for y2 in range(1 - L - D, L + D):
        s, d = bc.row_sign(y2), abs(y2 - x2)
        if s and abs(y2) <= L:
            total += s * (m._half_row_sum(a, d, L + 1 - x1, m.EM_CROSSOVER)
                          + m._half_row_sum(a, d, L + 1 + x1, m.EM_CROSSOVER))
        elif s:
            total += s * (m._full_row_sum(a, d, m.EM_CROSSOVER) - c * float(m._power(d, a - 1.0))
                          if d < D else 0.0)
    total += c * ray
    return total * (spec.strength if isinstance(spec, m.PowerLaw) else 1.0)


@pytest.mark.parametrize("spec", [m.PowerLaw(0.7, 2.5), m.IsotropicMixed(2.0, 3.0)])
def test_isotropic_field_matches_per_site_sum(spec):
    # the whole-array builder adds each site's terms in the per-site order
    for vol, bc in [(m.Volume(2, 2), m.plus_bc()),
                    (m.Volume(2, 3), m.dobrushin2d_bc(5)),
                    (m.Volume(2, 2), m.plus_bc().with_pattern({(0, 4): -1, (-3, 1): -1})),
                    (m.Volume(2, 1), m.pattern_bc({(0, 2): 1}))]:
        regions = m.BoundaryCondition(tuple(r for r in bc.rules if isinstance(r, m.RegionRule)))
        ray = m._ray_field(vol, regions, spec.alpha - 1.0, 1, m.EM_CROSSOVER).ravel()
        h = m._isotropic_field(vol, spec, regions, m.EM_CROSSOVER).ravel()
        for i, x in enumerate(vol.sites()):
            assert h[i] == _isotropic_site_field(vol, spec, regions, x, ray[i])


@pytest.mark.parametrize("vol, pattern", [
    (m.Volume(1, 3), {4: 1, -4: -1, -9: 1, 40: -1, 200_000: 1}),
    (m.Volume(2, 1), {(0, 2): 1, (-2, 1): -1, (3, 3): 1, (0, -7): -1})])
def test_finite_pattern_field_is_pair_sum(vol, pattern, monkeypatch):
    # over a free base the field is the finite pair sum, neighbour bonds once;
    # a site at 200,000 neither widens a near zone nor costs its length, and
    # the family paths see the region rules alone
    specs = (m.NearestNeighbor(1.3), m.PowerLaw(0.7, 1.5), m.IsotropicMixed(2.0, 1.8)) \
        if vol.dimension == 1 else \
        (m.NearestNeighbor(1.3), m.PowerLaw(0.7, 2.5), m.IsotropicMixed(2.0, 3.0),
         m.AnisotropicAxes(1.5, "nn"), m.AnisotropicAxes(1.5, 2.2))
    seen = []
    for name in ("_ray_field", "_isotropic_field", "_add_nn_bonds"):
        def spy(*args, _path=getattr(m, name)):
            seen.extend(a for a in args if isinstance(a, m.BoundaryCondition))
            return _path(*args)
        monkeypatch.setattr(m, name, spy)
    for spec in specs:
        start = time.process_time()
        h = m.boundary_field_vector(vol, spec, m.pattern_bc(pattern))
        assert time.process_time() - start < 0.1
        for i, x in enumerate(vol.sites()):
            want = sum(v * m.coupling_value(spec, x, y) for y, v in pattern.items())
            assert abs(h[i] - want) <= 1e-13, (spec, x, h[i], want)
    assert seen and not any(bc.pattern for bc in seen)


def test_stacked_patterns_override_older_entries():
    bc = m.plus_bc().with_pattern({4: -1, 9: -1}).with_pattern({4: 1, -6: -1})
    assert bc.pattern == ((-6, -1), (4, 1), (9, -1))
    assert [bc.spin_at(y) for y in (4, 9, -6, 5)] == [1, -1, -1, 1]
    assert bc.flipped().pattern == ((-6, 1), (4, -1), (9, 1))


@pytest.mark.parametrize("spec", [m.NearestNeighbor(1.3), m.PowerLaw(0.7, 1.5),
                                  m.IsotropicMixed(2.0, 1.8)])
def test_pattern_field_is_region_field_plus_row_changes(spec):
    # each exterior pattern site y adds (omega_y - 1) J(x, y) to the plus field
    vol, pattern = m.Volume(1, 3), {4: -1, -6: -1, 9: -1}
    plus = m.boundary_field_vector(vol, spec, m.plus_bc())
    h = m.boundary_field_vector(vol, spec, m.plus_bc().with_pattern(pattern))
    for i, x in enumerate(vol.sites()):
        want = plus[i] + sum((v - 1) * m.coupling_value(spec, x, y) for y, v in pattern.items())
        assert abs(h[i] - want) <= 1e-13, (spec, x)


def test_boundary_rules_are_region_rules():
    plus = m.RegionRule(m.Everywhere(), m.ConstFill(1))
    for rules in (((4, -1), plus), (m.ConstFill(1), plus), (plus, (4, -1)), (plus, None)):
        with pytest.raises(ValueError, match="region rules"):
            m.BoundaryCondition(rules)
    with pytest.raises(ValueError, match="trailing Everywhere"):
        m.BoundaryCondition((m.RegionRule(m.Interval(None, 0), m.ConstFill(-1)),))


def _mpmath_row_sums(mpmath, alpha):
    """(full, half, zeta) at exponent alpha in mpmath: full(d) is the whole
    row at distance d >= 1 as (Poisson leading term, Bessel part); half(d,
    start) = Sum_{k >= start} (k^2 + d^2)^(-alpha/2); zeta is Hurwitz's."""
    a = mpmath.mpf(alpha)
    nu = (a - 1) / 2
    c = mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu) / mpmath.gamma(a / 2)
    amp = 4 * mpmath.pi ** (a / 2) / mpmath.gamma(a / 2)

    @functools.lru_cache(maxsize=None)
    def full(d):        # k up to 40 / d + 1: the omitted terms are below e^(-250)
        bessel = amp * mpmath.mpf(d) ** -nu * mpmath.fsum(
            k ** nu * mpmath.besselk(nu, 2 * mpmath.pi * k * d) for k in range(1, 40 // d + 2))
        return c * mpmath.mpf(d) ** (1 - a), bessel

    @functools.lru_cache(maxsize=None)
    def half(d, start):
        if d == 0:
            return mpmath.zeta(a, start)
        head = mpmath.fsum((k * k + d * d) ** (-a / 2) for k in range(1, start))
        return (sum(full(d)) - mpmath.mpf(d) ** -a) / 2 - head

    return full, half, functools.lru_cache(maxsize=None)(lambda s, q: mpmath.zeta(s, q))


def _mpmath_isotropic_field(mpmath, vol, spec, bc, row_sums):
    """h over the volume in mpmath: exact half rows for the rows crossing the
    volume; beyond, each row's Poisson leading term, summed per run of equal
    row signs as a difference of Hurwitz zetas, plus its Bessel part out to
    distance 40 (beyond it, below e^(-250) of the leading term)."""
    L, a = vol.half_width, spec.alpha
    full, half, zeta = row_sums
    c = full(1)[0]
    W = max([L] + [abs(r.region.boundary) for r in bc.rules if isinstance(r.region, m.HalfPlane)])
    h = {}
    for x1, x2 in vol.sites():
        total = mpmath.fsum(bc.row_sign(y2) * (half(abs(y2 - x2), L + 1 - x1)
                                               + half(abs(y2 - x2), L + 1 + x1))
                            for y2 in range(-L, L + 1))
        for side in (1, -1):
            # rows side * t for t > L, at distance t - side * x2
            t0, s0 = L + 1, bc.row_sign(side * (L + 1))
            for t in range(L + 2, W + 3):
                s = bc.row_sign(side * t) if t <= W + 1 else None
                if s != s0:
                    upper = zeta(a - 1, t - side * x2) if s is not None else 0
                    total += s0 * c * (zeta(a - 1, t0 - side * x2) - upper)
                    t0, s0 = t, s
            total += mpmath.fsum(bc.row_sign(side * t) * full(t - side * x2)[1]
                                 for t in range(L + 1, 41 + L) if t - side * x2 <= 40)
        h[(x1, x2)] = spec.strength * total
    return np.array([float(h[x]) for x in vol.sites()])


@pytest.mark.parametrize("alpha", (2.05, 2.5, 3.0, 6.0, 9.5))
def test_isotropic_field_vectors_match_mpmath(alpha):
    # whole vectors, far rows included, to 1e-14 of each vector's maximum
    mpmath = pytest.importorskip("mpmath")
    spec = m.PowerLaw(0.7, alpha)
    with mpmath.workdps(30):
        row_sums = _mpmath_row_sums(mpmath, alpha)
        for L in (1, 2, 5):
            vol = m.Volume(2, L)
            for bc in (m.plus_bc(), m.dobrushin2d_bc(0), m.dobrushin2d_bc(3),
                       m.dobrushin2d_bc(40), m.dobrushin2d_bc(700)):
                want = _mpmath_isotropic_field(mpmath, vol, spec, bc, row_sums)
                got = m.boundary_field_vector(vol, spec, bc)
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-14, (L, bc.name, err)


def test_poisson_row_rest_below_2_53_at_D_mpmath():
    # the whole Bessel part at D(alpha), not only its first term, is below
    # 2^-53 of the leading term; one row closer it is not
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for alpha in np.linspace(2.05, 14.0, 24).tolist():
            full, _, _ = _mpmath_row_sums(mpmath, alpha)
            D = m._row_leading_term(alpha)[1]
            lead, bessel = full(D)
            assert bessel <= 2.0 ** -53 * lead, (alpha, D)
            lead, bessel = full(D - 1)
            assert bessel > 2.0 ** -53 * lead, (alpha, D)


def test_boundary_field_2d_isotropic_large_alpha():
    # D(alpha) is searched in logs: its powers underflow from alpha ~ 250 on
    vol, bc, R = m.Volume(2, 1), m.dobrushin2d_bc(2), 8
    ys = [(y1, y2) for y1 in range(-R, R + 1) for y2 in range(-R, R + 1)
          if not vol.contains((y1, y2))]
    for alpha in (50.0, 300.0):
        h = m.boundary_field_vector(vol, m.PowerLaw(1.0, alpha), bc)
        for i, x in enumerate(vol.sites()):      # sites beyond the box add < 7^-48
            brute = sum(bc.spin_at(y) * math.hypot(y[0] - x[0], y[1] - x[1]) ** -alpha
                        for y in ys)
            assert abs(h[i] - brute) < 1e-15


def test_boundary_field_2d_axes_brute():
    vol = m.Volume(2, 2)
    spec = m.AnisotropicAxes(1.5, 2.5)
    R = 2_000_000
    trunc = 5.0 * R ** -0.5          # two horizontal rays each drop ~2 R^-0.5
    # height 4 puts rows 3 and 4 in the near zone of the vertical rays
    # pattern sites in the near zones (pinned extent 6) of the rows 1, -2, 0
    # and the columns 2, -1, 0 of the target sites; (3, 3) is on none of them
    patterned = m.dobrushin2d_bc(1).with_pattern(
        {(4, 1): -1, (-5, -2): 1, (3, 0): 1, (2, 6): -1, (-1, -3): 1, (0, 3): -1, (3, 3): -1})
    bcs = (m.dobrushin2d_bc(0), m.dobrushin2d_bc(1), m.dobrushin2d_bc(4), patterned)
    for x in [(0, 0), (2, 1), (-1, -2), (1, 2)]:
        brute = _ray_brute(bcs, lambda y: (y, x[1]), x[0], 1.5, 3, R) \
            + _ray_brute(bcs, lambda y: (x[0], y), x[1], 2.5, 3, R)
        for bc, want in zip(bcs, brute.tolist()):
            assert abs(m.boundary_field(vol, spec, bc, x) - want) < trunc


def test_boundary_field_requires_interior_site():
    with pytest.raises(ValueError):
        m.boundary_field(m.Volume(1, 2), m.PowerLaw(1.0, 1.5), m.plus_bc(), 5)


def test_boundary_field_2d_nearest_neighbor():
    vol = m.Volume(2, 1)
    spec = m.NearestNeighbor(2.0)
    bc = m.dobrushin2d_bc(0)
    # corner touches one exterior column site (above: +) and one row site
    assert m.boundary_field(vol, spec, bc, (1, 1)) == pytest.approx(4.0)
    assert m.boundary_field(vol, spec, bc, (0, 0)) == pytest.approx(0.0)
    assert m.boundary_field(vol, spec, bc, (0, -1)) == pytest.approx(-2.0)


def test_alternating_fill_rejected_in_2d():
    vol = m.Volume(2, 1)
    everywhere = m.BoundaryCondition(
        (m.RegionRule(m.Everywhere(), m.AlternatingFill()),), name="bad2d")
    # only the rows above 1 alternate: the tails of the first rows are constant,
    # so every line's fill must be checked
    above = m.BoundaryCondition(
        (m.RegionRule(m.HalfPlane("above", 1), m.AlternatingFill()),
         m.RegionRule(m.Everywhere(), m.ConstFill(1))), name="alternating-above")
    for bc in (everywhere, above):
        for spec in (m.PowerLaw(1.0, 3.0), m.AnisotropicAxes(1.5, "nn"),
                     m.AnisotropicAxes(1.5, 2.5)):
            with pytest.raises(ValueError, match="alternating fills are 1d-only"):
                m.boundary_field(vol, spec, bc, (0, 0))


def test_rules_of_the_other_dimension_rejected():
    # each pair used to reach a spin or region lookup first and raise TypeError,
    # or, for pattern sites, to be ignored by the 1d and axis-coupling fields
    one_d = (m.PowerLaw(1.0, 1.5), m.IsotropicMixed(1.0, 1.8), m.NearestNeighbor(1.0))
    two_d = (m.PowerLaw(1.0, 2.5), m.IsotropicMixed(1.0, 3.0), m.NearestNeighbor(1.0),
             m.AnisotropicAxes(1.5, "nn"), m.AnisotropicAxes(1.5, 2.5))
    cases = [
        (m.Volume(1, 2), one_d, (m.dobrushin2d_bc(0), m.dobrushin2d_bc(3)),
         "half-plane rule in a 1d boundary condition"),
        (m.Volume(2, 1), two_d, (m.dobrushin1d_bc(), m.frozen_interval_bc(-3, -1),
                                 m.left_neighborhood_bc(1, 4, 2)),
         "1d interval rule in a 2d boundary condition"),
        (m.Volume(2, 1), two_d, (m.alternating_bc(1), m.alternating_bc(-1)),
         "alternating fills are 1d-only"),
        (m.Volume(2, 1), two_d, (m.pattern_bc({2: -1}, m.plus_bc()),
                                 m.dobrushin2d_bc(0).with_pattern({(0, 3): 1, -4: 1})),
         r"pattern site -?\d in a 2d boundary condition"),
        (m.Volume(1, 2), one_d, (m.pattern_bc({(0, 3): -1}, m.plus_bc()),
                                 m.plus_bc().with_pattern({4: 1, (3, 0): -1})),
         r"pattern site \(\d, \d\) in a 1d boundary condition"),
    ]
    for vol, specs, bcs, message in cases:
        for spec in specs:
            for bc in bcs:
                with pytest.raises(ValueError, match=message):
                    m.boundary_field_vector(vol, spec, bc)


# ---------------------------------------------------------------------------
# Hamiltonian and kernel


def test_hamiltonian_single_site_plus():
    vol = m.Volume(1, 0)
    params = m.ModelParams(1.0, m.NearestNeighbor(1.0))
    assert m.hamiltonian(vol, params, m.plus_bc(), [1]) == pytest.approx(-2.0)


def test_hamiltonian_pair_counted_once():
    # three-site free chain: H = -(s0 s1 + s1 s2)
    vol = m.Volume(1, 1)
    params = m.ModelParams(1.0, m.NearestNeighbor(1.0))
    assert m.hamiltonian(vol, params, m.free_bc(), [1, 1, 1]) == pytest.approx(-2.0)
    assert m.hamiltonian(vol, params, m.free_bc(), [1, 1, -1]) == pytest.approx(0.0)


def test_hamiltonian_brute_oracle():
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.0, m.PowerLaw(0.8, 1.7))
    bc = m.alternating_bc()
    rng = np.random.default_rng(1)
    sites = vol.sites()
    for _ in range(20):
        cfg = m.random_configuration(vol, rng)
        H = 0.0
        for i, x in enumerate(sites):
            for y in sites[i + 1:]:
                H -= m.coupling_value(params.coupling, x, y) * cfg[vol.index(x)] * cfg[vol.index(y)]
            H -= cfg[vol.index(x)] * m.boundary_field(vol, params.coupling, bc, x)
        assert m.hamiltonian(vol, params, bc, cfg) == pytest.approx(H, abs=1e-12)


def test_field_vector_shares_one_cache_key():
    # 3-argument, keyword and single-site calls hit one entry
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.5))
    bc = m.plus_bc()
    m.log_partition.cache_clear()
    m.boundary_field_vector.cache_clear()
    m.log_partition(vol, params, bc)
    misses = m.boundary_field_vector.cache_info().misses
    m.hamiltonian(vol, params, bc, m.all_plus(vol))
    m.excess_energy(vol, params.coupling, bc)
    m.boundary_field_vector(vol, spec=params.coupling, bc=bc)
    m.boundary_field(vol, params.coupling, bc, 0)
    assert m.boundary_field_vector.cache_info().misses == misses


def test_field_cache_stays_within_its_byte_budget():
    # each L = 2048 vector is 32 KiB; 48 of them overflow the budget
    m.boundary_field_vector.cache_clear()
    vol = m.Volume(1, 2048)
    for i in range(48):
        m.boundary_field_vector(vol, m.PowerLaw(1.0, 1.2 + 0.01 * i), m.plus_bc())
        assert m.boundary_field_vector.cache_info().nbytes <= m.FIELD_CACHE_BYTES
    assert m.boundary_field_vector.cache_info().nbytes > m.FIELD_CACHE_BYTES // 2
    m.boundary_field_vector(vol, m.PowerLaw(1.0, 1.2), m.plus_bc())     # evicted
    assert m.boundary_field_vector.cache_info().misses == 49
    # a beta-ladder still reads the vector its first rung built
    from longrange_ising import probes
    probes.wetting_probe(1.6, 0.0, 4, 256)
    info = m.boundary_field_vector.cache_info()
    probes.wetting_probe(1.6, 3.0, 4, 256)
    assert m.boundary_field_vector.cache_info().misses == info.misses
    assert m.boundary_field_vector.cache_info().hits > info.hits


def test_coupling_matrix_cache_stays_within_its_byte_budget(monkeypatch):
    m.coupling_matrix.cache_clear()
    one = m.coupling_matrix(m.Volume(1, 32), m.PowerLaw(1.0, 1.5)).nbytes
    monkeypatch.setattr(m.coupling_matrix, "max_bytes", 3 * one)
    for i in range(8):
        spec = m.PowerLaw(1.0, 1.6 + 0.1 * i)
        J = m.coupling_matrix(m.Volume(1, 32), spec)
        assert m.coupling_matrix.cache_info().nbytes <= 3 * one
        assert m.coupling_matrix(m.Volume(1, 32), spec) is J        # newest is kept
    assert m.coupling_matrix.cache_info().nbytes == 3 * one
    # a matrix larger than the whole budget is built but not kept
    big = m.coupling_matrix(m.Volume(1, 64), m.PowerLaw(1.0, 1.5))
    assert big.shape == (129, 129)
    assert m.coupling_matrix.cache_info().nbytes == 3 * one
    m.coupling_matrix.cache_clear()


def test_byte_lru_cache_accounting_survives_threads():
    import sys
    import threading
    from longrange_ising.util import byte_lru_cache

    @byte_lru_cache(10 * 800)
    def table(k):
        return np.full(100, float(k))

    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        wrong.extend(int(k) for k in rng.integers(0, 25, 400) if table(int(k))[0] != k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    info = table.cache_info()
    assert info.hits + info.misses == 8 * 400
    assert info.nbytes == 10 * 800          # full, and no entry counted twice


def test_per_site_field_normalized_to_a_tuple():
    vol = m.Volume(1, 2)
    table = [0.1, -0.2, 0.3, 0.0, 0.25]
    logz = {kind: m.log_partition(vol, m.ModelParams(1.3, m.PowerLaw(1.0, 1.5), field=f),
                                  m.plus_bc())
            for kind, f in (("list", table), ("ndarray", np.array(table)),
                            ("tuple", tuple(table)))}
    assert logz["list"] == logz["ndarray"] == logz["tuple"]
    assert m.ModelParams(1.0, m.PowerLaw(1.0, 1.5), field=np.array(table)).field == tuple(table)
    with pytest.raises(ValueError, match="whole volume"):
        m.external_field_vector(m.Volume(1, 3), m.ModelParams(1.0, m.PowerLaw(1.0, 1.5),
                                                              field=table))


def test_global_flip_symmetry_eleven_sites_vectorized():
    # flipping every spin maps configuration index i to its bit complement,
    # so the flipped-boundary energy array must be the reverse of the original
    from longrange_ising.util import iter_spin_blocks
    vol = m.Volume(1, 5)
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.6))
    for bc in (m.plus_bc(), m.dobrushin1d_bc(), m.alternating_bc()):
        energies = {}
        for which, b in (("base", bc), ("flip", bc.flipped())):
            sys_ = m._reduce(vol, params, b, {})
            parts = [sys_.log_weights(S) for _, S in iter_spin_blocks(vol.n_sites)]
            energies[which] = -np.concatenate(parts) / params.beta
        assert np.max(np.abs(energies["base"] - energies["flip"][::-1])) < 1e-10


def test_translation_covariance():
    # master pattern on Z; shifting the window and the exterior together
    # leaves the energy unchanged
    # the centered-coordinate machinery must reproduce the energy of an
    # off-center window of one fixed infinite pattern (random core, plus tail)
    rng = np.random.default_rng(3)
    core = {i: (int(1 - 2 * rng.integers(0, 2)) if abs(i) <= 15 else 1)
            for i in range(-60, 61)}

    def psi(i):
        return core[i] if -60 <= i <= 60 else 1

    L, alpha = 2, 1.7
    spec = m.PowerLaw(1.0, alpha)
    params = m.ModelParams(1.0, spec)
    vol = m.Volume(1, L)
    Y = 500_000

    def brute_window(shift):
        window = list(range(shift - L, shift + L + 1))
        ext = np.concatenate([np.arange(shift - Y, shift - L),
                              np.arange(shift + L + 1, shift + Y)])
        ext_spins = np.where(np.abs(ext) <= 60,
                             [psi(int(v)) for v in np.clip(ext, -60, 60)], 1.0)
        H = 0.0
        for a, x in enumerate(window):
            for y in window[a + 1:]:
                H -= abs(x - y) ** -alpha * psi(x) * psi(y)
            H -= psi(x) * float(np.sum(np.abs(ext - x) ** -alpha * ext_spins))
        return H

    trunc = 2 * (2 * L + 1) * 2.0 * (Y - L - 1) ** (1 - alpha) / (alpha - 1)
    for shift in (0, 5, -4):
        cfg = np.array([psi(i + shift) for i in range(-L, L + 1)], dtype=np.int8)
        pattern = {i: psi(i + shift) for i in range(-40, 41) if not -L <= i <= L}
        bc = m.pattern_bc(pattern, m.plus_bc())
        recentered = m.hamiltonian(vol, params, bc, cfg)
        assert recentered == pytest.approx(brute_window(shift), abs=trunc)


def test_energy_delta_consistency():
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.3, m.IsotropicMixed(2.0, 1.6))
    bc = m.dobrushin1d_bc()
    rng = np.random.default_rng(2)
    for _ in range(200):
        cfg = m.random_configuration(vol, rng)
        site = int(rng.integers(-3, 4))
        flipped = cfg.copy()
        flipped[vol.index(site)] *= -1
        direct = m.hamiltonian(vol, params, bc, flipped) - m.hamiltonian(vol, params, bc, cfg)
        assert m.energy_delta(vol, params, bc, cfg, site) == pytest.approx(direct, abs=1e-9)


def test_energy_delta_one_site():
    vol = m.Volume(1, 0)
    params = m.ModelParams(1.0, m.NearestNeighbor(1.0))
    assert m.energy_delta(vol, params, m.plus_bc(), [1], 0) == pytest.approx(4.0)


def test_energy_delta_involution():
    vol = m.Volume(1, 2)
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.5))
    cfg = np.array([1, -1, 1, 1, -1], dtype=np.int8)
    d1 = m.energy_delta(vol, params, m.plus_bc(), cfg, 1)
    cfg2 = cfg.copy()
    cfg2[vol.index(1)] *= -1
    d2 = m.energy_delta(vol, params, m.plus_bc(), cfg2, 1)
    assert d1 + d2 == pytest.approx(0.0, abs=1e-12)


def test_kernel_infinite_temperature_uniform():
    vol = m.Volume(1, 2)
    params = m.ModelParams(0.0, m.PowerLaw(1.0, 1.5))
    cfg = np.array([1, -1, 1, -1, 1], dtype=np.int8)
    assert m.specification_kernel(vol, params, m.alternating_bc(), cfg) == \
        pytest.approx(2.0 ** -vol.n_sites, abs=1e-15)


def test_kernel_normalization_and_positivity():
    ok, detail = ROW["kernel-normalization"](
        [(m.Volume(1, 2), m.ModelParams(2.0, m.PowerLaw(1.0, 1.8)), m.dobrushin1d_bc())])
    assert ok, detail


def test_kernel_one_site_closed_form():
    vol = m.Volume(1, 0)
    for beta in (0.3, 1.0, 2.5):
        params = m.ModelParams(beta, m.NearestNeighbor(1.0))
        p = m.specification_kernel(vol, params, m.plus_bc(), [1])
        want = math.exp(2 * beta) / (math.exp(2 * beta) + math.exp(-2 * beta))
        assert p == pytest.approx(want, abs=1e-14)


def test_kernel_capacity_error():
    vol = m.Volume(2, 2)  # 25 sites
    params = m.ModelParams(1.0, m.AnisotropicAxes(1.5, "nn"))
    with pytest.raises(CapacityError):
        m.log_partition(vol, params, m.plus_bc())


# ---------------------------------------------------------------------------
# excess energy and decimation


def test_excess_energy_nn():
    for L in (0, 1, 5, 30):
        got = m.excess_energy(m.Volume(1, L), m.NearestNeighbor(1.0))
        assert got == pytest.approx(4.0, abs=1e-12)


def test_excess_energy_brute():
    L, alpha = 6, 1.5
    vol = m.Volume(1, L)
    got = m.excess_energy(vol, m.PowerLaw(1.0, alpha))
    M = 3_000_000
    brute = 0.0
    for x in range(-L, L + 1):
        ks = np.arange(1, M, dtype=np.float64)
        brute += float(np.sum((ks + (L - x)) ** -alpha) + np.sum((ks + (L + x)) ** -alpha))
    brute *= 2.0
    trunc = 2.0 * 2 * (2 * L + 1) * 2.0 * (M - 1) ** (1 - alpha) / (alpha - 1)
    assert brute < got < brute + trunc


def test_excess_energy_slope_alpha_15():
    from longrange_ising.contours import excess_energy_exponent_fit
    fit = excess_energy_exponent_fit(1.5, [8, 16, 32, 64, 128])
    assert abs(fit - 0.5) <= 0.05


def test_excess_energy_bounded_alpha_3():
    values = [m.excess_energy(m.Volume(1, L), m.PowerLaw(1.0, 3.0))
              for L in (16, 32, 64, 128, 256)]
    assert max(values) <= values[-1] * 1.01


def test_decimate_alternating_to_constant():
    vol = m.Volume(1, 4)
    cfg = np.array([(-1) ** i for i in range(-4, 5)], dtype=np.int8)
    out_vol, out = m.decimate(vol, cfg)
    assert out_vol.half_width == 2
    assert np.all(out == 1)


def test_decimate_constant_fixed_point():
    vol = m.Volume(1, 5)
    out_vol, out = m.decimate(vol, m.all_plus(vol))
    assert np.all(out == 1)
    out_vol2, out2 = m.decimate(out_vol, out)
    assert np.all(out2 == 1)
    assert out_vol2.half_width == 1


def test_volume_index_round_trip():
    for vol in (m.Volume(1, 4), m.Volume(2, 3)):
        assert vol.n_sites == (2 * vol.half_width + 1) ** vol.dimension
        for i, site in enumerate(vol.sites()):
            assert vol.index(site) == i
            assert vol.site(i) == site


def test_frozen_interval_bc_matches_conditional_freezing():
    from longrange_ising import exact as ex
    outer = m.Volume(1, 6)
    inner = m.Volume(1, 1)
    params = m.ModelParams(1.5, m.PowerLaw(1.0, 1.6))
    frozen = {s: -1 for s in range(-6, -1)}
    frozen.update({s: 1 for s in range(2, 7)})
    via_cond = ex.conditional_expectation(outer, params, m.plus_bc(), frozen,
                                          ex.spin_observable(outer, 0))
    bc = m.frozen_interval_bc(-6, -2)
    via_bc = ex.expectation(inner, params, bc, ex.spin_observable(inner, 0))
    assert via_cond == pytest.approx(via_bc, abs=1e-12)
