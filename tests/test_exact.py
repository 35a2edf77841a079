"""Enumeration engine: partition functions, expectations, interface law,
consistency checks, correlation inequalities."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from longrange_ising import contours as ct
from longrange_ising import exact as ex
from longrange_ising import mcmc
from longrange_ising import model as m
from longrange_ising import probes
from longrange_ising.util import CapacityError, iter_spin_blocks, spin_rows


def brute_log_partition(vol, params, bc, site_order=None):
    """Independent oracle: python loop over itertools.product in any order."""
    sites = site_order or vol.sites()
    fields = {x: m.boundary_field(vol, params.coupling, bc, x) for x in sites}
    ext = m.external_field_vector(vol, params)
    terms = []
    for bits in itertools.product((-1, 1), repeat=vol.n_sites):
        spin = dict(zip(sites, bits))
        H = 0.0
        for i, x in enumerate(sites):
            for y in sites[i + 1:]:
                H -= m.coupling_value(params.coupling, x, y) * spin[x] * spin[y]
            H -= spin[x] * (fields[x] + ext[vol.index(x)])
        terms.append(-params.beta * H)
    mx = max(terms)
    return mx + math.log(sum(math.exp(t - mx) for t in terms))


# ---------------------------------------------------------------------------
# partition function


def test_partition_beta_zero():
    for L in (0, 1, 2):
        vol = m.Volume(1, L)
        params = m.ModelParams(0.0, m.PowerLaw(1.0, 1.5))
        assert math.exp(m.log_partition(vol, params, m.plus_bc())) == \
            pytest.approx(2.0 ** vol.n_sites, rel=1e-13)


def test_partition_two_bond_closed_form():
    # three-site free nearest-neighbor chain at beta J = ln 2:
    # Z = sum over bond-energy values = 4 + 1 + .25 + 1 + 1 + .25 + 1 + 4
    vol = m.Volume(1, 1)
    params = m.ModelParams(math.log(2.0), m.NearestNeighbor(1.0))
    assert math.exp(m.log_partition(vol, params, m.free_bc())) == \
        pytest.approx(12.5, rel=1e-13)


def test_partition_flip_symmetric():
    vol = m.Volume(1, 2)
    params = m.ModelParams(1.3, m.PowerLaw(1.0, 1.7))
    assert m.log_partition(vol, params, m.plus_bc()) == pytest.approx(
        m.log_partition(vol, params, m.minus_bc()), abs=1e-12)


def test_partition_site_order_invariance():
    import random
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.9, m.PowerLaw(1.0, 1.6))
    order = vol.sites()
    random.Random(7).shuffle(order)
    got = m.log_partition(vol, params, m.alternating_bc())
    assert got == pytest.approx(
        brute_log_partition(vol, params, m.alternating_bc(), order), abs=1e-11)


def test_partition_capacity():
    vol = m.Volume(2, 2)
    params = m.ModelParams(1.0, m.AnisotropicAxes(1.5, "nn"))
    with pytest.raises(CapacityError):
        m.log_partition(vol, params, m.plus_bc())


# ---------------------------------------------------------------------------
# split enumeration kernel


def logsumexp(a: np.ndarray) -> float:
    """Numerically stable log(sum(exp(a)))."""
    a = np.asarray(a, dtype=np.float64)
    top = np.max(a)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(a - top))))


# (n_free, L, n_frozen), L a 1d half-width or (2, half-width) for a square;
# the kernel's blocks are (n + 1) // 3, n - (n + 1) // 3 - n // 3 and n // 3
# sites, so n = 0, 1, 2 leave blocks empty, n = 17 has unequal blocks 6, 6, 5,
# and the squares split into bands of rows
KERNEL_CASES = [(0, 1, 3), (1, 0, 0), (2, 1, 1), (7, 3, 0), (7, 4, 2), (8, 4, 1),
                (13, 6, 0), (13, 7, 2), (16, 8, 1), (17, 8, 0), (18, 9, 1),
                pytest.param(9, (2, 1), 0, id="9-2d1-0"),
                pytest.param(14, (2, 2), 11, id="14-2d2-11")]


@pytest.mark.parametrize("beta", [0.0, 1.1, 40.0, 200.0])
@pytest.mark.parametrize("n_free,L,n_frozen", KERNEL_CASES)
def test_split_kernel_matches_brute_force(monkeypatch, n_free, L, n_frozen, beta):
    # a 4 KiB tile budget streams the fold in many tiles; at beta = 200 most
    # block-pair weights underflow against their row maxima
    monkeypatch.setattr(m, "TILE_BYTES", 4096)
    vol = m.Volume(*L) if isinstance(L, tuple) else m.Volume(1, L)
    spread = vol.sites()[::2] + vol.sites()[1::2]
    frozen = {s: (-1) ** i for i, s in enumerate(spread[:n_frozen])}
    if vol.dimension == 1:
        params = m.ModelParams(beta, m.PowerLaw(1.0, 1.5), field=0.3)
        sys_ = m._reduce(vol, params, m.alternating_bc(), frozen)
    else:
        params = m.ModelParams(beta, m.PowerLaw(1.0, 3.5), field=0.3)
        sys_ = m._reduce(vol, params, m.dobrushin2d_bc(), frozen)
    assert sys_.free_idx.size == n_free
    S = np.concatenate([b for _, b in iter_spin_blocks(n_free)]).astype(np.float64)
    lw = sys_.log_weights(S)
    log_z = logsumexp(lw)
    p = np.exp(lw - log_z)
    got = sys_.sums()
    assert got.log_z == pytest.approx(log_z, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(got.mean, S.T @ p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.second, (S.T * p) @ S, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.fold(lambda start, w: S[start:start + w.size].T @ w),
                               S.T @ p, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", list(itertools.permutations(("mean", "second", "fold"))))
def test_split_kernel_reads_in_any_order(monkeypatch, order):
    # the moments are computed when first read and the fold streams the
    # same matrices: on one kernel, any order of reads gives the bytes of
    # fresh kernels; log_partition is the kernel's log Z, bit for bit
    monkeypatch.setattr(m, "TILE_BYTES", 4096)
    params = m.ModelParams(1.3, m.PowerLaw(1.0, 1.5), field=0.2)

    def read(kernel, what):
        if what != "fold":
            return getattr(kernel, what).tobytes()
        n = kernel.S.shape[1]
        return kernel.fold(lambda start, p: spin_rows(n, start, start + p.size).T @ p).tobytes()

    for L, bc in ((2, m.plus_bc()), (4, m.dobrushin1d_bc()), (5, m.alternating_bc())):
        vol = m.Volume(1, L)
        sys_ = m._reduce(vol, params, bc)
        kernel = sys_.sums()
        assert [read(kernel, what) for what in order] \
            == [read(sys_.sums(), what) for what in order]
        assert m.log_partition(vol, params, bc) == m.SplitSums(sys_.J_ff, sys_.c_f, sys_.beta).log_z


def test_split_kernel_refuses_sums_beyond_its_scaling():
    # Dobrushin ends pull Y and W apart against their coupling: at beta 3000,
    # 2 beta ||J_YW||_1 is about 1.3e4 and the favoured (y, w) pair sits that
    # far below its C row's maximum, so the shifted Z underflows
    vol = m.Volume(1, 8)
    sys_ = m._reduce(vol, m.ModelParams(3000.0, m.PowerLaw(1.0, 1.1), field=0.3),
                      m.dobrushin1d_bc(), {})
    with pytest.raises(CapacityError):
        sys_.sums()


@pytest.mark.parametrize("n_free", [22, 24])
def test_site_means_memory_bounded(n_free):
    import tracemalloc
    vol = m.Volume(1, 12)
    frozen = {s: 1 for s in vol.sites()[:vol.n_sites - n_free]}
    tracemalloc.start()
    try:
        ex.conditional_site_means(vol, m.ModelParams(1.0, m.PowerLaw(1.0, 1.5)),
                                  m.plus_bc(), frozen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_split_table_is_one_read_only_table_per_size():
    # every kernel of n sites reads one cached float table: the 2**k spin
    # rows of each block's k sites, stacked Y, X, W, zero off the block
    params, bc = m.ModelParams(0.9, m.PowerLaw(1.0, 1.5), field=0.1), m.plus_bc()

    def kernel(L):
        return m._reduce(m.Volume(1, L), params, bc).sums()

    for L in (0, 1, 3, 8):
        first, second = kernel(L), kernel(L)
        S, n = first.S, 2 * L + 1
        assert second.S is S and not S.flags.writeable
        assert S.dtype == np.float64 and S.flags.c_contiguous
        sizes = ((n + 1) // 3, n - (n + 1) // 3 - n // 3, n // 3)
        want, row, col = np.zeros((sum(1 << k for k in sizes), n)), 0, 0
        for k in sizes:
            want[row:row + (1 << k), col:col + k] = spin_rows(k, 0, 1 << k)
            row, col = row + (1 << k), col + k
        assert np.array_equal(S, want)
    # a table rebuilt after another size, and one read warm, give the same bytes
    def moments(k):
        return k.log_z, k.mean.tobytes(), k.second.tobytes()

    warm = moments(kernel(8))
    kernel(5)
    m._split_table.cache_clear()
    assert moments(kernel(8)) == warm == moments(kernel(8))


def test_split_kernel_leaves_the_reduced_system_alone():
    # the kernel's weight matrices are built in place; the reduced system's
    # J_ff (shared by a sampler's replica set) and c_f must stay as they were
    vol = m.Volume(1, 6)
    sys_ = m._reduce(vol, m.ModelParams(1.2, m.PowerLaw(1.0, 1.5), field=0.2),
                     m.dobrushin1d_bc(), {-6: 1, 2: -1})
    J_ff, c_f = sys_.J_ff.copy(), sys_.c_f.copy()
    kernel = sys_.sums()
    kernel.mean, kernel.second
    assert np.array_equal(sys_.J_ff, J_ff) and np.array_equal(sys_.c_f, c_f)


def test_kernel_peak_at_the_site_cap():
    # 24 free sites, table and fields warm: building the kernel and reading
    # its site means peaked at 2882 KiB (tracemalloc) when every call rebuilt
    # the spin table and each weight-matrix step allocated a temporary; with
    # one cached table and in-place matrices the peak is 2574 KiB.  2.7 MiB
    # lies between the two, so a temporary that comes back fails here.
    vol = m.Volume(1, 12)
    sys_ = m._reduce(vol, m.ModelParams(1.0, m.PowerLaw(1.0, 1.5)), m.plus_bc(),
                     {vol.sites()[0]: 1})
    assert sys_.free_idx.size == 24
    sys_.sums().mean
    tracemalloc.start()
    try:
        sys_.sums().mean
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.7 * (1 << 20), peak


def test_conditional_pair_expectation_memory_bounded():
    # the wetting geometry at N = 2048, L = 4: 4105 sites, 18 of them free;
    # a pair moment reads one entry, never a matrix over the whole volume
    N, vol = 2048, m.Volume(1, 2052)
    frozen = {s: -1 if -N <= s <= -1 else 1 for s in vol.sites() if -N <= s <= -1 or s > 13}
    params, bc = m.ModelParams(4.0, m.PowerLaw(1.0, 1.6)), m.plus_bc()
    means = ex.conditional_site_means(vol, params, bc, frozen)     # warms the field cache
    assert len(means) == 18
    tracemalloc.start()
    try:
        free_pair = ex.conditional_expectation(vol, params, bc, frozen,
                                               ex.pair_observable(vol, 0, -2050))
        mixed = ex.conditional_expectation(vol, params, bc, frozen,
                                           ex.pair_observable(vol, 0, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert mixed == -means[0]
    assert free_pair == ex.conditional_expectation(vol, params, bc, frozen,
                                                   ex.pair_observable(vol, -2050, 0))
    assert -1.0 <= free_pair <= 1.0


# ---------------------------------------------------------------------------
# expectations


def test_expectation_beta_zero_and_flip():
    vol = m.Volume(1, 3)
    obs = ex.spin_observable(vol, 1)
    p0 = m.ModelParams(0.0, m.PowerLaw(1.0, 1.8))
    assert ex.expectation(vol, p0, m.dobrushin1d_bc(), obs) == pytest.approx(0.0, abs=1e-14)
    p = m.ModelParams(1.1, m.PowerLaw(1.0, 1.8))
    assert ex.expectation(vol, p, m.plus_bc(), obs) == pytest.approx(
        -ex.expectation(vol, p, m.minus_bc(), obs), abs=1e-12)


def test_expectation_regression_constant():
    # frozen from the enumeration oracle at build time
    vol = m.Volume(1, 4)
    params = m.ModelParams(2.0, m.PowerLaw(1.0, 1.8))
    got = ex.expectation(vol, params, m.plus_bc(), ex.spin_observable(vol, 0))
    assert got == pytest.approx(0.999999421565796, abs=1e-12)


def test_expectation_within_observable_range():
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.7, m.PowerLaw(1.0, 1.4))
    for obs in (ex.spin_observable(vol, 0), ex.magnetization_observable(vol),
                ex.pair_observable(vol, -1, 2)):
        v = ex.expectation(vol, params, m.alternating_bc(), obs)
        assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


@pytest.mark.parametrize("vol", [m.Volume(1, 3), m.Volume(2, 8)])
def test_sampled_observables_block_form_matches_row_form(vol):
    # the sampler reads these through evaluate_block: its samples must be
    # the row form's floats, bit for bit
    S = np.random.default_rng(3).choice(np.array([-1, 1], dtype=np.int8),
                                        size=(500, vol.n_sites))
    first, last = vol.sites()[0], vol.sites()[-1]
    for obs in (ex.spin_observable(vol, first), ex.spin_observable(vol, last),
                ex.pair_observable(vol, first, last), ex.magnetization_observable(vol)):
        block = obs.evaluate_block(S)
        assert block.dtype == np.float64
        assert block.tobytes() == np.array([obs.fn(row) for row in S]).tobytes(), obs.name


def test_conditional_expectation_frozen_everything():
    vol = m.Volume(1, 2)
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.5))
    frozen = {s: (1 if s % 2 == 0 else -1) for s in vol.sites()}
    got = ex.conditional_expectation(vol, params, m.plus_bc(), frozen,
                                     ex.spin_observable(vol, 1))
    assert got == -1.0


def test_conditional_expectation_empty_matches_expectation():
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.4, m.PowerLaw(1.0, 1.6))
    obs = ex.magnetization_observable(vol)
    assert ex.conditional_expectation(vol, params, m.dobrushin1d_bc(), {}, obs) == \
        pytest.approx(ex.expectation(vol, params, m.dobrushin1d_bc(), obs), abs=1e-13)


def test_conditional_wetting_direction():
    # freezing a minus interval pulls the origin down (ferromagnetic order)
    vol = m.Volume(1, 3)
    params = m.ModelParams(3.0, m.PowerLaw(1.0, 1.6))
    obs = ex.spin_observable(vol, 0)
    frozen = {-3: -1, -2: -1, -1: -1}
    cond = ex.conditional_expectation(vol, params, m.plus_bc(), frozen, obs)
    unc = ex.expectation(vol, params, m.plus_bc(), obs)
    assert cond < unc


def test_conditional_site_means_match_observables():
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.1, m.PowerLaw(1.0, 1.5))
    frozen = {2: -1}
    means = ex.conditional_site_means(vol, params, m.plus_bc(), frozen)
    for s in means:
        direct = ex.conditional_expectation(vol, params, m.plus_bc(), frozen,
                                            ex.spin_observable(vol, s))
        assert means[s] == pytest.approx(direct, abs=1e-12)


def test_conditional_site_means_leave_the_matrix_cache_alone():
    # the reduced system builds its free rows itself: a fresh alpha must not
    # park a coupling matrix in the cache, for the exact kernels, log Z or
    # the sampler
    vol = m.Volume(1, 4)
    params = m.ModelParams(1.1, m.PowerLaw(1.0, 1.4321))
    info = m.coupling_matrix.cache_info()
    ex.conditional_site_means(vol, params, m.dobrushin1d_bc(), {3: -1})
    m.log_partition(vol, params, m.dobrushin1d_bc())
    st = mcmc.sampler_new(vol, params, m.dobrushin1d_bc(), seed=0, frozen={3: -1})
    mcmc.estimate_site_means(st, [0], 200, 20)
    assert m.coupling_matrix.cache_info() == info


def test_conditional_equivalent_to_frozen_boundary():
    # conditioning on spins equals treating them as exterior pattern
    inner = m.Volume(1, 1)
    outer = m.Volume(1, 3)
    params = m.ModelParams(1.2, m.PowerLaw(1.0, 1.5))
    frozen = {-3: -1, -2: 1, 2: -1, 3: 1}
    via_conditioning = ex.conditional_expectation(outer, params, m.plus_bc(),
                                                  frozen, ex.spin_observable(outer, 0))
    bc = m.pattern_bc(frozen, m.plus_bc())
    via_boundary = ex.expectation(inner, params, bc, ex.spin_observable(inner, 0))
    assert via_conditioning == pytest.approx(via_boundary, abs=1e-12)


# ---------------------------------------------------------------------------
# interface-point law


def test_interface_grid_shape():
    law = ex.interface_distribution(m.Volume(1, 3),
                                    m.ModelParams(1.0, m.PowerLaw(1.0, 1.5)))
    assert len(law.grid) == 8
    assert law.grid[0] == pytest.approx(-1 - 1 / 6)
    assert law.grid[-1] == pytest.approx(1 + 1 / 6)


def test_interface_symmetry_and_normalization():
    vol = m.Volume(1, 5)
    law = ex.interface_distribution(vol, m.ModelParams(2.0, m.PowerLaw(1.0, 1.5)))
    d = law.as_dict()
    assert sum(law.masses) == pytest.approx(1.0, abs=1e-12)
    for t in law.grid:
        assert d[t] == pytest.approx(d[-t], abs=1e-12)
        assert d[t] > 0.0


@pytest.mark.parametrize("L", range(1, 7))
def test_interface_points_match_scalar_oracle(L):
    vol = m.Volume(1, L)
    S = np.concatenate([b for _, b in iter_spin_blocks(vol.n_sites)])
    expected = [ct.interface_point(vol, row) for row in S]
    assert ct.interface_points(vol, S).tolist() == expected


@pytest.mark.parametrize("L", range(1, 8))
def test_interface_index_table_matches_interface_points(L):
    vol = m.Volume(1, L)
    table = ex._interface_index_table(L)
    assert table.dtype == np.int8 and not table.flags.writeable
    S = np.concatenate([b for _, b in iter_spin_blocks(vol.n_sites)])
    assert table.tolist() == (ct.interface_points(vol, S) + L + 0.5).tolist()
    if L <= 4:
        grid = ex.theta_grid(L)
        assert [grid[k] for k in table] == [ct.interface_point(vol, row) / L for row in S]


def test_interface_law_over_many_tiles_matches_brute_force(monkeypatch):
    # a 4 KiB tile budget streams the n = 9 law in eight tiles, one W row each
    monkeypatch.setattr(m, "TILE_BYTES", 4096)
    vol = m.Volume(1, 4)
    params = m.ModelParams(1.3, m.PowerLaw(1.0, 1.6), field=0.2)
    law = ex.interface_distribution(vol, params)
    S = np.concatenate([b for _, b in iter_spin_blocks(vol.n_sites)])
    lw = m._reduce(vol, params, m.dobrushin1d_bc()).log_weights(S)
    p = np.exp(lw - logsumexp(lw))
    brute = {t: 0.0 for t in law.grid}
    for row, w in zip(S, p):
        brute[ct.interface_point(vol, row) / vol.half_width] += w
    np.testing.assert_allclose(law.masses, [brute[t] for t in law.grid], rtol=0, atol=1e-14)


@pytest.mark.parametrize("bc", [m.plus_bc(), m.minus_bc(), m.dobrushin1d_bc().flipped(),
                                m.alternating_bc()])
def test_interface_law_rejects_other_boundaries(bc):
    with pytest.raises(ValueError):
        ex.interface_distribution(m.Volume(1, 3), m.ModelParams(1.0, m.PowerLaw(1.0, 1.5)), bc)


def test_interface_beta_zero_counting():
    vol = m.Volume(1, 4)
    law = ex.interface_distribution(vol, m.ModelParams(0.0, m.PowerLaw(1.0, 1.5)))
    counts = {t: 0 for t in law.grid}
    for bits in itertools.product((-1, 1), repeat=vol.n_sites):
        cfg = np.array(bits, dtype=np.int8)
        counts[ct.interface_point(vol, cfg) / vol.half_width] += 1
    for t in law.grid:
        assert law.as_dict()[t] == pytest.approx(counts[t] / 2 ** vol.n_sites, abs=1e-12)


def test_interface_central_dominance_shape():
    # log law decreases away from the center, matching the sign of the
    # droplet-volume profile (1+t)^(2-a) + (1-t)^(2-a)
    vol = m.Volume(1, 6)
    alpha = 1.5
    law = ex.interface_distribution(vol, m.ModelParams(3.0, m.PowerLaw(1.0, alpha)))
    d = law.as_dict()
    near_zero = 0.5 * (d[0.5 / 6] + d[-0.5 / 6])
    near_half = 0.5 * (d[2.5 / 6] + d[-2.5 / 6])
    f = lambda t: (1 + t) ** (2 - alpha) + (1 - t) ** (2 - alpha)
    assert (near_zero - near_half) * (f(0.0) - f(0.5)) > 0.0


# ---------------------------------------------------------------------------
# DLR, GKS, FKG, duplicate-system inequality


@pytest.mark.parametrize("beta,bc_name", [(0.0, "alternating"), (2.0, "plus"),
                                          (1.0, "dobrushin")])
def test_dlr_small(beta, bc_name):
    bc = {"alternating": m.alternating_bc(), "plus": m.plus_bc(),
          "dobrushin": m.dobrushin1d_bc()}[bc_name]
    params = m.ModelParams(beta, m.PowerLaw(1.0, 1.5))
    dev = ex.dlr_consistency_check(m.Volume(1, 3), m.Volume(1, 1), params, bc)
    assert dev <= 1e-10


def test_dlr_identical_volumes():
    params = m.ModelParams(1.5, m.PowerLaw(1.0, 1.5))
    dev = ex.dlr_consistency_check(m.Volume(1, 2), m.Volume(1, 2), params, m.plus_bc())
    assert dev <= 1e-12


def test_dlr_nested_14_sites():
    params = m.ModelParams(2.0, m.PowerLaw(1.0, 1.5))
    dev = ex.dlr_consistency_check(m.Volume(1, 6), m.Volume(1, 2), params,
                                   m.dobrushin1d_bc())
    assert dev <= 1e-10


def test_dlr_memory_bounded():
    # n = 19: each float array over all 2**19 configurations would take 4 MiB
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.5))
    tracemalloc.start()
    try:
        dev = ex.dlr_consistency_check(m.Volume(1, 9), m.Volume(1, 4), params,
                                       m.alternating_bc())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dev <= 1e-10
    assert peak < 16 << 20


def test_dlr_rejects_bad_nesting():
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.5))
    with pytest.raises(ValueError):
        ex.dlr_consistency_check(m.Volume(1, 2), m.Volume(1, 3), params, m.plus_bc())


def test_gks_beta_zero_covariance():
    vol = m.Volume(1, 2)
    params = m.ModelParams(0.0, m.PowerLaw(1.0, 1.8))
    slack = ex.gks_check(vol, params, m.plus_bc(), [(-1, 1), (0, 2)])
    assert slack == pytest.approx(0.0, abs=1e-13)


def test_gks_positive_slack():
    vol = m.Volume(1, 4)
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.8))
    pairs = [(x, y) for x in vol.sites() for y in vol.sites() if x < y]
    assert ex.gks_check(vol, params, m.plus_bc(), pairs) >= -1e-12


def test_gks_rejects_negative_environment():
    vol = m.Volume(1, 2)
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.8))
    with pytest.raises(ValueError):
        ex.gks_check(vol, params, m.minus_bc(), [(0, 1)])
    with pytest.raises(ValueError):
        ex.gks_check(vol, m.ModelParams(1.0, m.PowerLaw(1.0, 1.8), field=-0.2),
                     m.plus_bc(), [(0, 1)])


def test_fkg_sandwich_alternating():
    vol = m.Volume(1, 4)
    params = m.ModelParams(2.0, m.PowerLaw(1.0, 1.5))
    assert ex.fkg_sandwich_check(vol, params, ex.spin_observable(vol, 0),
                                 m.alternating_bc())


def test_fkg_upper_bound_tight_at_plus():
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.5, m.PowerLaw(1.0, 1.6))
    obs = ex.spin_observable(vol, 0)
    hi = ex.expectation(vol, params, m.plus_bc(), obs)
    mid = ex.expectation(vol, params, m.plus_bc(), obs)
    assert mid == pytest.approx(hi, abs=1e-14)
    assert ex.fkg_sandwich_check(vol, params, obs, m.plus_bc())


def test_fkg_randomized_battery():
    rng = np.random.default_rng(19)
    vol = m.Volume(1, 4)
    params = m.ModelParams(1.3, m.PowerLaw(1.0, 1.6))
    for _ in range(100):
        w = rng.random(vol.n_sites)
        obs = (ex.increasing_observable(vol, w) if rng.random() < 0.5
               else ex.increasing_observable(vol, w, threshold=float(rng.normal())))
        pattern = {s: int(1 - 2 * rng.integers(0, 2))
                   for s in vol.sites() if rng.random() < 0.4}
        bc = m.pattern_bc(pattern, m.alternating_bc())
        assert ex.fkg_sandwich_check(vol, params, obs, bc)


def test_duplicate_inequality_beta_zero():
    r = probes.rigidity_check(1.5, "nn", 0.0, 1)
    assert r.verdicts["inequality"]
    for x in (-1, 0, 1):
        assert r.value(f"line0[{x}]") == pytest.approx(0.0, abs=1e-13)
        assert r.value(f"chain[{x}]") == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("beta", [2.0, 4.0])
def test_duplicate_inequality_ordered(beta):
    r = probes.rigidity_check(1.5, "nn", beta, 1)
    assert r.verdicts["inequality"]
    if beta >= 4.0:
        assert r.verdicts["line0_positive"]
