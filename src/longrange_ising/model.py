"""Lattices, coupling families, boundary conditions, and Hamiltonians.

Volumes are centered boxes [-L, L] (1d) or ([-L, L] cap Z)^2 (2d).  Interior
pair sums count each unordered pair once.  Boundary fields are exact sums
of analytic tails (Euler-Maclaurin corrected Hurwitz-type sums), accurate to
better than 1e-10 absolute.  Every unbounded tail goes through one ray
routine (_ray_field), which reads the region rules alone and adds one tail
per cut where a region fill changes; each finite pattern site adds its own
coupling row once.  site_fields adds the external field to the boundary
field: the static field that every kernel and sampler reads through _reduce.

All public objects are immutable (frozen dataclasses over hashable fields),
so derived arrays can be cached and shared freely across workers.  Tables
derived from a reduced system are built when first read, as the moments of
its enumeration kernel (SplitSums) and the sampler's flip table are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Union

import numpy as np

from .util import CapacityError, ENUMERATION_SITE_CAP, byte_lru_cache, iter_spin_blocks

Site = Union[int, tuple]

#: Smallest summand base left to the Euler-Maclaurin closed tail; smaller
#: bases are summed directly.
EM_CROSSOVER = 64

#: Bytes of one streamed fold tile of the split enumeration (SplitSums.fold).
TILE_BYTES = 16 << 20

#: Largest number of sites in a dense coupling matrix: the whole volume for
#: coupling_matrix, the free sites of a sampler's reduced system (_reduce).
MATRIX_SITE_CAP = 4096

#: Bytes of one block of free-site coupling rows in _reduce (two rows at
#: 4096 sites), so the broadcast behind it and its masks stay small.
ROW_BLOCK_BYTES = 64 << 10

#: Byte budgets of the caches of coupling matrices (one 4096-site matrix is
#: 128 MiB) and boundary-field vectors (8 vectors at L = 2048; a beta-ladder
#: reads its vector right after building it).
MATRIX_CACHE_BYTES = 256 << 20
FIELD_CACHE_BYTES = 256 << 10

#: Bytes of one block of coupling_matrix rows.
NEAR_BLOCK_BYTES = 4 << 20


# ---------------------------------------------------------------------------
# volumes


@dataclass(frozen=True)
class Volume:
    """Centered finite box: sites [-L, L] in 1d, ([-L, L] cap Z)^2 in 2d."""

    dimension: int
    half_width: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")

    @property
    def side(self) -> int:
        return 2 * self.half_width + 1

    @property
    def n_sites(self) -> int:
        return self.side ** self.dimension

    def sites(self) -> list:
        L = self.half_width
        if self.dimension == 1:
            return list(range(-L, L + 1))
        return [(x1, x2) for x1 in range(-L, L + 1) for x2 in range(-L, L + 1)]

    def index(self, site: Site) -> int:
        L = self.half_width
        if self.dimension == 1:
            if not -L <= site <= L:
                raise ValueError(f"site {site} outside volume")
            return site + L
        x1, x2 = site
        if not (-L <= x1 <= L and -L <= x2 <= L):
            raise ValueError(f"site {site} outside volume")
        return (x1 + L) * self.side + (x2 + L)

    def site(self, index: int) -> Site:
        L = self.half_width
        if self.dimension == 1:
            return index - L
        return (index // self.side - L, index % self.side - L)

    def contains(self, site: Site) -> bool:
        L = self.half_width
        if self.dimension == 1:
            return isinstance(site, (int, np.integer)) and -L <= site <= L
        x1, x2 = site
        return all(isinstance(c, (int, np.integer)) and -L <= c <= L for c in (x1, x2))


# ---------------------------------------------------------------------------
# coupling families


@dataclass(frozen=True)
class NearestNeighbor:
    """J on lattice-distance-1 pairs, zero beyond."""

    strength: float = 1.0

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError("ferromagnetic couplings require strength >= 0")


@dataclass(frozen=True)
class PowerLaw:
    """J / |x-y|^alpha on every pair (Euclidean norm in 2d)."""

    strength: float
    alpha: float

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError("ferromagnetic couplings require strength >= 0")
        if self.alpha <= 1:
            raise ValueError("power-law decay needs alpha > 1 for summability")


@dataclass(frozen=True)
class IsotropicMixed:
    """Nearest-neighbor term plus a unit-amplitude power-law tail.

    The bond value at distance one is nn_strength + 1, so a boosted
    short-range coupling J(1) >> 1 coexists with the bare 1/r^alpha tail.
    """

    nn_strength: float
    alpha: float

    def __post_init__(self):
        if self.nn_strength < 0:
            raise ValueError("ferromagnetic couplings require nn_strength >= 0")
        if self.alpha <= 1:
            raise ValueError("power-law decay needs alpha > 1 for summability")


@dataclass(frozen=True)
class AnisotropicAxes:
    """Axis-only 2d couplings: power-law rows, nearest-neighbor or
    power-law columns; off-axis pairs do not interact."""

    horizontal_alpha: float
    vertical: Union[str, float] = "nn"  # "nn" or a power-law exponent

    def __post_init__(self):
        if self.horizontal_alpha <= 1:
            raise ValueError("horizontal decay needs alpha1 > 1")
        if self.vertical != "nn" and (not isinstance(self.vertical, (int, float)) or self.vertical <= 1):
            raise ValueError("vertical mode must be 'nn' or an exponent > 1")


CouplingSpec = Union[NearestNeighbor, PowerLaw, IsotropicMixed, AnisotropicAxes]


def validate_coupling(spec: CouplingSpec, dimension: int) -> None:
    """Summability checks that depend on the ambient dimension."""
    if isinstance(spec, (PowerLaw, IsotropicMixed)) and spec.alpha <= dimension:
        raise ValueError(f"alpha={spec.alpha} is not summable in dimension {dimension}")
    if isinstance(spec, AnisotropicAxes) and dimension != 2:
        raise ValueError("axis couplings are a 2d family")


def _distance(x: Site, y: Site) -> float:
    if isinstance(x, tuple):
        return float(np.hypot(x[0] - y[0], x[1] - y[1]))    # math.hypot differs in the last bit
    return abs(x - y)


def _power(d, alpha: float):
    """d ** (-alpha) through numpy's vectorized power, which Python's ** can
    miss by one ulp; coupling_value and coupling_row both evaluate it here,
    so every coupling_value equals its coupling_matrix entry bit for bit."""
    return np.asarray(d, dtype=np.float64) ** (-alpha)


def coupling_value(spec: CouplingSpec, x: Site, y: Site) -> float:
    """Pair coupling J_xy; symmetric, nonnegative, zero for non-interacting pairs."""
    if x == y:
        raise ValueError("coupling_value requires x != y")
    if isinstance(spec, NearestNeighbor):
        return spec.strength if _distance(x, y) == 1 else 0.0
    if isinstance(spec, PowerLaw):
        return spec.strength * float(_power(_distance(x, y), spec.alpha))
    if isinstance(spec, IsotropicMixed):
        d = _distance(x, y)
        return (spec.nn_strength if d == 1 else 0.0) + float(_power(d, spec.alpha))
    if isinstance(spec, AnisotropicAxes):
        x1, x2 = x
        y1, y2 = y
        if x1 == y1:
            dv = abs(x2 - y2)
            if spec.vertical == "nn":
                return 1.0 if dv == 1 else 0.0
            return float(_power(dv, float(spec.vertical)))
        if x2 == y2:
            return float(_power(abs(x1 - y1), spec.horizontal_alpha))
        return 0.0
    raise TypeError(f"unknown coupling spec {spec!r}")


def coupling_rows(vol: Volume, spec: CouplingSpec, sites) -> np.ndarray:
    """Rows J(x, y) over all volume sites y for each site x of `sites`, which
    may lie outside the volume (zero where y = x); one broadcast."""
    validate_coupling(spec, vol.dimension)
    L = vol.half_width
    xs = np.asarray(sites, dtype=np.int64).reshape(-1, vol.dimension)
    g = np.arange(-L, L + 1)
    if vol.dimension == 1:
        d = np.abs(g.astype(np.float64) - xs)
    else:
        dx1 = (np.repeat(g, g.size) - xs[:, :1]).astype(np.float64)
        dx2 = (np.tile(g, g.size) - xs[:, 1:]).astype(np.float64)
        d = np.hypot(dx1, dx2)
    rows = np.zeros(d.shape, dtype=np.float64)
    nz = d > 0
    if isinstance(spec, NearestNeighbor):
        rows[d == 1] = spec.strength
    elif isinstance(spec, PowerLaw):
        rows[nz] = spec.strength * _power(d[nz], spec.alpha)
    elif isinstance(spec, IsotropicMixed):
        rows[nz] = _power(d[nz], spec.alpha)
        rows[d == 1] += spec.nn_strength
    elif isinstance(spec, AnisotropicAxes):
        same_col = dx1 == 0
        same_row = dx2 == 0
        dv = np.abs(dx2)
        if spec.vertical == "nn":
            rows[same_col & (dv == 1)] = 1.0
        else:
            m = same_col & (dv > 0)
            rows[m] = _power(dv[m], float(spec.vertical))
        m = same_row & (np.abs(dx1) > 0)
        rows[m] = _power(np.abs(dx1[m]), spec.horizontal_alpha)
    return rows


def coupling_row(vol: Volume, spec: CouplingSpec, site: Site) -> np.ndarray:
    """Vector of J(site, y) over all volume sites (zero at the site itself)."""
    return coupling_rows(vol, spec, [site])[0]


@byte_lru_cache(MATRIX_CACHE_BYTES)
def coupling_matrix(vol: Volume, spec: CouplingSpec) -> np.ndarray:
    """Dense symmetric coupling matrix with zero diagonal (cached), built in
    row blocks of about NEAR_BLOCK_BYTES."""
    n = vol.n_sites
    if n > MATRIX_SITE_CAP:
        raise CapacityError(f"{n} sites exceed the {MATRIX_SITE_CAP}-site coupling-matrix cap")
    sites = vol.sites()
    step = max(1, NEAR_BLOCK_BYTES // (8 * n))
    J = np.empty((n, n), dtype=np.float64)
    for i in range(0, n, step):
        J[i:i + step] = coupling_rows(vol, spec, sites[i:i + step])
    J.setflags(write=False)
    return J


# ---------------------------------------------------------------------------
# analytic tail sums


def _em_tail(alpha: float, m):
    """Euler-Maclaurin closed form of Sum_{i >= 0} (m + i)^(-alpha), with the
    Bernoulli corrections B2..B10; the first omitted term is O(m^(-alpha-11)),
    below 1e-17 relative from m = 64 on for alpha <= 10.  `m` may be an array.

    p_k = (alpha)_k / m^k is carried as p_{k+2} = p_k (alpha+k)(alpha+k+1)/m^2.
    """
    p = alpha / m
    total = 0.5 + p / 12.0
    for k, b in ((1, -720.0), (3, 30240.0), (5, -1209600.0), (7, 47900160.0)):
        p = p * (alpha + k) * (alpha + k + 1.0) / (m * m)
        total = total + p / b
    return m ** (1.0 - alpha) / (alpha - 1.0) + m ** (-alpha) * total


def hurwitz_tail(alpha: float, shift: float = 0.0, start=0,
                 em_crossover: int = EM_CROSSOVER):
    """Sum_{k > start} (k + shift)^(-alpha) to ~1e-15 relative error.

    Terms whose base k + shift lies below em_crossover are summed directly,
    smallest first; the Euler-Maclaurin closed form takes the rest from the
    first base at or above it.  `start` may be an integer array, giving one
    tail per entry: its bases share the fractional part of `shift`, so every
    head ends at the same base and one reversed cumsum serves them all.
    """
    if alpha <= 1:
        raise ValueError("tail sum diverges for alpha <= 1")
    m = np.atleast_1d(np.asarray(start, dtype=np.float64)) + 1.0 + shift
    lo = float(m.min())
    if lo <= 0:
        raise ValueError("summand base must stay positive")
    n = max(math.ceil(em_crossover - lo), 0)
    out = _em_tail(alpha, np.maximum(m, lo + n))
    head = m < lo + n
    if head.any():
        suffix = np.cumsum((lo + np.arange(n - 1, -1, -1.0)) ** (-alpha))[::-1]
        out[head] += suffix[np.rint(m[head] - lo).astype(np.int64)]
    return out if np.ndim(start) else float(out[0])


def tail_coupling_sum(alpha: float, N: int) -> float:
    """Sum_{k > N} k^(-alpha), the unit-amplitude coupling tail."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return hurwitz_tail(alpha, 0.0, N)


def _boole_tail(alpha: float, m):
    """Boole summation closed form of Sum_{i >= 0} (-1)^i (m + i)^(-alpha)
    through the m^(-alpha-7) term; `m` may be an array."""
    u = 1.0 / m
    p1 = alpha * u
    p3 = p1 * (alpha + 1.0) * (alpha + 2.0) * u * u
    p5 = p3 * (alpha + 3.0) * (alpha + 4.0) * u * u
    p7 = p5 * (alpha + 5.0) * (alpha + 6.0) * u * u
    return m ** (-alpha) * (0.5 + p1 / 4.0 - p3 / 48.0 + p5 / 480.0 - 17.0 * p7 / 80640.0)


def alternating_tail(alpha: float, shift: float = 0.0, start=0,
                     em_crossover: int = EM_CROSSOVER):
    """Sum_{k > start} (-1)^k (k + shift)^(-alpha); `start` may be an
    integer array.

    Near in, an even/odd split into two Hurwitz tails (shifts shift/2 and
    shift/2 - 1/2).  Their difference
    cancels about log10(m) digits at base m = start + 1 + shift, so from
    m >= 40 (alpha + 1) on the Boole closed form takes over; its first
    omitted term is below 1e-16 relative there.
    """
    starts = np.atleast_1d(np.asarray(start, dtype=np.int64))
    m = starts + 1.0 + shift
    far = m >= 40.0 * (alpha + 1.0)
    out = np.empty(starts.size)
    out[far] = (1 - 2 * ((starts[far] + 1) % 2)) * _boole_tail(alpha, m[far])
    near = starts[~far]
    if near.size:
        even = hurwitz_tail(alpha, shift / 2.0, near // 2, em_crossover)
        odd = hurwitz_tail(alpha, (shift - 1.0) / 2.0, (near + 1) // 2, em_crossover)
        out[~far] = 2.0 ** (-alpha) * (even - odd)
    return out if np.ndim(start) else float(out[0])


def _half_row_sums(alpha: float, d, start, em_crossover: int = EM_CROSSOVER) -> np.ndarray:
    """Sum_{k >= start} (k^2 + d^2)^(-alpha/2) for 2d lattice row segments;
    integer arrays d >= 0 and start >= 1 broadcast together.

    Terms up to K = max(start - 1, 16 d, 1000) are summed directly, smallest
    first, from one suffix cumsum per distinct d down from max(16 d, 1000),
    so no entry depends on the rest of the batch.  Beyond K the binomial
    expansion of (1 + (d/k)^2)^(-alpha/2) takes over; its next term is
    O((d/K)^8).
    """
    d, start = np.broadcast_arrays(np.asarray(d, dtype=np.int64),
                                   np.asarray(start, dtype=np.int64))
    shape, d, start = d.shape, d.ravel(), start.ravel()
    if start.min() < 1:
        raise ValueError("start must be >= 1")
    lo, top = int(start.min()), np.maximum(16 * d, 1000)
    direct, near = np.zeros(d.size), start <= top
    for dk in sorted(set(d[near].tolist())):
        ks = np.arange(lo, max(16 * dk, 1000) + 1, dtype=np.float64)
        suffix = np.cumsum(((ks * ks + float(dk) * dk) ** (-alpha / 2.0))[::-1])[::-1]
        mine = near & (d == dk)
        direct[mine] = suffix[start[mine] - lo]
    a, dd, K, tail = alpha, d.astype(np.float64), np.maximum(start - 1, top), 0.0
    for j, cj in enumerate((1.0, -a / 2.0, a * (a + 2.0) / 8.0,
                            -a * (a + 2.0) * (a + 4.0) / 48.0)):
        tail = tail + cj * dd ** (2 * j) * hurwitz_tail(a + 2 * j, 0.0, K, em_crossover)
    return (direct + tail).reshape(shape)


@lru_cache(maxsize=2048)
def _half_row_sum(alpha: float, d: int, start: int, em_crossover: int = EM_CROSSOVER) -> float:
    """One entry of _half_row_sums."""
    return float(_half_row_sums(alpha, d, start, em_crossover))


def _full_row_sums(alpha: float, d, em_crossover: int = EM_CROSSOVER) -> np.ndarray:
    """Sums over whole lattice rows at vertical distances d >= 1 (an array)."""
    return _power(d, alpha) + 2.0 * _half_row_sums(alpha, d, 1, em_crossover)


@lru_cache(maxsize=1024)
def _full_row_sum(alpha: float, d: int, em_crossover: int = EM_CROSSOVER) -> float:
    """One entry of _full_row_sums."""
    return float(_full_row_sums(alpha, d, em_crossover))


def _row_leading_term(alpha: float) -> tuple:
    """(c_alpha, D(alpha)) of whole lattice rows Sum_x (x^2 + d^2)^(-alpha/2).
    By Poisson summation a row is c_alpha d^(1-alpha), c_alpha = sqrt(pi)
    Gamma(nu) / Gamma(alpha/2) with nu = (alpha - 1) / 2, plus (4 pi^(a/2) /
    Gamma(a/2)) d^(-nu) Sum_{k>=1} k^nu K_nu(2 pi k d).  As K_nu(x) <=
    sqrt(pi/2x) e^(-x) (1 - (nu - 1/2)/2x)^(-(nu + 1/2)) for x > (nu - 1/2)/2,
    the k = 1 term is at most 2 pi^nu / Gamma(nu) d^(nu - 1/2) e^(-2 pi d)
    (1 - (nu - 1/2)/(4 pi d))^(-(nu + 1/2)) times the leading term.  D(alpha)
    is the first d at which that factor is below 2^-53, compared in logs so
    that nothing under- or overflows at large alpha."""
    nu = (alpha - 1.0) / 2.0
    log_factor = 54.0 * math.log(2.0) + nu * math.log(math.pi) - math.lgamma(nu)
    d = 1 + int((nu - 0.5) / (4.0 * math.pi))      # x = 2 pi d > (nu - 1/2)/2 from here
    while log_factor + (nu - 0.5) * math.log(d) - 2.0 * math.pi * d \
            - (nu + 0.5) * math.log1p(-(nu - 0.5) / (4.0 * math.pi * d)) >= 0.0:
        d += 1
    return math.sqrt(math.pi) * math.gamma(nu) / math.gamma(alpha / 2.0), d


# ---------------------------------------------------------------------------
# boundary conditions


@dataclass(frozen=True)
class Interval:
    """1d region lo <= y <= hi; None endpoints are unbounded."""

    lo: Union[int, None]
    hi: Union[int, None]

    def contains(self, y: Site) -> bool:
        return (self.lo is None or y >= self.lo) and (self.hi is None or y <= self.hi)


@dataclass(frozen=True)
class HalfPlane:
    """2d region of rows: y2 >= boundary ('above') or y2 < boundary ('below')."""

    side: str
    boundary: int

    def contains(self, y: Site) -> bool:
        y2 = y[1]
        return y2 >= self.boundary if self.side == "above" else y2 < self.boundary


@dataclass(frozen=True)
class Everywhere:
    def contains(self, y: Site) -> bool:
        return True


@dataclass(frozen=True)
class ConstFill:
    value: int  # -1, 0 (free), +1

    def spin(self, y: Site) -> int:
        return self.value

    def flipped(self) -> "ConstFill":
        return ConstFill(-self.value)


@dataclass(frozen=True)
class AlternatingFill:
    """spin(y) = phase * (-1)^y; 1d regions only."""

    phase: int = 1

    def spin(self, y: Site) -> int:
        return self.phase * (1 if y % 2 == 0 else -1)

    def flipped(self) -> "AlternatingFill":
        return AlternatingFill(-self.phase)


@dataclass(frozen=True)
class RegionRule:
    region: Union[Interval, HalfPlane, Everywhere]
    fill: Union[ConstFill, AlternatingFill]

    def flipped(self) -> "RegionRule":
        return RegionRule(self.region, self.fill.flipped())


@dataclass(frozen=True)
class BoundaryCondition:
    """Exterior spins: the region rules' piecewise fill, the first rule
    containing a site winning, overridden by one finite pattern.

    `rules` holds RegionRules alone, and the last one must cover everything
    (an Everywhere region), so the unbounded part always has a constant or
    alternating analytic tail.  `pattern` is a tuple of (site, spin) pairs,
    each site once, the most recent assignments first (with_pattern).
    """

    rules: tuple
    name: str = ""
    pattern: tuple = ()

    def __post_init__(self):
        if not all(isinstance(rule, RegionRule) for rule in self.rules):
            raise ValueError("boundary rules must be region rules; finite patterns go in `pattern`")
        if not self.rules or not isinstance(self.rules[-1].region, Everywhere):
            raise ValueError("boundary condition needs a trailing Everywhere rule")

    def spin_at(self, y: Site) -> int:
        for site, spin in self.pattern:
            if site == y:
                return spin
        return self.tail_fill(y).spin(y)

    def flipped(self) -> "BoundaryCondition":
        return BoundaryCondition(tuple(r.flipped() for r in self.rules),
                                 f"flipped({self.name})" if self.name else "",
                                 tuple((site, -spin) for site, spin in self.pattern))

    def with_pattern(self, assignments: Mapping[Site, int]) -> "BoundaryCondition":
        """The same rules under a pattern that overrides the old one: the
        new assignments, sorted by str(site), then the old entries whose
        sites they leave alone, in their order."""
        new = sorted(assignments.items(), key=lambda kv: str(kv[0]))
        old = [(site, spin) for site, spin in self.pattern if site not in assignments]
        return BoundaryCondition(self.rules, f"{self.name}+pattern", tuple(new + old))

    def check_dimension(self, dimension: int) -> None:
        """Raise ValueError on a pattern site or rule of the other dimension:
        an integer pattern site, 1d interval or alternating fill in 2d, a
        tuple pattern site or half-plane in 1d."""
        for site, _ in self.pattern:
            if isinstance(site, tuple) != (dimension == 2):
                raise ValueError(f"pattern site {site} in a {dimension}d boundary condition")
        for rule in self.rules:
            if dimension == 2 and isinstance(rule.region, Interval):
                raise ValueError("1d interval rule in a 2d boundary condition")
            elif dimension == 2 and isinstance(rule.fill, AlternatingFill):
                raise ValueError("alternating fills are 1d-only")
            elif dimension == 1 and isinstance(rule.region, HalfPlane):
                raise ValueError("half-plane rule in a 1d boundary condition")

    def cuts(self, direction: int, axis: int) -> list:
        """Sorted distances a at which a region fill can change along a ray
        of `axis` in `direction` (+1 or -1): the sites direction * t, t > a,
        may take another fill than the site direction * a.  Interval bounds
        cut 1d rays; half-plane bounds cut 2d columns (axis 1), never rows."""
        starts = set()              # p: y = p - 1 and y = p may differ
        for region in (rule.region for rule in self.rules):
            if isinstance(region, Interval):
                starts.update(b for b in (region.lo, None if region.hi is None else region.hi + 1)
                              if b is not None)
            elif isinstance(region, HalfPlane) and axis == 1:
                starts.add(region.boundary)
        return sorted(direction * p - (direction + 1) // 2 for p in starts)

    def tail_fill(self, probe: Site):
        """Fill of the first rule containing `probe`, the pattern aside: the
        fill of a whole unbounded ray tail when `probe` is any site of it,
        or of a whole 2d row."""
        for rule in self.rules:
            if rule.region.contains(probe):
                return rule.fill
        raise AssertionError("unreachable: trailing rule covers everything")

    def row_sign(self, y2: int) -> int:
        """Constant fill of row y2, ignoring finite pattern overrides (2d
        rules only; `check_dimension` checks them)."""
        return self.tail_fill((0, y2)).value


# built-in constructors


def plus_bc() -> BoundaryCondition:
    return BoundaryCondition((RegionRule(Everywhere(), ConstFill(1)),), name="plus")


def minus_bc() -> BoundaryCondition:
    return BoundaryCondition((RegionRule(Everywhere(), ConstFill(-1)),), name="minus")


def free_bc() -> BoundaryCondition:
    return BoundaryCondition((RegionRule(Everywhere(), ConstFill(0)),), name="free")


def alternating_bc(phase: int = 1) -> BoundaryCondition:
    return BoundaryCondition((RegionRule(Everywhere(), AlternatingFill(phase)),),
                             name="alternating")


def dobrushin1d_bc() -> BoundaryCondition:
    """Minus on the left of the volume, plus on the right."""
    return BoundaryCondition(
        (RegionRule(Interval(None, 0), ConstFill(-1)),
         RegionRule(Everywhere(), ConstFill(1))),
        name="dobrushin1d",
    )


def dobrushin2d_bc(height: int = 0) -> BoundaryCondition:
    """Plus on rows y2 >= height, minus below."""
    return BoundaryCondition(
        (RegionRule(HalfPlane("above", height), ConstFill(1)),
         RegionRule(Everywhere(), ConstFill(-1))),
        name=f"dobrushin2d({height})",
    )


def left_neighborhood_bc(sign: int, N: int, L: int, edge: int = 0) -> BoundaryCondition:
    """Past fixed near an alternating window left of the site `edge`:
    (-1)^(edge - y) on the window [edge - L, edge - 1], `sign` on the
    annulus [edge - N, edge - L - 1], plus beyond on both sides."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return BoundaryCondition(
        (RegionRule(Interval(edge - L, edge - 1), AlternatingFill(1 - 2 * (edge % 2))),
         RegionRule(Interval(edge - N, edge - L - 1), ConstFill(sign)),
         RegionRule(Everywhere(), ConstFill(1))),
        name=f"left_neighborhood({'+' if sign > 0 else '-'},N={N},L={L},edge={edge})",
    )


def frozen_interval_bc(lo: int, hi: int, inner: int = -1, outer: int = 1) -> BoundaryCondition:
    """`inner` on [lo, hi], `outer` elsewhere (wetting-style exterior)."""
    return BoundaryCondition(
        (RegionRule(Interval(lo, hi), ConstFill(inner)),
         RegionRule(Everywhere(), ConstFill(outer))),
        name=f"frozen[{lo},{hi}]",
    )


def pattern_bc(assignments: Mapping[Site, int], base: BoundaryCondition = None) -> BoundaryCondition:
    """A base condition (default: free) with its pattern overridden by
    `assignments` (BoundaryCondition.with_pattern)."""
    return (base or free_bc()).with_pattern(assignments)


# ---------------------------------------------------------------------------
# boundary fields


def _ray_field(vol: Volume, bc: BoundaryCondition, alpha: float, axis: int,
               em_crossover: int) -> np.ndarray:
    """Unit-amplitude ray part of h: Sum_y |y - x|^(-alpha) omega_y over the
    exterior sites y on the line through x along `axis`, in the volume's
    shape.  A 1d chain is one line; in 2d each row (axis 0) or column
    (axis 1) is one.  `bc` holds region rules only.  On each side the fill
    of the sites beyond a cut a (the volume's edge L, then each of bc.cuts
    past it) is the sum of the fill changes at the cuts up to a, so the ray
    telescopes into tails from a: the change of constant fill times a
    Hurwitz tail, the change of 1d alternating phase times (-1)^x and the
    alternating (Boole) tail, one vector call over all lines each."""
    L = vol.half_width
    xs = np.arange(-L, L + 1)
    if vol.dimension == 1:
        lines, site = [0], (lambda c, t: t)
    else:
        lines = xs.tolist()
        site = (lambda c, t: (c, t)) if axis else (lambda c, t: (t, c))
    h = np.zeros((vol.side,) * vol.dimension)     # h[along, line]
    for direction in (+1, -1):
        values, phase = np.zeros(len(lines)), 0
        for a in [L] + [a for a in bc.cuts(direction, axis) if a > L]:
            fills = [bc.tail_fill(site(c, direction * (a + 1))) for c in lines]
            new = np.array([getattr(f, "value", 0) for f in fills], dtype=np.float64)
            new_phase, starts = getattr(fills[0], "phase", 0), a - direction * xs
            if new_phase != phase:     # (-1)^y = (-1)^x (-1)^k at distance k
                h += (new_phase - phase) * (1 - 2 * (xs % 2)) \
                    * alternating_tail(alpha, 0.0, starts, em_crossover)
            if (change := new - values).any():
                tail = hurwitz_tail(alpha, 0.0, starts, em_crossover)
                h += change[0] * tail if vol.dimension == 1 else np.outer(tail, change)
            values, phase = new, new_phase
    return h.T if axis else h


def _add_nn_bonds(h: np.ndarray, vol: Volume, bc: BoundaryCondition, strength: float,
                  axes) -> None:
    """h += strength * omega_y for each exterior nearest neighbor y along
    `axes`, omega from the region rules `bc`; h has shape (side,) * dimension."""
    L = vol.half_width
    cs = range(-L, L + 1)
    for axis in axes:
        for edge, y in ((0, -L - 1), (-1, L + 1)):
            if vol.dimension == 1:
                h[edge] += strength * bc.spin_at(y)
            elif axis == 0:
                h[edge, :] += strength * np.array([bc.spin_at((y, c)) for c in cs])
            else:
                h[:, edge] += strength * np.array([bc.spin_at((c, y)) for c in cs])


def _isotropic_field(vol: Volume, spec: CouplingSpec, bc: BoundaryCondition,
                     em_crossover: int) -> np.ndarray:
    """Power-law part of h[x1, x2] for 2d isotropic couplings.  Rows that
    cross the volume add both half rows (one _half_row_sums table); the rest
    add their Poisson leading terms c_alpha d^(1-alpha) as one ray along the
    columns (_ray_field, exponent alpha - 1), and the exact remainder
    _full_row_sums(d) - c_alpha d^(1-alpha) within D(alpha) of a site.  Rows
    add in row order, then the ray; `bc` holds region rules only."""
    L, alpha = vol.half_width, spec.alpha
    cs = np.arange(-L, L + 1)
    c, D = _row_leading_term(alpha)

    h = np.zeros((vol.side, vol.side))
    ks = np.arange(vol.side)
    by_start = _half_row_sums(alpha, ks, ks[:, None] + 1, em_crossover)   # [start - 1, d]
    half = by_start[::-1] + by_start     # half[x1, d]: both half rows at distance d
    ds = np.arange(1, D)
    rest = np.append(_full_row_sums(alpha, ds, em_crossover) - c * _power(ds, alpha - 1.0), 0.0)
    for y2 in range(1 - L - D, L + D):
        if s := bc.row_sign(y2):
            d = np.abs(y2 - cs)
            h += s * (half[:, d] if abs(y2) <= L else rest[np.minimum(d, D) - 1])
    h += c * _ray_field(vol, bc, alpha - 1.0, 1, em_crossover)
    h *= getattr(spec, "strength", 1.0)
    return h


def boundary_field(vol: Volume, spec: CouplingSpec, bc: BoundaryCondition, x: Site,
                   em_crossover: int = EM_CROSSOVER) -> float:
    """h_x = sum over exterior sites y of J_xy * omega_y, exact to <= 1e-10:
    one entry of the cached field vector."""
    if not vol.contains(x):
        raise ValueError(f"site {x} not in the volume")
    return float(_field_vector(vol, spec, bc, em_crossover)[vol.index(x)])


@byte_lru_cache(FIELD_CACHE_BYTES)
def _field_vector(vol: Volume, spec: CouplingSpec, bc: BoundaryCondition,
                  em_crossover: int) -> np.ndarray:
    """The one field builder.  Each family's path reads the region rules
    alone; every unbounded tail goes through _ray_field.  A 1d chain is one
    line; axis couplings walk the rows, and the columns too when the
    vertical coupling is a power law; 2d isotropic couplings add their
    exterior rows' leading terms as one ray (_isotropic_field); nearest
    neighbor bonds follow.  Each exterior pattern site y then adds its
    coupling row times omega_y less its region spin: its exact pair terms,
    once.  Exterior rules of the other dimension are rejected first."""
    validate_coupling(spec, vol.dimension)
    bc.check_dimension(vol.dimension)
    regions = BoundaryCondition(bc.rules) if bc.pattern else bc
    nn, axes = getattr(spec, "nn_strength", 0.0), range(vol.dimension)
    if isinstance(spec, AnisotropicAxes):
        h = _ray_field(vol, regions, spec.horizontal_alpha, 0, em_crossover)
        if spec.vertical != "nn":
            h += _ray_field(vol, regions, float(spec.vertical), 1, em_crossover)
        nn, axes = (1.0 if spec.vertical == "nn" else 0.0), (1,)
    elif isinstance(spec, NearestNeighbor):
        h, nn = np.zeros((vol.side,) * vol.dimension), spec.strength
    elif vol.dimension == 1:
        h = getattr(spec, "strength", 1.0) * _ray_field(vol, regions, spec.alpha, 0, em_crossover)
    else:
        h = _isotropic_field(vol, spec, regions, em_crossover)
    if nn:
        _add_nn_bonds(h, vol, regions, nn, axes)
    for site, spin in bc.pattern:
        if not vol.contains(site) and (delta := spin - regions.spin_at(site)):
            h += delta * coupling_row(vol, spec, site).reshape(h.shape)
    h = h.ravel()
    h.setflags(write=False)
    return h


def boundary_field_vector(vol: Volume, spec: CouplingSpec, bc: BoundaryCondition) -> np.ndarray:
    """Read-only h_x over all sites, cached under one key per argument set
    however the call spells it (the cache itself keys positional arguments
    only)."""
    return _field_vector(vol, spec, bc, EM_CROSSOVER)


boundary_field_vector.cache_info = _field_vector.cache_info
boundary_field_vector.cache_clear = _field_vector.cache_clear


# ---------------------------------------------------------------------------
# model parameters, configurations, Hamiltonians


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature, coupling family, optional external field: one
    number, or a per-site table (any sequence, kept as a tuple of floats so
    the parameters stay hashable)."""

    beta: float
    coupling: CouplingSpec
    field: Union[None, float, tuple] = None

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and >= 0")
        if self.field is not None and np.ndim(self.field) > 0:
            object.__setattr__(self, "field", tuple(float(v) for v in self.field))


def external_field_vector(vol: Volume, params: ModelParams) -> np.ndarray:
    if params.field is None:
        return np.zeros(vol.n_sites)
    if np.ndim(params.field) == 0:
        return np.full(vol.n_sites, float(params.field))
    table = np.asarray(params.field, dtype=np.float64)
    if table.shape != (vol.n_sites,):
        raise ValueError("per-site field table must cover the whole volume")
    return table


def site_fields(vol: Volume, params: ModelParams, bc: BoundaryCondition) -> np.ndarray:
    """Static field per site: the boundary field plus the external field."""
    return boundary_field_vector(vol, params.coupling, bc) + external_field_vector(vol, params)


def check_frozen(vol: Volume, frozen: Mapping = None) -> tuple:
    """(volume indices, spins) of a partial pattern {site: +-1} over volume
    sites, as int64 and float64 arrays in the pattern's order.

    Integer sites inside the volume with spins +-1 pass as whole arrays;
    any other pattern is walked entry by entry, sites read as Volume reads
    them, and its first bad entry raises: a site outside the volume, else a
    spin other than +-1."""
    if not frozen:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    sites, L = list(frozen), vol.half_width
    try:
        xs = np.asarray(sites).reshape(len(sites), vol.dimension)
        whole = xs.dtype.kind in "iub" and bool(((xs >= -L) & (xs <= L)).all()) \
            and set(frozen.values()) <= {-1, 1}
    except (TypeError, ValueError):     # ragged or other-dimension sites, unhashable spins
        whole = False
    if not whole:
        for site, v in frozen.items():
            if not vol.contains(site):
                raise ValueError(f"frozen site {site} outside the volume")
            if v not in (-1, 1):
                raise ValueError("frozen spins must be +-1")
        xs = np.array(sites, dtype=np.int64).reshape(len(sites), vol.dimension)
    xs = xs.astype(np.int64) + L
    idx = xs[:, 0] if vol.dimension == 1 else xs[:, 0] * vol.side + xs[:, 1]
    return idx, np.fromiter(frozen.values(), dtype=np.float64, count=len(sites))


def all_plus(vol: Volume) -> np.ndarray:
    return np.ones(vol.n_sites, dtype=np.int8)


def random_configuration(vol: Volume, rng: np.random.Generator) -> np.ndarray:
    return (1 - 2 * rng.integers(0, 2, vol.n_sites)).astype(np.int8)


def as_configuration(vol: Volume, values) -> np.ndarray:
    cfg = np.asarray(values, dtype=np.int8)
    if cfg.shape != (vol.n_sites,):
        raise ValueError(f"configuration needs {vol.n_sites} spins")
    if not (np.abs(cfg) == 1).all():
        raise ValueError("spins must be +-1")
    return cfg


def hamiltonian(vol: Volume, params: ModelParams, bc: BoundaryCondition,
                config) -> float:
    """H = -sum_{unordered pairs} J s s - sum_x s_x (h^bc_x + h_x)."""
    s = as_configuration(vol, config).astype(np.float64)
    J = coupling_matrix(vol, params.coupling)
    return float(-0.5 * s @ (J @ s) - s @ site_fields(vol, params, bc))


def energy_delta(vol: Volume, params: ModelParams, bc: BoundaryCondition,
                 config, site: Site) -> float:
    """Energy change from flipping one spin, without a full re-sum."""
    s = as_configuration(vol, config)
    i = vol.index(site)
    row = coupling_row(vol, params.coupling, site)
    local = float(row @ s) + boundary_field(vol, params.coupling, bc, site) \
        + float(external_field_vector(vol, params)[i])
    return 2.0 * float(s[i]) * local


def _half_table(J: np.ndarray, c: np.ndarray, beta: float, S: np.ndarray) -> tuple:
    """Spin rows as floats, with their log weights beta * (s.J.s / 2 + c.s)."""
    Sf = S.astype(np.float64)
    return Sf, beta * (0.5 * np.einsum("ki,ki->k", Sf @ J, Sf) + Sf @ c)


class SplitSums:
    """Sums over all 2**n spin vectors of w(s) = exp(beta * (s.J.s / 2 + c.s)),
    J symmetric: log Z when built, the moments over Z when first read.

    Three-block split (R. Williams, Theor. Comput. Sci. 348, 357 (2005)):
    contiguous blocks Y (first (n + 1) // 3 sites), X and W (last n // 3),
    so the end blocks Y and W are the most weakly coupled pair.  As the
    couplings are pairwise, w(y, x, w) = A[y, x] B[x, w] C[y, w], with the
    Y-X term and the Y and X weights in A, the X-W term and the W weight in
    B, the Y-W term in C.  (A @ B) * C, (A.T @ C) * B and (C @ B.T) * A weigh
    the (y, w), (x, w) and (y, x) pairs; log Z needs the first alone.  No exp
    is taken per configuration; memory is a few 2**(2n/3)-entry matrices
    (512 KiB each at n = 24) plus one fold tile.

    Rows are shifted by their maxima before exp, so each row of A @ B peaks
    at 1 and of (A @ B) * C at >= exp(-2 beta ||J_YW||_1), summing absolute
    entries: full precision while 2 beta ||J_YW||_1 < ~700.  Past that only
    frustrated cases lose it, and a Z whose largest term may be subnormal
    raises CapacityError.
    """

    def __init__(self, J: np.ndarray, c: np.ndarray, beta: float):
        n = c.size
        Y, X, W = slice(0, (n + 1) // 3), slice((n + 1) // 3, n - n // 3), slice(n - n // 3, n)
        # X is the largest block; 2**k rows and k columns of its table enumerate
        # k sites.  S8 stacks the three tables, each row zero off its block.
        SX8 = np.concatenate([S for _, S in iter_spin_blocks(X.stop - X.start)])
        kY, kX, kW = (1 << (b.stop - b.start) for b in (Y, X, W))
        rY, rX, rW = slice(0, kY), slice(kY, kY + kX), slice(kY + kX, kY + kX + kW)
        S8 = np.zeros((rW.stop, n), dtype=np.int8)
        for r, b in ((rY, Y), (rX, X), (rW, W)):
            S8[r, b] = SX8[:r.stop - r.start, :b.stop - b.start]
        S, lw = _half_table(J, c, beta, S8)
        SJ = S @ (beta * J)

        def shifted_exp(logM):
            top = logM.max(axis=1)
            return np.exp(logM - top[:, None]), top

        B, b_shift = shifted_exp(SJ[rX] @ S[rW].T + lw[rW])
        A, a_shift = shifted_exp(SJ[rY] @ S[rX].T + (lw[rX] + b_shift) + lw[rY, None])
        C, c_shift = shifted_exp(SJ[rY] @ S[rW].T)
        P_YW = (A @ B) * C
        top = float((a_shift + c_shift).max())
        f = np.exp(a_shift + c_shift - top)
        z = float(f @ P_YW.sum(axis=1))
        if z < 2.0 ** (n - 970):    # the largest of the 2**n terms may be subnormal
            raise CapacityError("Boltzmann sums beyond the three-block kernel's scaling range")
        f /= z                      # the probability of (y, x, w) is f_y A B C
        A *= f[:, None]
        P_YW *= f[:, None]
        self.log_z = top + math.log(z)
        self.S, self.A, self.B, self.C, self.P_YW, self.blocks = S, A, B, C, P_YW, (rY, rX, rW)

    @cached_property
    def _x_marginal(self) -> tuple:    # (x, w) pair weights, table-row marginals
        P_XW, P_YW = (self.A.T @ self.C) * self.B, self.P_YW
        return P_XW, np.concatenate([P_YW.sum(axis=1), P_XW.sum(axis=1), P_YW.sum(axis=0)])

    @cached_property
    def mean(self) -> np.ndarray:      # <s_i>
        return self._x_marginal[1] @ self.S

    @cached_property
    def second(self) -> np.ndarray:    # <s_i s_j>
        (P_XW, p_rows), S, (rY, rX, rW) = self._x_marginal, self.S, self.blocks
        cross = S[rY].T @ ((self.C @ self.B.T) * self.A) @ S[rX] \
            + S[rY].T @ self.P_YW @ S[rW] + S[rX].T @ P_XW @ S[rW]
        return (S.T * p_rows) @ S + (cross + cross.T)

    def fold(self, fn) -> np.ndarray:
        """Sum of the arrays fn(start, p) over tiles of whole W rows, about
        TILE_BYTES, p the probabilities of configurations start, start + 1,
        ... (bit b of an index is site b, as in iter_spin_blocks).  A fold
        that needs the spins reads them from its own table or util.spin_rows."""
        A, B, C, n = self.A, self.B, self.C, self.S.shape[1]
        # 8n spare bytes per configuration leave room for a fold's float spin rows
        rows = max(1, TILE_BYTES // (8 * (n + 1) * A.size))
        At, Ct = np.ascontiguousarray(A.T), np.ascontiguousarray(C.T)
        folded = 0.0
        for start in range(0, C.shape[1], rows):
            w = slice(start, start + rows)
            p = Ct[w, None, :] * At
            p *= B.T[w, :, None]
            folded = folded + fn(start * A.size, p.ravel())
        return np.asarray(folded)


@dataclass
class _ReducedSystem:
    """Quadratic form over the free sites after freezing a partial pattern:
    H = -s.J_ff.s / 2 - c_f.s over the free spins s, plus a constant of the
    frozen spins alone."""

    free_sites: list
    free_idx: np.ndarray  # volume indices of the free sites
    template: np.ndarray  # int8 spins: the frozen ones, zero on free sites
    J_ff: np.ndarray      # free-free couplings, column-major
    c_f: np.ndarray       # field on free sites: frozen spins + boundary + external
    beta: float

    def sums(self) -> SplitSums:
        return SplitSums(self.J_ff, self.c_f, self.beta)

    @cached_property
    def doubled(self) -> np.ndarray:   # read-only 2 J_ff, row-major: a flip's field change
        doubled = 2.0 * self.J_ff.T
        doubled.setflags(write=False)
        return doubled

    def log_weights(self, S: np.ndarray) -> np.ndarray:
        """Brute-force log weights of explicit rows (the kernel's test oracle)."""
        Sf = S.astype(np.float64)
        E = -0.5 * np.einsum("bi,bi->b", Sf @ self.J_ff, Sf) - Sf @ self.c_f
        return -self.beta * E


def _reduce(vol: Volume, params: ModelParams, bc: BoundaryCondition,
            frozen: Mapping = None, cap: int = ENUMERATION_SITE_CAP) -> _ReducedSystem:
    """The free sites' quadratic form given `frozen`, which log Z, the exact
    kernels and the sampler read.  More than `cap` free sites raise
    CapacityError before any row is built; the rows are built in blocks of
    about ROW_BLOCK_BYTES."""
    frozen_idx, spins = check_frozen(vol, frozen)
    template = np.zeros(vol.n_sites, dtype=np.int8)
    template[frozen_idx] = spins
    free_idx = np.flatnonzero(template == 0)
    if free_idx.size > cap:
        raise CapacityError(f"{free_idx.size} free sites exceed the {cap}-site cap")
    c_f = site_fields(vol, params, bc)[free_idx]
    free_sites = [vol.site(i) for i in free_idx.tolist()]
    # column-major, the layout of a column gather rows[:, free_idx], which
    # the enumeration's products round with
    J_ff = np.empty((free_idx.size, free_idx.size), order="F")
    step = max(1, ROW_BLOCK_BYTES // (8 * vol.n_sites))
    for i in range(0, free_idx.size, step):
        rows = coupling_rows(vol, params.coupling, free_sites[i:i + step])
        J_ff[i:i + step] = rows[:, free_idx]
        if frozen_idx.size:
            c_f[i:i + step] += rows[:, frozen_idx] @ spins
    return _ReducedSystem(free_sites, free_idx, template, J_ff, c_f, params.beta)


@lru_cache(maxsize=256)
def log_partition(vol: Volume, params: ModelParams, bc: BoundaryCondition) -> float:
    """log Z over all configurations (split enumeration of the reduced
    system, see _reduce and SplitSums)."""
    return float(_reduce(vol, params, bc).sums().log_z)


def specification_kernel(vol: Volume, params: ModelParams, bc: BoundaryCondition,
                         config) -> float:
    """Boltzmann-Gibbs probability of one configuration; strictly positive."""
    H = hamiltonian(vol, params, bc, config)
    return math.exp(-params.beta * H - log_partition(vol, params, bc))


def excess_energy(vol: Volume, spec: CouplingSpec, bc: BoundaryCondition = None) -> float:
    """Cost of flipping the whole volume against its boundary condition:
    2 * sum_{x in volume} sum_{y outside} J_xy (plus b.c. by default)."""
    if vol.dimension != 1:
        raise ValueError("excess energy is defined on 1d volumes")
    bc = bc or plus_bc()
    return 2.0 * float(np.sum(boundary_field_vector(vol, spec, bc)))


def decimate(vol: Volume, config) -> tuple:
    """Keep every second spin: output_i = input_{2i} on the halved volume."""
    if vol.dimension != 1:
        raise ValueError("decimation acts on 1d volumes")
    cfg = as_configuration(vol, config)
    out_vol = Volume(1, vol.half_width // 2)
    out = np.array([cfg[vol.index(2 * i)] for i in range(-out_vol.half_width,
                                                         out_vol.half_width + 1)],
                   dtype=np.int8)
    return out_vol, out
