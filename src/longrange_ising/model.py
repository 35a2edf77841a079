"""Lattices, coupling families, boundary conditions, and Hamiltonians.

Volumes are centered boxes [-L, L] (1d) or ([-L, L] cap Z)^2 (2d).  Interior
pair sums count each unordered pair once.  Boundary fields are exact: a
directly enumerated near zone plus analytic tails (Euler-Maclaurin corrected
Hurwitz-type sums), accurate to better than 1e-10 absolute.  One ray routine
(_ray_field) sums the rays of a 1d chain and of 2d axis couplings; 2d
isotropic couplings sum whole exterior rows.  site_fields adds the external
field to the boundary field: the static field every kernel and sampler reads.

All public objects are immutable (frozen dataclasses over hashable fields),
so derived arrays can be cached and shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from .util import CapacityError, ENUMERATION_SITE_CAP, byte_lru_cache, iter_spin_blocks

Site = Union[int, tuple]

#: Smallest summand base left to the Euler-Maclaurin closed tail; smaller
#: bases are summed directly.
EM_CROSSOVER = 64

#: Bytes of one streamed fold tile of the split enumeration (see _split_sums).
TILE_BYTES = 16 << 20

#: Largest volume for which a dense coupling matrix is materialized.
MATRIX_SITE_CAP = 4096

#: Byte budgets of the caches of coupling matrices (one 4096-site matrix is
#: 128 MiB) and boundary-field vectors (8 vectors at L = 2048; a beta-ladder
#: reads its vector right after building it).
MATRIX_CACHE_BYTES = 256 << 20
FIELD_CACHE_BYTES = 256 << 10

#: Bytes of one (sites x near-zone) power-matrix block of a field vector.
NEAR_BLOCK_BYTES = 4 << 20

#: Rows farther than this from a 2d target site use the Poisson asymptotic
#: row sum c_alpha * d**(1-alpha); the residual is O(exp(-2*pi*d)).
ROW_ASYMPTOTIC_DISTANCE = 24


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
        return -L <= x1 <= L and -L <= x2 <= L


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
    M = em_crossover
    if isinstance(start, (int, np.integer)) or np.ndim(start) == 0:
        m = int(start) + 1.0 + shift
        if m <= 0:
            raise ValueError("summand base must stay positive")
        n = max(math.ceil(M - m), 0)
        total = 0.0
        for i in range(n - 1, -1, -1):
            total += (m + i) ** (-alpha)
        return total + _em_tail(alpha, m + n)
    m = np.asarray(start, dtype=np.float64) + 1.0 + shift
    lo = float(m.min())
    if lo <= 0:
        raise ValueError("summand base must stay positive")
    n = max(math.ceil(M - lo), 0)
    out = _em_tail(alpha, np.maximum(m, lo + n))
    head = m < lo + n
    if head.any():
        suffix = np.cumsum((lo + np.arange(n - 1, -1, -1.0)) ** (-alpha))[::-1]
        out[head] += suffix[np.rint(m[head] - lo).astype(np.int64)]
    return out


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


@lru_cache(maxsize=2048)
def _half_row_sum(alpha: float, d: int, start: int, em_crossover: int = EM_CROSSOVER) -> float:
    """Sum_{k >= start} (k^2 + d^2)^(-alpha/2) for a 2d lattice row segment."""
    if start < 1:
        raise ValueError("start must be >= 1")
    if d == 0:
        return hurwitz_tail(alpha, 0.0, start - 1, em_crossover)
    K = max(start - 1, 16 * d, 1000)
    direct = 0.0
    if K >= start:
        ks = np.arange(start, K + 1, dtype=np.float64)
        direct = float(np.sum((ks * ks + float(d) * d) ** (-alpha / 2.0)))
    # binomial expansion of (1 + (d/k)^2)^(-alpha/2); next term is O((d/K)^8)
    a = alpha
    c = [1.0, -a / 2.0, a * (a + 2.0) / 8.0, -a * (a + 2.0) * (a + 4.0) / 48.0]
    tail = 0.0
    for j, cj in enumerate(c):
        tail += cj * float(d) ** (2 * j) * hurwitz_tail(a + 2 * j, 0.0, K, em_crossover)
    return direct + tail


@lru_cache(maxsize=1024)
def _full_row_sum(alpha: float, d: int, em_crossover: int = EM_CROSSOVER) -> float:
    """Sum over a whole lattice row at vertical distance d >= 1."""
    return float(d) ** (-alpha) + 2.0 * _half_row_sum(alpha, d, 1, em_crossover)


def _row_asymptotic_coeff(alpha: float) -> float:
    """Integral of (t^2 + 1)^(-alpha/2): sqrt(pi) Gamma((a-1)/2) / Gamma(a/2)."""
    return math.sqrt(math.pi) * math.gamma((alpha - 1.0) / 2.0) / math.gamma(alpha / 2.0)


# ---------------------------------------------------------------------------
# boundary conditions


@dataclass(frozen=True)
class Interval:
    """1d region lo <= y <= hi; None endpoints are unbounded."""

    lo: Union[int, None]
    hi: Union[int, None]

    def contains(self, y: Site) -> bool:
        return (self.lo is None or y >= self.lo) and (self.hi is None or y <= self.hi)

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None


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

    def matches(self, y: Site) -> bool:
        return self.region.contains(y)

    def spin(self, y: Site) -> int:
        return self.fill.spin(y)

    def flipped(self) -> "RegionRule":
        return RegionRule(self.region, self.fill.flipped())


@dataclass(frozen=True)
class PatternRule:
    """Explicit finite pattern; assignments is a sorted tuple of (site, spin)."""

    assignments: tuple

    def matches(self, y: Site) -> bool:
        return any(s == y for s, _ in self.assignments)

    def spin(self, y: Site) -> int:
        for s, v in self.assignments:
            if s == y:
                return v
        raise KeyError(y)

    def flipped(self) -> "PatternRule":
        return PatternRule(tuple((s, -v) for s, v in self.assignments))


@dataclass(frozen=True)
class BoundaryCondition:
    """Ordered piecewise fill of the exterior; the first matching rule wins.

    The final rule must cover everything (an Everywhere region), so the
    unbounded part always has a constant or alternating analytic tail.
    """

    rules: tuple
    name: str = ""

    def __post_init__(self):
        if not self.rules or not isinstance(self.rules[-1], RegionRule) or \
                not isinstance(self.rules[-1].region, Everywhere):
            raise ValueError("boundary condition needs a trailing Everywhere rule")

    def spin_at(self, y: Site) -> int:
        for rule in self.rules:
            if rule.matches(y):
                return rule.spin(y)
        raise AssertionError("unreachable: trailing rule covers everything")

    def flipped(self) -> "BoundaryCondition":
        return BoundaryCondition(tuple(r.flipped() for r in self.rules),
                                 name=f"flipped({self.name})" if self.name else "")

    def with_pattern(self, assignments: Mapping[Site, int]) -> "BoundaryCondition":
        """Overlay an explicit finite pattern in front of the existing rules."""
        pat = PatternRule(tuple(sorted(assignments.items(), key=lambda kv: str(kv[0]))))
        return BoundaryCondition((pat,) + self.rules, name=f"{self.name}+pattern")

    def finite_extent(self) -> int:
        """Largest |coordinate| pinned by bounded regions or patterns."""
        ext = 0
        for rule in self.rules:
            if isinstance(rule, PatternRule):
                for s, _ in rule.assignments:
                    coords = s if isinstance(s, tuple) else (s,)
                    ext = max(ext, max(abs(c) for c in coords))
            elif isinstance(rule.region, Interval):
                for b in (rule.region.lo, rule.region.hi):
                    if b is not None:
                        ext = max(ext, abs(b))
            elif isinstance(rule.region, HalfPlane):
                ext = max(ext, abs(rule.region.boundary))
        return ext

    # -- row structure used by the 2d isotropic field path ----------------

    def row_sign(self, y2: int) -> int:
        """Constant fill of row y2, ignoring finite pattern overrides (2d
        rules only; `_field_vector` checks them)."""
        for rule in self.rules:
            if isinstance(rule, PatternRule):
                continue
            if isinstance(rule.region, Everywhere) or rule.region.contains((0, y2)):
                return rule.fill.value
        raise AssertionError("unreachable")

    def pattern_sites(self) -> list:
        out = []
        for rule in self.rules:
            if isinstance(rule, PatternRule):
                out.extend(rule.assignments)
        return out


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


def left_neighborhood_bc(sign: int, N: int, L: int) -> BoundaryCondition:
    """Past fixed near an alternating window: alternating on [-L, -1],
    `sign` on the annulus [-N, -L-1], plus beyond on both sides."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return BoundaryCondition(
        (RegionRule(Interval(-L, -1), AlternatingFill(1)),
         RegionRule(Interval(-N, -L - 1), ConstFill(sign)),
         RegionRule(Everywhere(), ConstFill(1))),
        name=f"left_neighborhood({'+' if sign > 0 else '-'},N={N},L={L})",
    )


def frozen_interval_bc(lo: int, hi: int, inner: int = -1, outer: int = 1) -> BoundaryCondition:
    """`inner` on [lo, hi], `outer` elsewhere (wetting-style exterior)."""
    return BoundaryCondition(
        (RegionRule(Interval(lo, hi), ConstFill(inner)),
         RegionRule(Everywhere(), ConstFill(outer))),
        name=f"frozen[{lo},{hi}]",
    )


def pattern_bc(assignments: Mapping[Site, int], base: BoundaryCondition = None) -> BoundaryCondition:
    """Explicit finite pattern over a base condition (default: free)."""
    return (base or free_bc()).with_pattern(assignments)


# ---------------------------------------------------------------------------
# boundary fields


def _tail_fill(bc: BoundaryCondition, probe: Site):
    """Fill of an entire unbounded ray tail; `probe` is any tail site."""
    for rule in bc.rules:
        if isinstance(rule, RegionRule) and rule.matches(probe):
            return rule.fill
    raise AssertionError("unreachable")


def _power_sum(xs: np.ndarray, ys: np.ndarray, spins: np.ndarray, alpha: float) -> np.ndarray:
    """Sum_y |y - x|^(-alpha) * spins[y] for every x: the power matrix of the
    near zone times its spins (a vector or one column per line), built in row
    blocks of at most NEAR_BLOCK_BYTES."""
    out = np.zeros((xs.size,) + spins.shape[1:])
    if ys.size:
        step = max(1, NEAR_BLOCK_BYTES // (8 * ys.size))
        for i in range(0, xs.size, step):
            d = np.abs(ys[None, :] - xs[i:i + step, None]).astype(np.float64)
            out[i:i + step] = d ** (-alpha) @ spins
    return out


def _ray_field(vol: Volume, bc: BoundaryCondition, alpha: float, axis: int,
               em_crossover: int) -> np.ndarray:
    """Unit-amplitude ray part of h: Sum_y |y - x|^(-alpha) omega_y over the
    exterior sites y on the line through x along `axis`, in the volume's
    shape.  A 1d chain is one line; in 2d each row (axis 0) or column
    (axis 1) is one.  On each side the near zone out to the pinned extent W
    is read once and summed as one power-matrix product over all lines; each
    line then adds its analytic tail beyond W: a Hurwitz tail for a constant
    fill, the alternating (Boole) tail for a 1d alternating fill."""
    L = vol.half_width
    xs = np.arange(-L, L + 1)
    W = max(L, bc.finite_extent())
    if vol.dimension == 1:
        lines, site = [0], (lambda c, t: t)
    else:
        lines = xs.tolist()
        site = (lambda c, t: (c, t)) if axis else (lambda c, t: (t, c))
    shape = (vol.side,) * vol.dimension           # h[along, line]
    h = np.zeros(shape)
    for direction in (+1, -1):
        ys = direction * np.arange(L + 1, W + 1)
        spins = np.array([bc.spin_at(site(c, y)) for y in ys.tolist() for c in lines],
                         dtype=np.float64).reshape(ys.shape + shape[1:])
        h += _power_sum(xs, ys, spins, alpha)
        fills = [_tail_fill(bc, site(c, direction * (W + 1))) for c in lines]
        starts = W - direction * xs
        if isinstance(fills[0], AlternatingFill):  # (-1)^y = (-1)^x (-1)^k at distance k
            h += fills[0].phase * (1 - 2 * (xs % 2)) \
                * alternating_tail(alpha, 0.0, starts, em_crossover)
        elif any(values := [f.value for f in fills]):
            tail = hurwitz_tail(alpha, 0.0, starts, em_crossover)
            h += values[0] * tail if vol.dimension == 1 else np.outer(tail, values)
    return h.T if axis else h


def _add_nn_bonds(h: np.ndarray, vol: Volume, bc: BoundaryCondition, strength: float,
                  axes) -> None:
    """h += strength * omega_y for each exterior nearest neighbor y along
    `axes`; h has shape (side,) * dimension."""
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
    """Power-law part of h[x1, x2] for 2d isotropic couplings: every exterior
    row adds its sign times its row sum to the whole array, in row order,
    then the pattern overrides; row signs are read once per vector."""
    L = vol.half_width
    alpha = spec.alpha
    if alpha <= 2:
        raise ValueError("2d isotropic tails need alpha > 2")
    amp = spec.strength if isinstance(spec, PowerLaw) else 1.0
    cs = np.arange(-L, L + 1)
    bmax = max((abs(r.region.boundary) for r in bc.rules
                if isinstance(r, RegionRule) and isinstance(r.region, HalfPlane)),
               default=0)
    y_bound = max(L, bmax) + ROW_ASYMPTOTIC_DISTANCE + L
    sign = {y2: bc.row_sign(y2) for y2 in range(-y_bound - 1, y_bound + 2)}

    h = np.zeros((vol.side, vol.side))
    half = None                          # half[x1, d]: both half rows at distance d
    for y2 in range(-y_bound, y_bound + 1):
        s = sign[y2]
        if s == 0:
            continue
        d = np.abs(y2 - cs)
        if abs(y2) <= L:
            if half is None:
                half = np.array([[_half_row_sum(alpha, k, L + 1 - x1, em_crossover)
                                  + _half_row_sum(alpha, k, L + 1 + x1, em_crossover)
                                  for k in range(vol.side)] for x1 in range(-L, L + 1)])
            h += s * half[:, d]
        else:
            h += s * np.array([_full_row_sum(alpha, int(k), em_crossover) for k in d])

    # rows beyond y_bound: Poisson asymptotic row sums, then a Hurwitz tail
    c = _row_asymptotic_coeff(alpha)
    for s, starts in ((sign[y_bound + 1], y_bound - cs), (sign[-y_bound - 1], y_bound + cs)):
        if s:
            h += s * c * hurwitz_tail(alpha - 1.0, 0.0, starts, em_crossover)
    h *= amp

    # finite pattern overrides relative to the row baseline
    for site, val in bc.pattern_sites():
        delta = val - bc.row_sign(site[1])
        if delta and not vol.contains(site):
            h += delta * coupling_row(vol, spec, site).reshape(h.shape)
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
    """The one field builder.  1d chains and axis couplings sum their rays
    with _ray_field (a chain is one line; axis couplings walk the rows, and
    the columns too when the vertical coupling is a power law); 2d isotropic
    couplings add their row sums to the whole array (_isotropic_field);
    nearest-neighbor bonds come last.  Exterior rules of the other
    dimension are rejected first."""
    validate_coupling(spec, vol.dimension)
    for rule in bc.rules:
        if not isinstance(rule, RegionRule):
            continue
        if vol.dimension == 2 and isinstance(rule.region, Interval):
            raise ValueError("1d interval rule in a 2d boundary condition")
        if vol.dimension == 2 and isinstance(rule.fill, AlternatingFill):
            raise ValueError("alternating fills are 1d-only")
        if vol.dimension == 1 and isinstance(rule.region, HalfPlane):
            raise ValueError("half-plane rule in a 1d boundary condition")
    nn, axes = getattr(spec, "nn_strength", 0.0), range(vol.dimension)
    if isinstance(spec, AnisotropicAxes):
        h = _ray_field(vol, bc, spec.horizontal_alpha, 0, em_crossover)
        if spec.vertical != "nn":
            h += _ray_field(vol, bc, float(spec.vertical), 1, em_crossover)
        nn, axes = (1.0 if spec.vertical == "nn" else 0.0), (1,)
    elif isinstance(spec, NearestNeighbor):
        h, nn = np.zeros((vol.side,) * vol.dimension), spec.strength
    elif vol.dimension == 1:
        h = getattr(spec, "strength", 1.0) * _ray_field(vol, bc, spec.alpha, 0, em_crossover)
    else:
        h = _isotropic_field(vol, spec, bc, em_crossover)
    if nn:
        _add_nn_bonds(h, vol, bc, nn, axes)
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


def check_frozen(vol: Volume, frozen: Mapping = None) -> dict:
    """Checked copy of a partial pattern {site: +-1} over volume sites."""
    frozen = dict(frozen or {})
    for site, v in frozen.items():
        if not vol.contains(site):
            raise ValueError(f"frozen site {site} outside the volume")
        if v not in (-1, 1):
            raise ValueError("frozen spins must be +-1")
    return frozen


def all_plus(vol: Volume) -> np.ndarray:
    return np.ones(vol.n_sites, dtype=np.int8)


def all_minus(vol: Volume) -> np.ndarray:
    return -np.ones(vol.n_sites, dtype=np.int8)


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


@dataclass(frozen=True)
class SplitSums:
    """Boltzmann sums of one split enumeration, all but log Z normalized by Z."""

    log_z: float
    mean: np.ndarray            # <s_i>
    second: np.ndarray = None   # <s_i s_j>, when requested
    folded: np.ndarray = None   # sum of fold(S, p) over the tiles, when a fold is given


def _half_table(J: np.ndarray, c: np.ndarray, beta: float, S: np.ndarray) -> tuple:
    """Spin rows as floats, with their log weights beta * (s.J.s / 2 + c.s)."""
    Sf = S.astype(np.float64)
    return Sf, beta * (0.5 * np.einsum("ki,ki->k", Sf @ J, Sf) + Sf @ c)


def _split_sums(J: np.ndarray, c: np.ndarray, beta: float, second: bool = False,
                fold=None) -> SplitSums:
    """Sums over all 2**n spin vectors of w(s) = exp(beta * (s.J.s / 2 + c.s)),
    J symmetric.

    Three-block split (R. Williams, Theor. Comput. Sci. 348, 357 (2005)):
    contiguous blocks Y (first (n + 1) // 3 sites), X and W (last n // 3),
    so the end blocks Y and W are the most weakly coupled pair.  As the
    couplings are pairwise, w(y, x, w) = A[y, x] B[x, w] C[y, w], with the
    Y-X term and the Y and X weights in A, the X-W term and the W weight in
    B, the Y-W term in C.  (A @ B) * C, (A.T @ C) * B and, with `second`,
    (C @ B.T) * A weigh the (y, w), (x, w) and (y, x) pairs.  No exp is
    taken per configuration; memory is a few 2**(2n/3)-entry matrices
    (512 KiB each at n = 24) plus one fold tile.

    Rows are shifted by their maxima before exp, so each row of A @ B peaks
    at 1 and of (A @ B) * C at >= exp(-2 beta ||J_YW||_1), summing absolute
    entries: full precision while 2 beta ||J_YW||_1 < ~700.  Past that only
    frustrated cases lose it, and a Z whose largest term may be subnormal
    raises CapacityError.

    `fold(start, p)`, when given, receives tiles of whole W rows, about
    TILE_BYTES: the enumeration index `start` of the tile's first
    configuration (bit b of the index is site b, as in iter_spin_blocks) and
    the probabilities p of configurations start, start + 1, ..., start +
    p.size - 1.  It returns an array; `folded` is the sum of those arrays.
    No configuration tile is built: a fold that needs the spins reads them
    from its own table or from util.spin_rows.
    """
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
    if z < 2.0 ** (n - 970):        # the largest of the 2**n terms may be subnormal
        raise CapacityError("Boltzmann sums beyond the three-block kernel's scaling range")
    f /= z                          # the probability of (y, x, w) is f_y A B C
    A *= f[:, None]
    P_YW *= f[:, None]
    P_XW = (A.T @ C) * B
    p_rows = np.concatenate([P_YW.sum(axis=1), P_XW.sum(axis=1), P_YW.sum(axis=0)])
    mean = p_rows @ S               # p_rows: the marginal of each table row

    pairs = None
    if second:
        pairs = (S.T * p_rows) @ S
        cross = S[rY].T @ ((C @ B.T) * A) @ S[rX] + S[rY].T @ P_YW @ S[rW] \
            + S[rX].T @ P_XW @ S[rW]
        pairs += cross + cross.T

    folded = 0.0
    if fold is not None:
        # tiles of whole W rows, each with every (x, y): enumeration order;
        # 8n bytes per configuration beyond its probability leave room for
        # a fold that builds the tile's spin rows, even as floats
        rows = max(1, TILE_BYTES // (8 * (n + 1) * A.size))
        At, Ct = np.ascontiguousarray(A.T), np.ascontiguousarray(C.T)
        for start in range(0, C.shape[1], rows):
            w = slice(start, start + rows)
            p = Ct[w, None, :] * At
            p *= B.T[w, :, None]
            folded = folded + fold(start * A.size, p.ravel())
    return SplitSums(top + math.log(z), mean, pairs,
                     None if fold is None else np.asarray(folded))


@lru_cache(maxsize=256)
def log_partition(vol: Volume, params: ModelParams, bc: BoundaryCondition) -> float:
    """log Z over all configurations (split enumeration, see _split_sums)."""
    n = vol.n_sites
    if n > ENUMERATION_SITE_CAP:
        raise CapacityError(f"{n} sites exceed the enumeration cap")
    J = coupling_matrix(vol, params.coupling)
    return float(_split_sums(J, site_fields(vol, params, bc), params.beta).log_z)


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
