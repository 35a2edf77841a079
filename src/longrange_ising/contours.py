"""Spin-flip geometry for 1d configurations: triangles, contours, the
interface point under split boundaries, and the energy bounds they control.

Triangles sit on the dual lattice (half-integer coordinates).  A maximal run
of minority spins opens a triangle; triangles closer than the smaller length
are merged, the swallowed gaps surviving as opposite-sign holes, so the
decomposition stays a bijection while the family satisfies the separation
rule dist(T, T') > min(|T|, |T'|) among equal-sign members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model
from .util import loglog_slope

#: Decay at which the removal-cost constant kappa changes sign.
KAPPA_ROOT_ALPHA = 3.0 - math.log2(3.0)


# ---------------------------------------------------------------------------
# geometry types


@dataclass(frozen=True)
class Triangle:
    """Dual-lattice span [left, right] carrying `sign` inside, with
    opposite-sign holes listed in `children`."""

    left: float
    right: float
    sign: int
    children: tuple = ()

    def __post_init__(self):
        if self.left >= self.right:
            raise ValueError("triangle needs left < right")
        for z in (self.left, self.right):
            if (z - 0.5) != int(z - 0.5):
                raise ValueError("triangle vertices live on the dual lattice")

    @property
    def length(self) -> int:
        return int(round(self.right - self.left))

    def span_sites(self) -> range:
        return range(int(self.left + 0.5), int(self.right + 0.5))

    def flipped_sites(self) -> list:
        hole = set()
        for child in self.children:
            hole.update(child.span_sites())
        return [s for s in self.span_sites() if s not in hole]


def triangle_distance(a: Triangle, b: Triangle) -> float:
    if a.left > b.left:
        a, b = b, a
    return b.left - a.right


def _too_close(a: Triangle, b: Triangle) -> bool:
    return triangle_distance(a, b) <= min(a.length, b.length)


def _first_close_pair(items: list, close):
    """First (i, j), i < j in row-major scan order, with close(items[i],
    items[j]); None when no pair is close."""
    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            if close(a, items[j]):
                return i, j
    return None


@dataclass(frozen=True)
class TriangleFamily:
    """Triangles ordered by non-increasing length (ties leftmost first)."""

    triangles: tuple

    def __post_init__(self):
        validate_family(self)

    def __len__(self):
        return len(self.triangles)

    def __iter__(self):
        return iter(self.triangles)

    def by_position(self) -> list:
        return sorted(self.triangles, key=lambda t: t.left)


def ordered_family(triangles) -> TriangleFamily:
    return TriangleFamily(tuple(sorted(triangles, key=lambda t: (-t.length, t.left))))


def validate_family(family: TriangleFamily) -> None:
    ts = list(family.triangles)
    for a, b in zip(ts, ts[1:]):
        if (-a.length, a.left) > (-b.length, b.left):
            raise ValueError("family must be ordered by non-increasing length")
    pos = sorted(ts, key=lambda t: t.left)
    for a, b in zip(pos, pos[1:]):
        if b.left < a.right:
            raise ValueError("triangle spans overlap")
    hit = _first_close_pair(pos, lambda a, b: a.sign == b.sign and _too_close(a, b))
    if hit is not None:
        a, b = pos[hit[0]], pos[hit[1]]
        raise ValueError(f"separation violated: dist {triangle_distance(a, b)} <= "
                         f"min({a.length}, {b.length})")


@dataclass(frozen=True)
class Contour:
    triangles: tuple

    @property
    def length(self) -> int:
        return sum(t.length for t in self.triangles)


def contour_distance(a: Contour, b: Contour) -> float:
    return min(triangle_distance(ta, tb) for ta in a.triangles for tb in b.triangles)


def _contours_close(C: float, delta: float):
    """Whether two contours violate dist > C * min(length)^delta."""
    return lambda a, b: contour_distance(a, b) <= C * min(a.length, b.length) ** delta


@dataclass(frozen=True)
class ContourFamily:
    contours: tuple

    def __len__(self):
        return len(self.contours)

    def __iter__(self):
        return iter(self.contours)


# ---------------------------------------------------------------------------
# flip points and decomposition


def _edge_spins(vol: model.Volume, bc: model.BoundaryCondition) -> tuple:
    if vol.dimension != 1:
        raise ValueError("flip points are 1d geometry")
    bc.check_dimension(1)
    L = vol.half_width
    lo, hi = bc.spin_at(-L - 1), bc.spin_at(L + 1)
    if lo == 0 or hi == 0:
        raise ValueError("flip points need definite boundary spins")
    return lo, hi


def _check_split(vol: model.Volume, bc: model.BoundaryCondition = None) -> None:
    """Raise unless `bc` (default dobrushin1d_bc()) is minus left, plus right."""
    if _edge_spins(vol, bc or model.dobrushin1d_bc()) != (-1, 1):
        raise ValueError("interface point needs minus-left/plus-right boundaries")


def spin_flip_points(vol: model.Volume, config, bc: model.BoundaryCondition) -> list:
    """Dual points k+1/2 where adjacent spins disagree, boundary included."""
    lo, hi = _edge_spins(vol, bc)
    ext = [lo] + model.as_configuration(vol, config).tolist() + [hi]
    L = vol.half_width
    return [float(k - L - 1) + 0.5 for k in range(len(ext) - 1) if ext[k] != ext[k + 1]]


def _merge_until_separated(triangles: list, sign: int) -> list:
    """Merge same-sign triangles violating dist > min(len); gaps become holes."""
    ts = sorted(triangles, key=lambda t: t.left)
    while (hit := _first_close_pair(ts, _too_close)) is not None:
        i, j = hit
        absorbed = ts[i:j + 1]
        children = []
        for t in absorbed:
            children.extend(t.children)
        for a, b in zip(absorbed, absorbed[1:]):
            children.append(Triangle(a.right, b.left, -sign))
        merged = Triangle(absorbed[0].left, absorbed[-1].right, sign,
                          tuple(sorted(children, key=lambda t: t.left)))
        ts = ts[:i] + [merged] + ts[j + 1:]
    return ts


def _decompose_segment(spins: list, first: int, background: int) -> list:
    """Triangles of the minority sign over the consecutive sites first,
    first + 1, ... carrying `spins`."""
    triangles, s = [], first
    for spin, run in itertools.groupby(spins):
        k = len(list(run))
        if spin == -background:
            triangles.append(Triangle(s - 0.5, s + k - 0.5, -background))
        s += k
    return _merge_until_separated(triangles, -background)


def _interface(L: int, spins: list) -> float:
    """interface_point of the spin list of sites -L..L under minus/plus
    boundaries.

    The candidates are the flip points with minus on the left and plus on
    the right.  Primary key: fewest minority sites (plus sites left of the
    point, minus sites right of it), counted directly; then closeness to the
    center; a remaining two-way tie is broken toward the side the center spin
    favors, which keeps the choice equivariant under reflect-and-flip.
    """
    ext = [-1] + spins + [1]
    if sum(a != b for a, b in zip(ext, ext[1:])) % 2 == 0:
        raise AssertionError("split boundaries always give an odd flip count")
    keyed = []
    for k in range(len(ext) - 1):          # dual point between sites k-L-1 and k-L
        if ext[k] == -1 and ext[k + 1] == 1:
            p = float(k - L - 1) + 0.5
            keyed.append((spins[:k].count(1) + spins[k:].count(-1), abs(p), p))
    best = min(keyed)[:2]
    pts = [p for count, dist, p in keyed if (count, dist) == best]
    if len(pts) == 1:
        return pts[0]
    return max(pts) if spins[L] == -1 else min(pts)


def interface_point(vol: model.Volume, config, bc: model.BoundaryCondition = None) -> float:
    """The unique unpaired flip point under minus/plus split boundaries."""
    cfg = model.as_configuration(vol, config)
    _check_split(vol, bc)
    return _interface(vol.half_width, cfg.tolist())


def interface_points(vol: model.Volume, S, bc: model.BoundaryCondition = None) -> np.ndarray:
    """interface_point of every row of S (k, n_sites), vectorized.

    Dual point j - L - 1/2 (j = 0..n) has minority count plus(S[:, :j]) +
    minus(S[:, j:]), read from prefix counts; the candidates, the key
    (count, |point|) and the center-spin tie-break are those of
    interface_point, which is the reference.
    """
    _check_split(vol, bc)
    S = np.asarray(S, dtype=np.int8)
    if S.ndim != 2 or S.shape[1] != vol.n_sites:
        raise ValueError(f"configurations need {vol.n_sites} spins per row")
    k, n = S.shape
    L = vol.half_width
    plus_left = np.zeros((k, n + 1), dtype=np.int16)
    np.cumsum(S == 1, axis=1, dtype=np.int16, out=plus_left[:, 1:])
    # minus to the right of j = (n - j) - plus to the right of j
    count = plus_left + (n - np.arange(n + 1, dtype=np.int16)) \
        - (plus_left[:, -1:] - plus_left)
    edge = np.ones((k, 1), dtype=np.int8)
    ascending = (np.hstack([-edge, S]) == -1) & (np.hstack([S, edge]) == 1)
    twice_abs = np.abs(2 * np.arange(n + 1, dtype=np.int16) - (2 * L + 1))
    key = np.where(ascending, count * (n + 1) + twice_abs, (n + 1) ** 2)
    best = key == key.min(axis=1, keepdims=True)      # one point, or a +-p pair
    first = np.argmax(best, axis=1)
    last = n - np.argmax(best[:, ::-1], axis=1)
    j = np.where(S[:, L] == -1, last, first)
    return j - (L + 0.5)


def triangles(vol: model.Volume, config, bc: model.BoundaryCondition) -> TriangleFamily:
    """Unique triangle family of a configuration (deterministic)."""
    cfg = model.as_configuration(vol, config)
    lo, hi = _edge_spins(vol, bc)
    L = vol.half_width
    spins = cfg.tolist()
    if lo == hi:
        parts = _decompose_segment(spins, -L, lo)
    elif (lo, hi) == (-1, 1):
        cut = int(_interface(L, spins) + L + 0.5)      # first site right of the point
        parts = _decompose_segment(spins[:cut], -L, -1) \
            + _decompose_segment(spins[cut:], cut - L, 1)
    else:
        raise ValueError("boundary must be homogeneous or a minus/plus split")
    return ordered_family(parts)


def reconstruct(vol: model.Volume, family: TriangleFamily,
                bc: model.BoundaryCondition, interface: float = None) -> np.ndarray:
    """The unique configuration whose decomposition is the family."""
    lo, hi = _edge_spins(vol, bc)
    L = vol.half_width
    if lo == hi:
        spins = [lo] * vol.n_sites
    elif interface is None:
        raise ValueError("split boundaries need the interface point")
    else:
        spins = [-1 if s < interface else 1 for s in range(-L, L + 1)]
    seen = set()
    for t in family:
        span = t.span_sites()
        if not seen.isdisjoint(span):
            raise ValueError("inconsistent family: overlapping spans")
        seen.update(span)
        for s in t.flipped_sites():
            if not -L <= s <= L:
                raise ValueError(f"triangle site {s} outside the volume")
            spins[s + L] = t.sign
    return np.array(spins, dtype=np.int8)


# ---------------------------------------------------------------------------
# contour grouping


def group_contours(family: TriangleFamily, C: float = 1.0, delta: float = 3.0) -> ContourFamily:
    """Merge triangle clusters violating dist > C * min(length)^delta.

    Distances only shrink and lengths only grow under merging, so the fixed
    point is independent of the merge order.
    """
    clusters = [Contour((t,)) for t in family.by_position()]
    while (hit := _first_close_pair(clusters, _contours_close(C, delta))) is not None:
        i, j = hit
        merged = Contour(tuple(sorted(clusters[i].triangles + clusters[j].triangles,
                                      key=lambda t: t.left)))
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    clusters.sort(key=lambda c: (-c.length, c.triangles[0].left))
    return ContourFamily(tuple(clusters))


def contour_separation_ok(fam: ContourFamily, C: float = 1.0, delta: float = 3.0) -> bool:
    return _first_close_pair(list(fam.contours), _contours_close(C, delta)) is None


# ---------------------------------------------------------------------------
# energies and bounds


def _relative_energy(vol: model.Volume, spec: model.CouplingSpec,
                     triangle_list) -> float:
    """Hamiltonian of the reconstructed configuration minus the all-plus one."""
    params = model.ModelParams(1.0, spec)
    bc = model.plus_bc()
    fam = ordered_family(triangle_list) if not isinstance(triangle_list, TriangleFamily) \
        else triangle_list
    cfg = reconstruct(vol, fam, bc)
    return model.hamiltonian(vol, params, bc, cfg) \
        - model.hamiltonian(vol, params, bc, model.all_plus(vol))


def triangle_energy(vol: model.Volume, spec: model.CouplingSpec, triangle: Triangle) -> float:
    """Cost of the single triangle against the all-plus reference."""
    return _relative_energy(vol, spec, [triangle])


def removal_cost(vol: model.Volume, spec: model.CouplingSpec,
                 family: TriangleFamily, k: int) -> float:
    """H(T_k, ..., T_n) - H(T_{k+1}, ..., T_n) with energies relative to all-plus."""
    ts = list(family.triangles)
    if not 0 <= k < len(ts):
        raise ValueError("k out of range")
    with_k = _relative_energy(vol, spec, ts[k:])
    without = _relative_energy(vol, spec, ts[k + 1:]) if k + 1 < len(ts) else 0.0
    return with_k - without


def kappa(alpha: float) -> float:
    """Removal-cost constant 2 (3 - 2^(3 - alpha)); positive above its root."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError("kappa is defined for 1 < alpha <= 2")
    return 2.0 * (3.0 - 2.0 ** (3.0 - alpha))


def quasi_additivity_check(vol: model.Volume, spec: model.CouplingSpec,
                           families, zeta: float) -> tuple:
    """Min slack of H(all) - zeta H(first) - H(rest) over contour families.

    Returns (min slack, fraction of families with slack >= 0).
    """
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")
    slacks = []
    for fam in families:
        contours_ = list(fam.contours)
        spans = sorted((t.left, t.right) for c in contours_ for t in c.triangles)
        for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
            if l2 < r1:
                raise ValueError("contours must be mutually external")
        all_ts = [t for c in contours_ for t in c.triangles]
        head = list(contours_[0].triangles)
        rest = [t for c in contours_[1:] for t in c.triangles]
        h_all = _relative_energy(vol, spec, all_ts)
        h_head = _relative_energy(vol, spec, head)
        h_rest = _relative_energy(vol, spec, rest) if rest else 0.0
        slacks.append(h_all - zeta * h_head - h_rest)
    slacks = np.asarray(slacks)
    return float(slacks.min()), float(np.mean(slacks >= 0.0))


def peierls_entropy_bound(beta: float) -> float:
    """Closed form of sum_{l>=1} l 3^l exp(-2 beta l) = x / (1-x)^2."""
    threshold = math.log(3.0) / 2.0
    if beta <= threshold:
        raise ValueError(f"series diverges unless beta > ln(3)/2 = {threshold:.6f}")
    x = 3.0 * math.exp(-2.0 * beta)
    return x / (1.0 - x) ** 2


# ---------------------------------------------------------------------------
# droplet-cost scaling


@lru_cache(maxsize=4096)
def landau_excess_sum(alpha: float, L: int) -> float:
    """Droplet cost proxy (2L+1) * sum_{k >= L} k^(-alpha) behind the
    volume-dependent L^(2-alpha) growth of the flipping cost."""
    if L < 1:
        raise ValueError("L must be >= 1")
    return (2 * L + 1) * model.tail_coupling_sum(alpha, L - 1)


def landau_exponent_fit(alpha: float, Ls) -> float:
    """Least-squares log-log slope of the droplet cost over the L ladder."""
    Ls = list(Ls)
    if len(Ls) < 4:
        raise ValueError("need at least 4 ladder points")
    return loglog_slope(Ls, [landau_excess_sum(alpha, L) for L in Ls])


def excess_energy_exponent_fit(alpha: float, Ls) -> float:
    """Same fit on the exact finite-volume excess energy."""
    values = [model.excess_energy(model.Volume(1, L), model.PowerLaw(1.0, alpha))
              for L in Ls]
    return loglog_slope(Ls, values)


# ---------------------------------------------------------------------------
# serialization (text format used by the command line)


def serialize_configuration(vol: model.Volume, config) -> str:
    cfg = model.as_configuration(vol, config)
    return "\n".join(f"{s}:{int(cfg[vol.index(s)]):+d}" for s in vol.sites())


def parse_configuration(text: str) -> tuple:
    """Inverse of serialize_configuration; malformed text raises ValueError."""
    lines = text.strip().splitlines()
    pairs = dict(tuple(int(v) for v in line.split(":")) for line in lines)
    vol = model.Volume(1, max(abs(s) for s in pairs))
    if not len(lines) == len(pairs) == vol.n_sites or set(pairs.values()) - {-1, 1}:
        raise ValueError("configuration needs one spin +1 or -1 at each site -L..L")
    return vol, model.as_configuration(vol, [pairs[s] for s in vol.sites()])


def serialize_family(family: TriangleFamily) -> str:
    lines = []
    for t in family:
        lines.append(f"{t.left},{t.right},{t.sign:+d}")
        for c in t.children:
            lines.append(f"  {c.left},{c.right},{c.sign:+d}")
    return "\n".join(lines)
