"""Mechanized two-dimensional obstruction to local fermionic sign rules.

Two independent checks:

- A geometric witness search: three sites s1 < s2 < s3 (row-major order)
  with s1 and s3 joined by a footprint path that stays everywhere far from
  s2, found by one breadth-first search per s1. Such a triple is what
  forces a faraway order flip in 2D; in a one-dimensional (height-1)
  lattice no such path exists.
- A constraint problem over +/-1 phases attached to pairs of single-step
  particle moves that come within a configurable radius of each other. Each
  two-particle state and evolution branch demands the phase product equal
  the fermionic reordering sign. Both dimensions read their moves from a
  FootprintSpec. The 1D instance (CHAIN_SPEC) is satisfiable and
  reproduces the -1-on-crossing rule of the automaton gates; the generic 2D
  instance is unsatisfiable. A local pair's sign is forced by its translation
  class, so UNSAT has one certificate: far-separated pairs whose order flips.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass(frozen=True, order=False)
class Site2D:
    i: int
    j: int
    eps: int  # internal-state label, 0-based

    def order_key(self):
        # row first, then column, then label (Minus-like label 0 first)
        return (self.j, self.i, self.eps)

    def __lt__(self, other: "Site2D") -> bool:
        return self.order_key() < other.order_key()


def chebyshev(a: Site2D, b: Site2D) -> int:
    return max(abs(a.i - b.i), abs(a.j - b.j))


CORNERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# the longest side find_witness_triple searches: _sites builds every site
MAX_WITNESS_SIDE = 201
# the most internal states a footprint spec has
MAX_EPS = 4
# sign_csp's instances: radius up to MAX_RADIUS, and per dimension a
# lattice_size from MIN_CSP_SIDE up to that dimension's cap
MAX_RADIUS = 2
MIN_CSP_SIDE = 2
MAX_CSP_SIDE = {1: 9, 2: 7}


@dataclass(frozen=True)
class FootprintSpec:
    """Support pattern of the one-step move coefficients.

    targets[eps][(di, dj)] is the frozenset of internal states reachable by
    the step (di, dj) from a particle in state eps; a step may be any
    displacement, as CHAIN_SPEC's (+-1, 0). The 2D specs step by the
    diagonal CORNERS: full_spec to every label, trivial_spec to one corner.
    """

    num_eps: int
    targets: dict

    def __post_init__(self):
        if not 1 <= self.num_eps <= MAX_EPS:
            raise ValueError(f"internal-state count limited to {MAX_EPS}")

    def corner_targets(self, eps: int, corner) -> frozenset:
        return self.targets[eps].get(corner, frozenset())


def full_spec(num_eps: int = 2) -> FootprintSpec:
    everything = frozenset(range(num_eps))
    return FootprintSpec(
        num_eps, {e: {c: everything for c in CORNERS} for e in range(num_eps)}
    )


def trivial_spec(num_eps: int = 2) -> FootprintSpec:
    """Everything marches to the (+1, +1) corner keeping its label."""
    return FootprintSpec(
        num_eps, {e: {(1, 1): frozenset({e})} for e in range(num_eps)}
    )


# one-step moves of the 1D automaton on a height-1 lattice: Plus (label 1)
# hops right, Minus (label 0) left, and either may flip its label (the theta
# branches)
CHAIN_SPEC = FootprintSpec(2, {1: {(1, 0): frozenset({0, 1})}, 0: {(-1, 0): frozenset({0, 1})}})


@dataclass(frozen=True)
class LatticeBounds:
    width: int
    height: int

    def contains(self, s: Site2D) -> bool:
        return 0 <= s.i < self.width and 0 <= s.j < self.height


def _sites(bounds: LatticeBounds, num_eps: int) -> list[Site2D]:
    """Every site of the lattice, in canonical order."""
    rows, cols, labels = range(bounds.height), range(bounds.width), range(num_eps)
    return [Site2D(i, j, e) for j in rows for i in cols for e in labels]


def footprint(s: Site2D, spec: FootprintSpec, bounds: LatticeBounds) -> set[Site2D]:
    out = set()
    for (di, dj), labels in spec.targets[s.eps].items():
        for eps2 in labels:
            t = Site2D(s.i + di, s.j + dj, eps2)
            if bounds.contains(t):
                out.add(t)
    return out


@dataclass
class WitnessTriple:
    s1: Site2D
    s2: Site2D
    s3: Site2D
    path: list[Site2D]

    def violations(self, spec: FootprintSpec, bounds: LatticeBounds, min_distance: int) -> int:
        """How many witness conditions the triple breaks; 0 for a valid one.

        Counts s1 < s2 < s3 failing, a path that does not run from s1 to s3,
        each path step outside its site's footprint and each path site
        closer than min_distance to s2.
        """
        path = self.path
        return (
            (not self.s1 < self.s2 < self.s3)
            + (not path or path[0] != self.s1 or path[-1] != self.s3)
            + sum(nxt not in footprint(prev, spec, bounds) for prev, nxt in zip(path, path[1:]))
            + sum(chebyshev(s, self.s2) < min_distance for s in path)
        )

    def to_json_obj(self) -> dict:
        return {
            "type": "witness",
            "sites": [asdict(self.s1), asdict(self.s2), asdict(self.s3)],
            "path": [asdict(s) for s in self.path],
        }


def find_witness_triple(
    spec: FootprintSpec, bounds: LatticeBounds, min_distance: int
) -> WitnessTriple | None:
    """First witness triple on the bounded lattice, or None.

    s2 sits near the center; s1 and s3 are scanned outward on opposite sides
    of s2 in the canonical order, so small witnesses surface first. The path
    is the shortest footprint path s1 -> s3 through sites at least
    min_distance from s2. Each s1 gets one breadth-first search, resumed for
    each s3 until it is reached or the search runs dry; a site's parent is
    fixed when the site is first reached, so resuming finds the path a fresh
    search from s1 would. When every move of spec has an even di + dj, as
    the diagonal CORNERS do, an s3 of the other parity of i+j is skipped.
    """
    parity_kept = all((di + dj) % 2 == 0 for moves in spec.targets.values() for di, dj in moves)
    ci, cj = bounds.width // 2, bounds.height // 2
    all_sites = _sites(bounds, spec.num_eps)
    for e2 in range(spec.num_eps):
        s2 = Site2D(ci, cj, e2)
        below = [s for s in all_sites if s < s2 and chebyshev(s, s2) >= min_distance]
        above = [s for s in all_sites if s2 < s and chebyshev(s, s2) >= min_distance]
        below.sort(key=lambda s: chebyshev(s, s2))
        above.sort(key=lambda s: chebyshev(s, s2))
        for s1 in below:
            prev: dict[Site2D, Site2D] = {s1: s1}
            queue = deque([s1])
            for s3 in above:
                if parity_kept and (s1.i + s1.j) % 2 != (s3.i + s3.j) % 2:
                    continue
                while s3 not in prev and queue:
                    s = queue.popleft()
                    for t in footprint(s, spec, bounds):
                        if t not in prev and chebyshev(t, s2) >= min_distance:
                            prev[t] = s
                            queue.append(t)
                if s3 in prev:
                    path = [s3]
                    while path[-1] != s1:
                        path.append(prev[path[-1]])
                    return WitnessTriple(s1, s2, s3, path[::-1])
    return None


# ---------------------------------------------------------------------------
# sign constraint problem


def _normalize_pair(s1: Site2D, t1: Site2D, s2: Site2D, t2: Site2D):
    """Translation-invariant key for an unordered pair of moves s -> t."""
    di, dj = min(s1.i, s2.i), min(s1.j, s2.j)
    tup = lambda s, t: (s.i - di, s.j - dj, s.eps, t.i - di, t.j - dj, t.eps)
    return tuple(sorted((tup(s1, t1), tup(s2, t2))))


@dataclass
class CspResult:
    sat: bool
    assignment: dict | None
    violated: list = field(default_factory=list)
    num_constraints: int = 0

    def to_json_obj(self) -> dict:
        if self.sat:
            rule = sorted((list(map(list, key)), val) for key, val in self.assignment.items())
            return {"type": "sat", "rule": rule, "constraints": self.num_constraints}
        return {
            "type": "unsat",
            "violated_constraints": self.violated,
            "constraints": self.num_constraints,
        }


def check_csp_size(dimension: int, radius: int, lattice_size: int) -> None:
    """Raise unless sign_csp supports this instance."""
    if lattice_size < MIN_CSP_SIDE:
        raise ValueError(f"lattice_size must be >= {MIN_CSP_SIDE}, so that a pair of cells fits")
    if radius > MAX_RADIUS:
        raise ValueError(f"radius <= {MAX_RADIUS} supported")
    if dimension not in MAX_CSP_SIDE:
        raise ValueError("dimension must be 1 or 2")
    cap = MAX_CSP_SIDE[dimension]
    if lattice_size > cap:
        raise ValueError(f"{dimension}D instance limited to {cap} per side")


def min_witness_size(min_distance: int, height: int | None = None) -> int | None:
    """Smallest lattice_size that holds a witness triple; None if none does.

    From min_distance 2 on, the path rounds s2 left of it, from the row below
    to the row above: 2*min_distance + 2 columns. With two rows, s3 sits right
    of s2 in its row: one column more. At min_distance 1 it may pass next to s2.
    A square lattice (height None) is as tall as it is wide.
    """
    if height == 1:
        return None
    if min_distance == 1:
        return 2 if height is not None and height >= 3 else 3
    return 2 * min_distance + (3 if height == 2 else 2)


def csp_satisfiable(dimension: int, radius: int, lattice_size: int, trivial: bool) -> bool:
    """sign_csp's answer on every instance check_csp_size accepts, read off a sweep.

    1D needs radius >= 1; the trivial 2D footprint always has a rule; the
    full one has one exactly when lattice_size <= 2*radius.
    """
    if dimension == 1:
        return radius >= 1
    return trivial or lattice_size <= 2 * radius


def check_witness_size(lattice_size: int, min_distance: int, height: int | None) -> None:
    """Raise unless lattice_size is large enough to hold a witness.

    A height-1 lattice holds no witness at any size, so there every
    lattice_size passes.
    """
    smallest = min_witness_size(min_distance, height)
    if smallest is not None and lattice_size < smallest:
        raise ValueError(
            f"a witness at min_distance {min_distance}, height {height} "
            f"needs lattice_size >= {smallest}, got lattice_size {lattice_size}"
        )


def sign_csp(dimension: int, radius: int, spec: FootprintSpec, lattice_size: int = 5) -> CspResult:
    """Search for a local pairwise phase rule matching all reordering signs.

    A pair of moves is local when the two particles come within Chebyshev
    distance <= radius before or after the step; only local pairs own a
    phase variable. Every nonlocal pair whose image order flips is a
    violated constraint, and any such pair certifies UNSAT.

    The moves are spec's in either dimension (CHAIN_SPEC for the 1D
    automaton); dimension sets only the lattice height (1, or square in 2D)
    and the size cap.

    Each (site pair, move, move) candidate is one entry of a (pair, m1, m2)
    array whose C order is the enumeration order (site pairs in combinations
    order, then each site's moves in footprint's order), kept among equal
    separations. Distances are taken per axis: a pair's separation is the larger of its
    two axis gaps, and its images are within radius when both of their axis
    gaps are, so no array of image distances is built.
    """
    check_csp_size(dimension, radius, lattice_size)
    bounds = LatticeBounds(lattice_size, 1 if dimension == 1 else lattice_size)
    sites = _sites(bounds, spec.num_eps)
    moves = [list(footprint(s, spec, bounds)) for s in sites]

    # padded (axis, site, move) tables: destination coordinate, and the
    # destination's order key (j, i, eps) as one integer, -1 on padding; the
    # size caps keep cells below 10 and, with up to 4 labels, keys below 200:
    # no int8/int16 wrap
    dst = np.zeros((2, len(sites), max(map(len, moves))), np.int8)
    key = np.full(dst.shape[1:], -1, np.int16)
    for a, row in enumerate(moves):
        for b, t in enumerate(row):
            dst[:, a, b] = t.i, t.j
            key[a, b] = (t.j * lattice_size + t.i) * spec.num_eps + t.eps
    src = np.array([[s.i for s in sites], [s.j for s in sites]], np.int8)

    p1, p2 = np.triu_indices(len(sites), 1)
    separation = np.maximum(*np.abs(src[:, p1] - src[:, p2]))
    k1, k2 = key[p1][:, :, None], key[p2][:, None, :]
    unblocked = (k1 >= 0) & (k2 >= 0) & (k1 != k2)  # distinct images: not Pauli-blocked
    # the images' Chebyshev distance is within radius exactly when each axis's is
    local = np.logical_and(*(np.abs(d[p1][:, :, None] - d[p2][:, None, :]) <= radius for d in dst))
    local |= (separation <= radius)[:, None, None]
    flip = k1 > k2  # s1 < s2, so the required sign is -1 exactly on a flip
    total = int(np.count_nonzero(unblocked))

    violated = np.flatnonzero(unblocked & ~local & flip)
    if violated.size:
        pair = violated // (key.shape[1] ** 2)
        first = violated[np.argsort(-separation[pair], kind="stable")[:10]]
        certificate = [
            {
                "pair": [asdict(sites[p1[p]]), asdict(sites[p2[p]])],
                "images": [asdict(moves[p1[p]][b1]), asdict(moves[p2[p]][b2])],
                "separation": int(separation[p]),
            }
            for p, b1, b2 in zip(*np.unravel_index(first, flip.shape))
        ]
        return CspResult(False, None, certificate, total)

    # translation keeps the order of both sources and of both images, so
    # every candidate with one key demands the same sign
    assignment = {}
    for p, b1, b2 in zip(*np.nonzero(unblocked & local)):
        a1, a2 = p1[p], p2[p]
        k = _normalize_pair(sites[a1], moves[a1][b1], sites[a2], moves[a2][b2])
        assignment[k] = -1 if flip[p, b1, b2] else 1
    return CspResult(True, assignment, [], total)
