"""Mechanized two-dimensional obstruction to local fermionic sign rules.

Two independent checks:

- A geometric witness search: three sites s1 < s2 < s3 (row-major order)
  with s1 and s3 joined by a footprint path that stays everywhere far from
  s2. Such a triple is what forces a faraway order flip in 2D; in a
  one-dimensional (height-1) lattice no such path exists.
- A constraint problem over +/-1 phases attached to pairs of single-step
  particle moves that come within a configurable radius of each other. Each
  two-particle state and evolution branch demands the phase product equal
  the fermionic reordering sign. The 1D instance is satisfiable and
  reproduces the -1-on-crossing rule of the automaton gates; the generic 2D
  instance is unsatisfiable, with far-separated violating pairs as the
  certificate.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field


class LatticeTooLargeError(Exception):
    pass


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


def canonical_order(a: Site2D, b: Site2D) -> int:
    """-1, 0 or +1 comparing a to b in the row/column/label order."""
    ka, kb = a.order_key(), b.order_key()
    return (ka > kb) - (ka < kb)


def chebyshev(a: Site2D, b: Site2D) -> int:
    return max(abs(a.i - b.i), abs(a.j - b.j))


CORNERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class FootprintSpec:
    """Support pattern of the one-step move coefficients.

    targets[eps][(c1, c2)] is the frozenset of internal states reachable at
    corner (c1, c2) from a particle in state eps. Every corner must be
    reachable for the dynamics to count as nontrivial, except in specs built
    deliberately trivial.
    """

    num_eps: int
    targets: dict

    def corner_targets(self, eps: int, corner) -> frozenset:
        return self.targets[eps].get(corner, frozenset())

    def is_nontrivial(self) -> bool:
        return all(
            self.corner_targets(e, c) for e in range(self.num_eps) for c in CORNERS
        )


def full_spec(num_eps: int = 2) -> FootprintSpec:
    if not 1 <= num_eps <= 4:
        raise ValueError("internal-state count limited to 4")
    everything = frozenset(range(num_eps))
    return FootprintSpec(
        num_eps, {e: {c: everything for c in CORNERS} for e in range(num_eps)}
    )


def trivial_spec(num_eps: int = 2) -> FootprintSpec:
    """Everything marches to the (+1, +1) corner keeping its label."""
    return FootprintSpec(
        num_eps, {e: {(1, 1): frozenset({e})} for e in range(num_eps)}
    )


@dataclass(frozen=True)
class LatticeBounds:
    width: int
    height: int

    def contains(self, s: Site2D) -> bool:
        return 0 <= s.i < self.width and 0 <= s.j < self.height


def footprint(s: Site2D, spec: FootprintSpec, bounds: LatticeBounds) -> set[Site2D]:
    out = set()
    for c1, c2 in CORNERS:
        for eps2 in spec.corner_targets(s.eps, (c1, c2)):
            t = Site2D(s.i + c1, s.j + c2, eps2)
            if bounds.contains(t):
                out.add(t)
    return out


def connected_path(
    a: Site2D,
    b: Site2D,
    spec: FootprintSpec,
    bounds: LatticeBounds,
    forbidden_center: Site2D,
    min_distance: int,
) -> list[Site2D] | None:
    """Shortest footprint path a -> b staying Chebyshev-far from the center.

    Moves flip the parity of i+j never, so opposite parities fail fast.
    """
    if a == b:
        return [a]
    if (a.i + a.j) % 2 != (b.i + b.j) % 2:
        return None

    def far(s: Site2D) -> bool:
        return chebyshev(s, forbidden_center) >= min_distance

    if not (far(a) and far(b)):
        return None
    prev: dict[Site2D, Site2D] = {a: a}
    queue = deque([a])
    while queue:
        s = queue.popleft()
        for t in footprint(s, spec, bounds):
            if t in prev or not far(t):
                continue
            prev[t] = s
            if t == b:
                path = [t]
                while path[-1] != a:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(t)
    return None


@dataclass
class WitnessTriple:
    s1: Site2D
    s2: Site2D
    s3: Site2D
    path: list[Site2D]
    min_distance: int

    def check(self, spec: FootprintSpec, bounds: LatticeBounds) -> None:
        assert self.s1 < self.s2 < self.s3, "triple must be canonically ordered"
        assert self.path[0] == self.s1 and self.path[-1] == self.s3
        for prev, nxt in zip(self.path, self.path[1:]):
            assert nxt in footprint(prev, spec, bounds), "path step not in footprint"
        for s in self.path:
            assert chebyshev(s, self.s2) >= self.min_distance, "path too close to s2"

    def to_json_obj(self) -> dict:
        site = lambda s: {"i": s.i, "j": s.j, "eps": s.eps}
        return {
            "type": "witness",
            "sites": [site(self.s1), site(self.s2), site(self.s3)],
            "path": [site(s) for s in self.path],
            "min_distance": self.min_distance,
        }


def find_witness_triple(
    spec: FootprintSpec, lattice_size: int, min_distance: int, height: int | None = None
) -> WitnessTriple | None:
    """First witness triple on a lattice_size x height lattice, or None.

    s2 sits near the center; s1 and s3 are scanned outward on opposite sides
    of s2 in the canonical order, so small witnesses surface first.
    """
    bounds = LatticeBounds(lattice_size, lattice_size if height is None else height)
    ci, cj = bounds.width // 2, bounds.height // 2
    all_sites = sorted(
        (
            Site2D(i, j, e)
            for i in range(bounds.width)
            for j in range(bounds.height)
            for e in range(spec.num_eps)
        ),
        key=Site2D.order_key,
    )
    for e2 in range(spec.num_eps):
        s2 = Site2D(ci, cj, e2)
        below = [s for s in all_sites if s < s2 and chebyshev(s, s2) >= min_distance]
        above = [s for s in all_sites if s2 < s and chebyshev(s, s2) >= min_distance]
        below.sort(key=lambda s: chebyshev(s, s2))
        above.sort(key=lambda s: chebyshev(s, s2))
        for s1 in below:
            for s3 in above:
                if (s1.i + s1.j) % 2 != (s3.i + s3.j) % 2:
                    continue
                path = connected_path(s1, s3, spec, bounds, s2, min_distance)
                if path is not None:
                    triple = WitnessTriple(s1, s2, s3, path, min_distance)
                    triple.check(spec, bounds)
                    return triple
    return None


# ---------------------------------------------------------------------------
# sign constraint problem


@dataclass(frozen=True)
class Move:
    src: Site2D
    dst: Site2D


def _normalize_pair(m1: Move, m2: Move):
    """Translation-invariant key for an unordered pair of moves."""
    di = min(m1.src.i, m2.src.i)
    dj = min(m1.src.j, m2.src.j)
    tup = lambda m: (
        m.src.i - di, m.src.j - dj, m.src.eps,
        m.dst.i - di, m.dst.j - dj, m.dst.eps,
    )
    return tuple(sorted((tup(m1), tup(m2))))


def _moves_1d(spec_1d: dict, s: Site2D, width: int):
    for di, eps2 in spec_1d.get(s.eps, ()):  # pragma: no branch
        t = Site2D(s.i + di, 0, eps2)
        if 0 <= t.i < width:
            yield Move(s, t)


def _moves_2d(spec: FootprintSpec, s: Site2D, bounds: LatticeBounds):
    for t in footprint(s, spec, bounds):
        yield Move(s, t)


# one-step moves of the 1D automaton: Plus hops right, Minus hops left, and
# either may flip its label (the theta branches)
STANDARD_1D_MOVES = {
    1: ((1, 1), (1, 0)),    # Plus -> (x+1, Plus) or (x+1, Minus)
    0: ((-1, 0), (-1, 1)),  # Minus -> (x-1, Minus) or (x-1, Plus)
}


@dataclass
class CspResult:
    sat: bool
    assignment: dict | None
    violated: list = field(default_factory=list)
    num_constraints: int = 0

    def to_json_obj(self) -> dict:
        if self.sat:
            rule = sorted(
                (list(map(list, key)), val) for key, val in self.assignment.items()
            )
            return {"type": "sat", "rule": rule, "constraints": self.num_constraints}
        return {
            "type": "unsat",
            "violated_constraints": self.violated,
            "constraints": self.num_constraints,
        }


def _required_sign(src1: Site2D, src2: Site2D, dst1: Site2D, dst2: Site2D) -> int:
    before = canonical_order(src1, src2)
    after = canonical_order(dst1, dst2)
    return -1 if before != after else 1


def check_csp_size(dimension: int, radius: int, lattice_size: int) -> None:
    """Raise unless sign_csp supports this instance."""
    if lattice_size < 2:
        raise ValueError("lattice_size must be >= 2: a smaller lattice has no pair of cells")
    if radius > 2:
        raise ValueError("radius <= 2 supported")
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    cap = 9 if dimension == 1 else 7
    if lattice_size > cap:
        raise LatticeTooLargeError(f"{dimension}D instance limited to {cap} per side")


def sign_csp(
    dimension: int,
    radius: int,
    spec: FootprintSpec | None = None,
    lattice_size: int = 5,
) -> CspResult:
    """Search for a local pairwise phase rule matching all reordering signs.

    A pair of moves is local when the two particles come within Chebyshev
    distance <= radius before or after the step; only local pairs own a
    phase variable. Every nonlocal pair whose image order flips is a
    violated constraint, and any such pair certifies UNSAT.
    """
    check_csp_size(dimension, radius, lattice_size)
    if dimension == 1:
        sites = [Site2D(i, 0, e) for i in range(lattice_size) for e in (0, 1)]
        moves_of = lambda s: list(_moves_1d(STANDARD_1D_MOVES, s, lattice_size))
    else:
        if spec is None:
            spec = full_spec(2)
        bounds = LatticeBounds(lattice_size, lattice_size)
        sites = [
            Site2D(i, j, e)
            for i in range(lattice_size)
            for j in range(lattice_size)
            for e in range(spec.num_eps)
        ]
        moves_of = lambda s: list(_moves_2d(spec, s, bounds))

    constraints: dict = {}
    violated = []
    total = 0
    for s1, s2 in itertools.combinations(sorted(sites, key=Site2D.order_key), 2):
        for m1, m2 in itertools.product(moves_of(s1), moves_of(s2)):
            if m1.dst == m2.dst:
                continue  # Pauli-blocked branch
            total += 1
            sign = _required_sign(s1, s2, m1.dst, m2.dst)
            local = (
                chebyshev(s1, s2) <= radius or chebyshev(m1.dst, m2.dst) <= radius
            )
            if not local:
                if sign == -1:
                    violated.append(
                        {
                            "pair": [
                                {"i": s.i, "j": s.j, "eps": s.eps} for s in (s1, s2)
                            ],
                            "images": [
                                {"i": m.dst.i, "j": m.dst.j, "eps": m.dst.eps}
                                for m in (m1, m2)
                            ],
                            "separation": chebyshev(s1, s2),
                        }
                    )
                continue
            key = _normalize_pair(m1, m2)
            constraints.setdefault(key, set()).add(sign)

    if violated:
        violated.sort(key=lambda v: -v["separation"])
        return CspResult(False, None, violated[:10], total)
    conflict = [k for k, v in constraints.items() if len(v) > 1]
    if conflict:
        return CspResult(
            False,
            None,
            [{"conflicting_key": list(map(list, k))} for k in conflict[:10]],
            total,
        )
    # past the conflict filter every key demands exactly one sign
    assignment = {k: sign for k, (sign,) in constraints.items()}
    return CspResult(True, assignment, [], total)
