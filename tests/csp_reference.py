"""Reference sign constraint problem: one Python loop over every move pair.

This is the solver fqca used before its numpy pass, kept only as a test
oracle. It enumerates each (site pair, move, move) candidate in turn, so
`nogo.sign_csp` is checked against it byte for byte on `csp.json`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from fqca.nogo import (
    STANDARD_1D_MOVES,
    CspResult,
    FootprintSpec,
    LatticeBounds,
    Site2D,
    chebyshev,
    check_csp_size,
    footprint,
    full_spec,
)


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


def canonical_order(a: Site2D, b: Site2D) -> int:
    """-1, 0 or +1 comparing a to b in the row/column/label order."""
    ka, kb = a.order_key(), b.order_key()
    return (ka > kb) - (ka < kb)


def _required_sign(src1: Site2D, src2: Site2D, dst1: Site2D, dst2: Site2D) -> int:
    before = canonical_order(src1, src2)
    after = canonical_order(dst1, dst2)
    return -1 if before != after else 1


def sign_csp(
    dimension: int,
    radius: int,
    spec: FootprintSpec | None = None,
    lattice_size: int = 5,
) -> CspResult:
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
