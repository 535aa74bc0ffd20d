"""Reference sign constraint problem: one Python loop over every move pair.

This is the solver fqca used before its numpy pass, kept only as a test
oracle. It enumerates each (site pair, move, move) candidate in turn, so
`nogo.sign_csp` is checked against it byte for byte on `csp.json`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from fqca.nogo import (
    CspResult,
    FootprintSpec,
    LatticeBounds,
    Site2D,
    chebyshev,
    check_csp_size,
    footprint,
)

# the 1D automaton's moves, written out here rather than read from nogo:
# Plus (label 1) hops right, Minus (label 0) left, either to both labels
CHAIN_1D = FootprintSpec(2, {1: {(1, 0): frozenset({0, 1})}, 0: {(-1, 0): frozenset({0, 1})}})


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


def _moves(spec: FootprintSpec, s: Site2D, bounds: LatticeBounds):
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


def sign_csp(dimension: int, radius: int, spec: FootprintSpec, lattice_size: int = 5) -> CspResult:
    check_csp_size(dimension, radius, lattice_size)
    bounds = LatticeBounds(lattice_size, 1 if dimension == 1 else lattice_size)
    sites = [
        Site2D(i, j, e)
        for i in range(bounds.width)
        for j in range(bounds.height)
        for e in range(spec.num_eps)
    ]

    constraints: dict = {}
    violated = []
    total = 0
    for s1, s2 in itertools.combinations(sorted(sites, key=Site2D.order_key), 2):
        for m1, m2 in itertools.product(_moves(spec, s1, bounds), _moves(spec, s2, bounds)):
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
