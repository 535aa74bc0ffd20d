"""Reference witness search: one breadth-first search per (s1, s3) pair.

This is how fqca searched for witness triples before each s1 got a single
resumed search, kept only as a test oracle. `nogo.find_witness_triple` must
return the same triple and path. It skips no pair by the parity of i + j,
so it holds for moves of any displacement.
"""

from collections import deque

from fqca.nogo import (
    FootprintSpec,
    LatticeBounds,
    Site2D,
    WitnessTriple,
    _sites,
    chebyshev,
    footprint,
)


def connected_path(
    a: Site2D,
    b: Site2D,
    spec: FootprintSpec,
    bounds: LatticeBounds,
    forbidden_center: Site2D,
    min_distance: int,
) -> list[Site2D] | None:
    """Shortest footprint path a -> b staying Chebyshev-far from the center."""
    if a == b:
        return [a]

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


def find_witness_triple(
    spec: FootprintSpec, bounds: LatticeBounds, min_distance: int
) -> WitnessTriple | None:
    ci, cj = bounds.width // 2, bounds.height // 2
    all_sites = _sites(bounds, spec.num_eps)
    for e2 in range(spec.num_eps):
        s2 = Site2D(ci, cj, e2)
        below = [s for s in all_sites if s < s2 and chebyshev(s, s2) >= min_distance]
        above = [s for s in all_sites if s2 < s and chebyshev(s, s2) >= min_distance]
        below.sort(key=lambda s: chebyshev(s, s2))
        above.sort(key=lambda s: chebyshev(s, s2))
        for s1 in below:
            for s3 in above:
                path = connected_path(s1, s3, spec, bounds, s2, min_distance)
                if path is not None:
                    return WitnessTriple(s1, s2, s3, path)
    return None
