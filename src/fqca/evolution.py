"""One automaton step as a brickwork of two-site gates: coin after shift.

Each gate acts on an ordered pair of sites (p1, p2) in the local basis
{|00>, |01>, |10>, |11>} where the first bit is the occupation of p1. The
coin couples the (Minus, Plus) pair inside each cell; the shift couples the
offset pair ((cell, Plus), (cell+1, Minus)). Both put a phase of -1 on the
doubly occupied pair, which is what makes two particles passing each other
pick up the fermionic exchange sign. Gates apply one after another in pair
order, and amplitudes of modulus <= PRUNE_THRESHOLD are dropped after each.

Note on the coin's sin(theta) signs: the convention here is the one under
which a single + particle evolves to cos(theta)|x+1,+> + sin(theta)|x+1,->
and creation operators conjugate to cos/sin combinations with a +sin on the
+ branch. The alternative sign choice (theta -> -theta) breaks those
relations.

The engine holds a state as one sorted array of keys and a complex
amplitude array; a key is a basis word. A FockState holds such arrays,
so step and evolve hand its words and a copy of its amps to the engine
and wrap the sorted result as they are. step_keys steps many states in one
pass, each key carrying its state's index above the 2L word bits, so states
never mix. Both layers share one sign rule (_signed): a word picks up
diag[3] once per doubly occupied pair, which is diag[3] to the parity of
their number, and a word with no such pair is not touched. The shift (and
the coin at theta = 0) is a signed swap: it maps every word to exactly one
word, so its layer is one relabelling of the whole key array, which swaps
the bits of every pair, applies the sign rule and ends with one sort.

The coin mixes only the words of a pair that holds one particle, |01> with
|10>; it leaves an empty pair alone and gives a full one its sign. So the
coin layer first signs every key, then runs in rounds over the singly
occupied (lone) pairs alone. Its gates sit on disjoint pairs, so a key
changes only at those pairs, and a key and every key it mixes with hold the
same lone and the same doubly occupied pairs, hence the same sign. They
form the key's occupation orbit, the 2**s words (s lone pairs) that differ
only in which site of each lone pair holds its particle, on which the coin
is a product of 2x2 rotations. Round r mixes every key at once at the r-th
of its lone pairs, at most one round per lone pair. A round takes pruned
amplitudes, as the shift leaves them.

Each layer application applies a plan (_plan), built from the part of the
layer's work that depends on its input keys alone: for a relabelling
(_relabel_plan) the sorted image keys, the permutation into them and the
indices the sign rule signs; for the coin those indices and the layout its
rounds run on. Applying the plan does what depends on the amplitudes: the
sign, the rounds, the pruning and the dropping of zeros, which keeps the
sorted order since keys are unique. Each layer keeps the plans of its last
two distinct input supports in a memo (_layer_plan) and applies one again
whenever its input keys equal the keys it was built for, index bits and
all, within one step, evolve or step_keys call or in a later one. Two is
what a support that has stopped growing needs: a step moves every
particle in the bulk one cell, so such a support returns every step, as a
full particle-number sector does, or every second step, as a one-particle
packet does, which alternates between the cells of either parity. So a
layer holds at most two plans, and a plan lives until two other supports
have come after its last use, or until the layer leaves _step_layers's
cache. A plan holds read-only arrays of its own and never its layer, so a
dropped layer is freed at once, and threads that share a layer apply a
plan only after matching its keys.

The coin's rounds run one of two ways, chosen by how full the input's
orbits are. A coin input is laid out by orbit (_orbit_plan): one sort finds
the orbits, each is laid out whole as one block, the blocks in descending
s, and round r is a reshape of the blocks with s > r. One argsort gives
word order, and the application gathers into it and drops the zeros once
at the end, with no search, append or sort per round. Only when the orbits
would hold more than ORBIT_FILL words per key, as a few words with many
lone particles do, the search rounds (_search_rounds) find each key's
partner by binary search; a round that appends the absent partners it
mixes in drops the zeros and sorts again, and the layer drops the rest once
at its end. Their mid-round drop depends on the amplitudes, so only their
words and lone-pair masks are planned. Both equal applying every gate in
order, bit for bit: each gate does the same two products and one add in
the same pair order, negation is exact, so
d*(-a) + o*(-b) = -(d*a + o*b), a zero amplitude and an absent partner both
add a zero, and the pruning turns every zero part into +0.0.

A config's two step layers (shift, then coin) are built once per
(config, bosonic), by a cached _step_layers, and every later step of that
config reuses them. step and evolve run the automaton's fermionic layers;
only step_keys takes the bosonic ones, for the Heisenberg check's control.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import (
    Boundary,
    FockState,
    LatticeConfig,
    PRUNE_THRESHOLD,
    _bit_count,
    _bit_parity,
)


def coin_matrix(theta: float, bosonic: bool = False) -> np.ndarray:
    """4x4 coin gate on the (Minus, Plus) pair of one cell.

    A lone Minus occupation maps to cos|Plus> + sin|Minus>; a lone Plus
    occupation maps to cos|Minus> - sin|Plus>; |11> gets a -1 phase. The
    bosonic flag replaces that -1 by +1 (the Heisenberg control, via step_keys).
    """
    c, s = np.cos(theta), np.sin(theta)
    phase = 1.0 if bosonic else -1.0
    return np.array(
        [
            [1, 0, 0, 0],
            [0, -s, c, 0],
            [0, c, s, 0],
            [0, 0, 0, phase],
        ],
        dtype=complex,
    )


def shift_matrix(bosonic: bool = False) -> np.ndarray:
    """4x4 shift gate on the ((cell, Plus), (cell+1, Minus)) pair."""
    phase = 1.0 if bosonic else -1.0
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, phase],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class _Layer:
    """One gate applied to pairs j = 0, 1, ... of a layer, in that order.

    Words are read in a pair frame where pair j holds bits 2j (its p1) and
    2j+1 (its p2). Coin pairs already do. Shift pairs (2j+1, 2j+2) do once
    the word is rotated right by one bit, which also turns the ring's seam
    pair (2L-1, 0) into pair L-1. Only the relabelling reads rotated: the
    shift's gate is always a signed swap.
    """

    diag: np.ndarray  # gate[c, c] for the local state c = 2*b1 + b2
    off: np.ndarray  # gate[c, 3-c], the coefficient of the partner word
    nbits: int
    rotated: bool
    pair_bits: int  # bit 2j for every pair j of the layer, in the pair frame
    # whether the gate is a signed swap, |01> <-> |10> and |11> -> +-|11>,
    # so that every word has exactly one image, as under the shift and the
    # theta = 0 coin
    relabels: bool
    # (keys, plan) of the layer's last two distinct input supports, the most
    # recently used last; see _layer_plan
    memo: list = field(default_factory=list, compare=False, repr=False)

    @classmethod
    def of(cls, gate: np.ndarray, nbits: int, rotated: bool, npairs: int) -> "_Layer":
        c = np.arange(4)
        d, o = gate[c, c], gate[c, 3 - c]
        pair_bits = ((1 << (2 * npairs)) - 1) // 3  # 0b0101...01, npairs ones
        relabels = bool(d[1] == d[2] == 0 and o[1] == o[2] == 1 and d[3] ** 2 == 1)
        return cls(d, o, nbits, rotated, pair_bits, relabels)


def _shift_layer(cfg: LatticeConfig, bosonic: bool) -> _Layer:
    npairs = cfg.L if cfg.boundary is Boundary.PERIODIC else cfg.L - 1
    return _Layer.of(shift_matrix(bosonic), cfg.n_sites, True, npairs)


def _coin_layer(cfg: LatticeConfig, bosonic: bool) -> _Layer:
    return _Layer.of(coin_matrix(cfg.theta, bosonic), cfg.n_sites, False, cfg.L)


@lru_cache
def _step_layers(cfg: LatticeConfig, bosonic: bool) -> tuple[_Layer, ...]:
    return _shift_layer(cfg, bosonic), _coin_layer(cfg, bosonic)


def _pruned(amps: np.ndarray) -> np.ndarray:
    # + 0.0 turns -0.0 into 0.0, as accumulating onto a 0.0 start does
    amps = amps + 0.0
    amps[np.abs(amps) <= PRUNE_THRESHOLD] = 0
    return amps


def _odd(both) -> np.ndarray:
    """The indices of the keys that hold an odd number of doubly occupied pairs.

    both holds, for each key, bit 2j for every doubly occupied pair j of
    the layer, in the pair frame. Keys with no such pair are skipped, so a
    state without one pays only for finding that out.
    """
    has = both.nonzero()[0]
    return has[_bit_parity(both[has])] if has.size else has


def _signed(amps, odd, sign):
    """Multiply amps[odd], in place, by sign, the layer's diag[3]; returns amps.

    A word picks up diag[3] once per doubly occupied pair, which is diag[3]
    to the parity of their number, so _odd's keys change sign (or not, for
    diag[3] = 1) and the rest are left alone.
    """
    if odd.size:
        # + 0.0 turns -0.0 into 0.0, as _pruned does
        amps[odd] = sign * amps[odd] + 0.0
    return amps


def _plan(keys, layer: _Layer):
    """Build layer's plan for sorted keys; returns it as a function of their amplitudes.

    The plan does the part of the layer's work that depends on the keys
    alone. The function it returns does the rest, overwrites the amplitudes
    it takes and returns the layer's sorted (keys, amps); it may be called
    again with new amplitudes of the same keys. The coin's rounds take
    pruned amplitudes, as a step's shift leaves them: its gate is a signed
    swap, so its plan prunes every amplitude before the coin runs. A coin
    that is not a relabelling runs in the orbit layout, or in the search
    rounds when its orbits would hold more than ORBIT_FILL words per key. A plan
    holds the layer's numbers, never the layer, whose memo holds the plan;
    the keys it returns are read-only when they are its own.
    """
    if layer.relabels:
        return _relabel_plan(keys, layer)
    t = keys.dtype.type
    one = t(1)
    pairs = t(layer.pair_bits)
    v = keys & t((1 << layer.nbits) - 1)  # the word, read in the pair frame
    p2 = v >> one  # bit 2j: pair j's p2 is occupied
    odd = _odd(v & p2 & pairs)
    # bit 2j of x: pair j holds one particle
    x = (v ^ p2) & pairs
    plan = _orbit_plan(keys, odd, v, x, layer)
    if plan is not None:
        return plan
    d, o = layer.diag, layer.off

    def search_rounds(amps):
        # the rounds clear x's bits as they go, so each application gets a copy
        return _search_rounds(keys, _signed(amps, odd, d[3]), v, x.copy(), d, o)

    return search_rounds


def _relabel_plan(keys, layer: _Layer):
    """The plan of a signed-swap layer: the sorted image keys and the permutation into them.

    Each word swaps the two bits of every pair of the layer and is signed
    by _signed. Bits outside the pairs, such as the open chain's seam, stay
    put.
    """
    t = keys.dtype.type
    one, top = t(1), t(layer.nbits - 1)
    full = t((1 << layer.nbits) - 1)
    pairs = t(layer.pair_bits)
    w = keys & full
    v = (w >> one) | ((w & one) << top) if layer.rotated else w
    lo, hi = v & pairs, (v >> one) & pairs
    v = v ^ ((lo ^ hi) * t(3))  # a pair with one site occupied flips both bits
    if layer.rotated:
        v = ((v << one) & full) | (v >> top)
    odd, out = _odd(lo & hi), keys ^ w ^ v
    order = out.argsort()
    out = out[order]
    out.flags.writeable = False
    sign = layer.diag[3]

    def relabelling(amps):
        # keys are unique, so dropping the zeros after the sort keeps the order
        a = _pruned(_signed(amps, odd, sign))[order]
        live = a != 0
        return (out, a) if live.all() else (out[live], a[live])

    return relabelling


# The layout runs only while its orbits hold at most ORBIT_FILL words per
# input key. A one-particle word's orbit holds 2 words, so one-particle
# inputs always fit. Near a diagonal coin (theta near a multiple of pi/2)
# the rounds prune the filled-in members again, so the layout's cost grows
# with the fill and the search rounds' does not: at theta = pi/2 on 400
# keys with 8-member orbits the layout took 1.5-2x their time, with
# 64-member orbits about 8x, and one word of s lone particles would fill
# 2**s. At theta = 0.3 it was faster at every fill.
ORBIT_FILL = 2


def _orbit_plan(keys, odd, v, x, layer: _Layer):
    """The coin's plan on a layout by occupation orbit; None past ORBIT_FILL.

    A key's class word moves each of its lone particles to its pair's p1.
    The words of one class form an orbit of 2**s words, s its number of
    lone pairs, and member m of the orbit holds the particle of its r-th
    lone pair on p2 when bit r of m is set; member words ascend with m.
    Each orbit is laid out whole as one block, the blocks in descending s,
    so each block starts at a multiple of its size, and round r is a
    reshape of the blocks with s > r into (lo, hi) halves that differ at
    their r-th lone pair. Members absent from keys start at 0j, as absent
    partners enter the search rounds.
    """
    t = keys.dtype.type
    one, three = t(1), t(3)
    cw = np.sort(keys ^ ((v >> one) & x) * three)
    first = np.ones(len(cw), dtype=bool)
    first[1:] = cw[1:] != cw[:-1]
    cw = cw[first]
    xc = cw & ~(cw >> one) & t(layer.pair_bits)  # a lone pair reads 10 in its class word
    s = _bit_count(xc)
    if np.ldexp(1.0, s).sum() > ORBIT_FILL * len(keys):
        return None
    by_s = (~s).argsort(kind="stable")  # descending s
    cw, xc, s = cw[by_s], xc[by_s], s[by_s].astype(np.intp)
    size = np.left_shift(1, s)
    words = np.repeat(cw, size)
    ends = np.cumsum(size)
    # round r runs on the blocks with s > r, the first nblocks[r]
    nblocks = (s[:, None] > np.arange(s.max(initial=0))).sum(0).tolist()
    for r, nb in enumerate(nblocks):
        low = xc[:nb] & (~xc[:nb] + one)  # the p1 bit of each block's r-th lone pair
        xc[:nb] ^= low
        hi = words[: ends[nb - 1]].reshape(-1, 2, 1 << r)[:, 1, :]
        hi ^= np.repeat(low * three, size[:nb] >> (r + 1))[:, None]
    worder = words.argsort()
    words = words[worder]
    words.flags.writeable = False
    # the sorted words hold every key, and only the keys when no orbit lacks a member
    deposit = worder if len(words) == len(keys) else worder[words.searchsorted(keys)]
    # round r mixes the layout's first stops[r] positions
    stops = [ends[nb - 1] for nb in nblocks]
    d, o = layer.diag, layer.off

    def orbit_layout(amps):
        a = np.zeros(len(words), dtype=complex)
        a[deposit] = _signed(amps, odd, d[3])
        # lo holds the particle on p1 (local state 2), hi on p2 (local state 1)
        for r, stop in enumerate(stops):
            blk = a[:stop].reshape(-1, 2, 1 << r)
            lo, hi = blk[:, 0, :], blk[:, 1, :]
            blk[:, 0, :], blk[:, 1, :] = _pruned(d[2] * lo + o[2] * hi), _pruned(d[1] * hi + o[1] * lo)
        a = a[worder]
        live = a != 0
        return (words, a) if live.all() else (words[live], a[live])

    return orbit_layout


def _search_rounds(keys, amps, v, x, d, o):
    """The coin's rounds, each finding every key's partner by binary search.

    Bit 2j of x marks a lone pair j whose gate has yet to mix the key; d
    and o are the layer's diag and off.
    """
    t = keys.dtype.type
    one, three = t(1), t(3)
    while True:
        act = x.nonzero()[0]
        if not act.size:
            break
        xa = x[act]
        low = xa & (~xa + one)  # the p1 bit of the key's next pair
        pair = low * three
        local = 1 + ((v[act] & low) != 0)  # 1 if p2 holds the particle, 2 if p1 does
        partner = keys[act] ^ pair
        pos = keys.searchsorted(partner)
        found = keys[np.minimum(pos, len(keys) - 1)] == partner
        before = np.append(amps, 0)  # the last entry stands in for absent partners
        amps[act] = _pruned(
            d[local] * before[act]
            + o[local] * before[np.where(found, pos, len(keys))]
        )
        x[act] = xa ^ low
        # an absent partner enters with its share alone
        new = (~found).nonzero()[0]
        if new.size:
            src = act[new]
            keys = np.concatenate((keys, partner[new]))
            amps = np.concatenate((amps, _pruned(o[3 - local[new]] * before[src])))
            v = np.concatenate((v, v[src] ^ pair[new]))
            x = np.concatenate((x, x[src]))
            live = amps != 0
            # keys are unique, so any sort gives this order; timsort uses the sorted prefix
            order = live.nonzero()[0][keys[live].argsort(kind="stable")]
            keys, amps, v, x = keys[order], amps[order], v[order], x[order]
    live = amps != 0
    return (keys, amps) if live.all() else (keys[live], amps[live])


def _layer_plan(keys, layer: _Layer):
    """layer's plan for sorted keys: from its memo if they equal a memoised support, else new.

    A new plan is built on a read-only copy of keys, so no caller can
    change what it was built for, and replaces the least recently used of
    the memo's two entries.
    """
    # a snapshot: another thread may replace the memo's entries meanwhile,
    # but each entry pairs a plan with its own keys, so a lost update costs
    # a rebuild, never a plan applied to other keys
    recent = layer.memo[:]
    for i, (seen, plan) in enumerate(recent):
        # equal keys of one dtype, index bits and all, not merely as many
        if keys.dtype == seen.dtype and np.array_equal(keys, seen):
            layer.memo[:] = [*recent[:i], *recent[i + 1:], recent[i]]
            return plan
    seen = keys.copy()
    seen.flags.writeable = False
    plan = _plan(seen, layer)
    layer.memo[:] = [*recent[-1:], (seen, plan)]
    return plan


def _run_keys(keys, amps, layers: Sequence[_Layer]):
    """Apply the layers in order to sorted keys; returns the new sorted (keys, amps).

    Each layer application applies the layer's plan for its input keys
    (_layer_plan). The amps array is overwritten.
    """
    for layer in layers:
        keys, amps = _layer_plan(keys, layer)(amps)
    return keys, amps


def _run(state: FockState, layers: Sequence[_Layer]) -> FockState:
    """Apply the layers in order to one state."""
    keys, amps = _run_keys(state.words, state.amps.copy(), layers)
    return FockState.from_sorted(state.config, keys, amps)


def step(state: FockState) -> FockState:
    """One automaton step: shift, then coin."""
    return evolve(state, 1)


def step_keys(config: LatticeConfig, keys: np.ndarray, amps: np.ndarray, bosonic: bool = False):
    """One step of many states in one engine pass; returns the new sorted (keys, amps).

    A key is a basis word of config with its state's index above the
    word's 2L bits, so states never mix. keys must be sorted and unique and
    have the word_dtype of the 2L bits plus the index bits. amps holds each
    key's amplitude and is overwritten. The keys returned may be a plan's
    own, and then are read-only.
    """
    return _run_keys(keys, amps, _step_layers(config, bosonic))


def evolve(state: FockState, nsteps: int) -> FockState:
    if nsteps < 0:
        raise ValueError("nsteps must be >= 0")
    if nsteps == 0:
        return state
    return _run(state, _step_layers(state.config, False) * nsteps)

