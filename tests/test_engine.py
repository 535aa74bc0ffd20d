"""The array step engine against the dict-per-gate reference in dict_engine.py.

Amplitudes must agree exactly (==, and down to the sign of a zero part),
on random sparse states that mix particle numbers and carry amplitudes at
and below the pruning threshold, for L = 2..6 and for L = 32 and 40, where
words fill and outgrow 64 bits; on words that doubly occupy up to five
shift pairs, the ring's seam among them; on words that fill coin pairs
around their lone particles, or hold no lone particle; and on every word
at L = 2 and 3 under the layers that only relabel words. Random states and
one dict in descending word order must build states that hold every entry
in sorted read-only arrays, which stepping leaves unchanged. Batches of
states run through one step_keys pass and must equal stepping each state
alone. Coin inputs at and just past the fill bound (evolution.ORBIT_FILL)
check both coin paths: whole Fock spaces and sectors, the wavepacket
configs' one-particle inputs and object words run in the orbit layout,
while sparse words with many lone particles, 40 and 64 of them on the L=64
ring, fall back to the search rounds, which the layout could not hold. With
the fill bound lifted every random input, the empty one included, runs in
the orbit layout.
Full sectors, which the step maps onto themselves, evolve on one plan per
layer and must equal chained steps; a support that keeps its size but not
its words builds a new plan for every layer application. Each layer keeps
the plans of its last two input supports across calls, so a trajectory
stepped one step call at a time must equal evolve bit for bit, and a
packet that has stopped growing builds no plan. A layer dropped from the
cache is freed without the cycle collector, a caller's writes into the
keys it passed or got back change no later step, and four threads that
step through shared layers must equal a serial run.
"""

import contextlib
import gc
import itertools
import math
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_sector
import dict_engine
from dict_engine import engine_step
from fqca import cli, evolution
from fqca.evolution import (
    _coin_layer,
    _pruned,
    _run,
    _shift_layer,
    _step_layers,
    evolve,
    step,
    step_keys,
)
from fqca.lattice import (
    PRUNE_THRESHOLD,
    Boundary,
    Eps,
    FockState,
    LatticeConfig,
    basis_state,
    word_dtype,
)

SPECIAL_AMPLITUDES = [
    0j,
    complex(-0.0, 0.0),
    complex(0.5, -0.0),
    1.0,
    -1.0,
    PRUNE_THRESHOLD,
    -0.9 * PRUNE_THRESHOLD,
    complex(PRUNE_THRESHOLD, 1e-15),
]
AMPLITUDES = st.one_of(
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_AMPLITUDES),
)
THETAS = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]),
    st.floats(-math.pi, math.pi, allow_nan=False),
)


@st.composite
def configs(draw):
    # 32 cells fill a 64-bit word exactly; 40 need Python-int words
    L = draw(st.one_of(st.integers(2, 6), st.sampled_from([32, 40])))
    return LatticeConfig(
        L=L, theta=draw(THETAS), boundary=draw(st.sampled_from(list(Boundary)))
    )


def words(cfg: LatticeConfig):
    if cfg.L <= 6:
        return st.integers(0, (1 << cfg.n_sites) - 1)
    # a few particles, so the reference stays small on the long ring
    bits = st.lists(st.integers(0, cfg.n_sites - 1), max_size=4, unique=True)
    return bits.map(lambda bs: sum(1 << b for b in bs))


def unsorted(cfg: LatticeConfig) -> dict:
    """A dict in descending word order, of 3, 2, 1 and 0 particles, that
    holds a signed zero and a sub-threshold amplitude."""
    top = 1 << (cfg.n_sites - 1)
    return {
        top | 0b11: complex(0.5, -0.0),
        top | 1: 0.5 * PRUNE_THRESHOLD,
        0b10: -1.0,
        0: complex(-0.0, 0.25),
    }


def states(cfg: LatticeConfig):
    amps = st.one_of(st.dictionaries(words(cfg), AMPLITUDES, max_size=6), st.just(unsorted(cfg)))
    return amps.map(lambda a: built(cfg, a))


def exact(state: FockState) -> dict:
    """Amplitudes with the sign of every zero part spelled out."""
    return {w: repr(complex(a)) for w, a in state.amplitudes.items()}


def built(cfg: LatticeConfig, amps: dict) -> FockState:
    """FockState(cfg, amps), checked to hold every entry of amps, in sorted read-only arrays."""
    state = FockState(cfg, amps)
    assert exact(state) == {w: repr(complex(a)) for w, a in amps.items()}
    assert state.words.tolist() == sorted(amps)
    assert not (state.words.flags.writeable or state.amps.flags.writeable)
    return state


def held(state: FockState) -> tuple:
    """A state's words and the bytes of its amplitudes: equal only bit for bit."""
    return state.words.tolist(), state.amps.tobytes()


def apply_shift(state: FockState, bosonic: bool = False) -> FockState:
    return _run(state, [_shift_layer(state.config, bosonic)])


def apply_coin(state: FockState, bosonic: bool = False) -> FockState:
    """The coin layer alone, on a state whose amplitudes need not be pruned.

    The engine's coin takes pruned amplitudes, as a step's shift leaves them.
    The dict engine's first coin gate prunes every word, mixing those that
    hold one particle on cell 0's pair; the words that leave that pair empty
    or fill it are pruned here, and the engine's first round mixes and
    prunes the others.
    """
    amps = dict(state.amplitudes)
    rest = [w for w in amps if w & 1 == w >> 1 & 1]
    pruned = _pruned(np.array([amps.pop(w) for w in rest], dtype=complex))
    amps.update((w, a) for w, a in zip(rest, pruned.tolist()) if a)
    return _run(FockState(state.config, amps), [_coin_layer(state.config, bosonic)])


def step_batch(cfg: LatticeConfig, batch: list[FockState], bosonic: bool = False):
    """step() of every state in batch, as one step_keys pass; state i's index is i."""
    nbits = cfg.n_sites
    t = word_dtype(nbits + max(len(batch) - 1, 0).bit_length()).type
    items = sorted(
        ((i << nbits) | w, a) for i, s in enumerate(batch) for w, a in s.amplitudes.items()
    )
    keys = np.array([k for k, _ in items], dtype=t)
    amps = np.array([a for _, a in items], dtype=complex)
    keys, amps = step_keys(cfg, keys, amps, bosonic)
    out = [{} for _ in batch]
    for k, a in zip(keys.tolist(), amps.tolist()):
        out[k >> nbits][k & ((1 << nbits) - 1)] = a
    return [FockState(cfg, o) for o in out]


@settings(deadline=None, max_examples=300)
@given(st.data(), configs(), st.booleans())
def test_layers_equal_reference(data, cfg, bosonic):
    state = data.draw(states(cfg))
    before = held(state)
    for engine, reference in (
        (engine_step, dict_engine.step),
        (apply_shift, dict_engine.apply_shift),
        (apply_coin, dict_engine.apply_coin),
    ):
        want = reference(state, bosonic)
        got = engine(state, bosonic)
        assert got.amplitudes == want.amplitudes
        assert exact(got) == exact(want)
    assert held(state) == before


@settings(deadline=None, max_examples=100, derandomize=True, database=None)
@given(st.data(), configs(), st.booleans(), st.integers(0, 6))
def test_evolve_equals_repeated_reference_steps(data, cfg, bosonic, nsteps):
    # a sparse support grows and may fill its sector, so evolve builds plans
    # and, once the support stops changing, reuses them
    state = data.draw(states(cfg))
    before = held(state)
    want = state
    for _ in range(nsteps):
        want = dict_engine.step(want, bosonic)
    assert exact(engine_step(state, bosonic, nsteps)) == exact(want)
    assert held(state) == before


@settings(deadline=None, max_examples=100)
@given(st.data(), configs(), st.booleans())
def test_batched_images_equal_single_steps(data, cfg, bosonic):
    batch = data.draw(st.lists(states(cfg), max_size=5))
    got = step_batch(cfg, batch, bosonic)
    assert [exact(s) for s in got] == [exact(engine_step(s, bosonic)) for s in batch]


@pytest.mark.parametrize("L", [6, 28, 40])
def test_batch_spanning_chunks(L):
    # over 256 states, so at L=28 the state index pushes keys past 64 bits
    # although each word alone fits
    cfg = LatticeConfig(L=L, theta=0.7, boundary=Boundary.OPEN)
    combos = (itertools.combinations(range(12), n) for n in range(4))
    batch = [FockState(cfg, {sum(1 << b for b in c): 1.0}) for c in itertools.chain(*combos)]
    assert len(batch) > 256
    got = step_batch(cfg, batch)
    assert [exact(s) for s in got] == [exact(dict_engine.step(s)) for s in batch]


def test_sector_unitary_columns_are_steps():
    cfg = LatticeConfig(L=4, theta=0.4)
    U, words = dense_sector.sector_unitary(cfg, 2)
    for j, w in enumerate(words):
        image = dict_engine.step(FockState(cfg, {w: 1.0}))
        column = {w2: U[i, j] for i, w2 in enumerate(words) if U[i, j] != 0}
        assert column == image.amplitudes


def test_two_particles_on_the_long_ring():
    # L=64 words need 128 bits; two movers far apart and two about to cross
    cfg = LatticeConfig(L=64, theta=0.3)
    for sites in ([(10, Eps.PLUS), (50, Eps.MINUS)], [(31, Eps.PLUS), (32, Eps.MINUS)]):
        state = basis_state(cfg, sites)
        want = dict_engine.step(dict_engine.step(state))
        assert exact(evolve(state, 2)) == exact(want)
        assert exact(step(state)) == exact(dict_engine.step(state))


@pytest.mark.parametrize("boundary", list(Boundary))
def test_tiny_amplitude_beside_every_partner(boundary):
    # the dict engine prunes after every gate, so a sub-threshold amplitude
    # is gone before any later gate can mix it into a large one
    cfg = LatticeConfig(L=3, theta=0.4, boundary=boundary)
    few = [w for w in range(1 << cfg.n_sites) if 1 <= w.bit_count() <= 2]
    for big, tiny in itertools.permutations(few, 2):
        state = FockState(cfg, {big: 1.0, tiny: 0.5 * PRUNE_THRESHOLD})
        for engine, reference in ((step, dict_engine.step), (apply_coin, dict_engine.apply_coin)):
            assert exact(engine(state)) == exact(reference(state))


def shift_pair_words(cfg: LatticeConfig) -> list[int]:
    """Words with 0-5 doubly occupied shift pairs, beside a lone mover.

    Shift pair j holds bits 2j+1 and 2j+2 (mod 2L), so pair L-1 is the
    ring's seam (2L-1, 0); on the open chain those two bits are unpaired.
    """
    pair = [(1 << (2 * j + 1)) | (1 << ((2 * j + 2) % cfg.n_sites)) for j in range(cfg.L)]
    out = []
    for k in range(min(5, cfg.L) + 1):
        spread = [round(i * (cfg.L - 1) / max(k - 1, 1)) for i in range(k)]
        for chosen in (range(k), range(cfg.L - k, cfg.L), spread):
            word = sum(pair[j] for j in chosen)
            out.append(word)
            free = [j for j in range(cfg.L) if not word & pair[j]]
            if free:
                # a lone particle on either site of the last free pair, which
                # is the seam when the first k pairs are doubly occupied
                p1 = 1 << (2 * free[-1] + 1)
                out += [word | p1, word | (pair[free[-1]] ^ p1)]
    return sorted(set(out))


@pytest.mark.parametrize("L", [2, 3, 32, 33, 64])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("bosonic", [False, True])
def test_shift_signs_every_doubly_occupied_pair(L, boundary, bosonic):
    cfg = LatticeConfig(L=L, theta=0.3, boundary=boundary)
    batch = [
        FockState(cfg, {w: complex(1 + i, -0.5)}) for i, w in enumerate(shift_pair_words(cfg))
    ]
    for state in batch:
        assert exact(apply_shift(state, bosonic)) == exact(dict_engine.apply_shift(state, bosonic))
        assert exact(engine_step(state, bosonic)) == exact(dict_engine.step(state, bosonic))
    # at L=32 the state index pushes the keys past 64 bits
    got = step_batch(cfg, batch, bosonic)
    assert [exact(s) for s in got] == [exact(dict_engine.step(s, bosonic)) for s in batch]


def coin_pair_words(cfg: LatticeConfig) -> list[int]:
    """Words that fill coin pairs below, between and above 0-2 lone particles.

    Coin pair j is cell j's (Minus, Plus) bits 2j and 2j+1. The lone
    particles sit on Minus, on Plus or one on each; the words with none
    hold only filled pairs, so they enter no coin round.
    """
    L = cfg.L
    out = set()
    for lone in ([], [0], [L // 2], [L - 1], [1, L - 2] if L >= 4 else [0, L - 1]):
        free = [c for c in range(L) if c not in lone]
        fills = [[], free]
        if lone:
            fills += [
                [c for c in free if c < lone[0]],
                [c for c in free if lone[0] < c < lone[-1]],
                [c for c in free if c > lone[-1]],
            ]
        for filled in fills:
            full = sum(3 << 2 * c for c in filled)
            for sides in ([0] * len(lone), [1] * len(lone), [0, 1][: len(lone)]):
                out.add(full | sum(1 << (2 * c + s) for c, s in zip(lone, sides)))
    return sorted(out)


@pytest.mark.parametrize("L", [2, 3, 6, 32, 40])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("bosonic", [False, True])
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, -1.1])
def test_coin_signs_filled_pairs_and_mixes_lone_particles(L, boundary, bosonic, theta):
    # the coin signs each filled pair once, before its rounds, and its rounds
    # visit only the pairs that hold one particle; at L=40 words are Python ints
    cfg = LatticeConfig(L=L, theta=theta, boundary=boundary)
    family = coin_pair_words(cfg)
    whole = FockState(cfg, {w: complex(1 + i, -0.5) for i, w in enumerate(family)})
    for state in [*(FockState(cfg, {w: a}) for w, a in whole.amplitudes.items()), whole]:
        for engine, reference in (
            (engine_step, dict_engine.step),
            (apply_coin, dict_engine.apply_coin),
        ):
            assert exact(engine(state, bosonic)) == exact(reference(state, bosonic))


@pytest.mark.parametrize("L", [2, 3, 33, 64])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("bosonic", [False, True])
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, math.pi, -1.1])
def test_every_step_starts_with_a_relabelling(L, boundary, bosonic, theta):
    # the coin's rounds take pruned amplitudes, which only a relabelling
    # first layer guarantees: it prunes every amplitude it maps
    cfg = LatticeConfig(L=L, theta=theta, boundary=boundary)
    assert _step_layers(cfg, bosonic)[0].relabels


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("bosonic", [False, True])
def test_permutation_layers_exhaustive(L, boundary, bosonic):
    # the shift and the theta = 0 coin map each word to one signed word
    cfg = LatticeConfig(L=L, theta=0.0, boundary=boundary)
    assert _shift_layer(cfg, bosonic).relabels and _coin_layer(cfg, bosonic).relabels
    everything = range(1 << cfg.n_sites)
    batch = [FockState(cfg, {w: complex(1, w)}) for w in everything]
    whole = FockState(cfg, {w: complex(1, w) for w in everything})
    for engine, reference in (
        (apply_shift, dict_engine.apply_shift),
        (apply_coin, dict_engine.apply_coin),
        (engine_step, dict_engine.step),
    ):
        for state in [*batch, whole]:
            assert exact(engine(state, bosonic)) == exact(reference(state, bosonic))
    got = step_batch(cfg, batch, bosonic)
    assert [exact(s) for s in got] == [exact(dict_engine.step(s, bosonic)) for s in batch]


@contextlib.contextmanager
def orbit_layouts():
    """Yields a list that gets, per coin plan that tried the orbit layout, whether it was built.

    The cached step layers are dropped first, so every layer starts with an
    empty memo, whatever earlier tests stepped.
    """
    ran = []
    real = evolution._orbit_plan

    def spy(*args):
        out = real(*args)
        ran.append(out is not None)
        return out

    _step_layers.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_orbit_plan", spy)
        yield ran


def loaded(cfg: LatticeConfig, words, seed: int, specials: bool = True) -> FockState:
    """A state on words with random amplitudes, every fifth one a special amplitude."""
    rng = np.random.default_rng(seed)
    amps = (rng.normal(size=len(words)) + 1j * rng.normal(size=len(words))).tolist()
    if specials:
        for i in range(0, len(amps), 5):
            amps[i] = SPECIAL_AMPLITUDES[(i // 5) % len(SPECIAL_AMPLITUDES)]
    return FockState(cfg, dict(zip(words, amps)))


def shift_preimage(cfg: LatticeConfig, words) -> list[int]:
    """The words the shift maps onto words, so that a step's coin receives words."""
    return sorted(dict_engine.apply_shift(FockState(cfg, {w: 1.0 for w in words})).amplitudes)


@pytest.mark.parametrize("L, n", [(4, None), (5, None), (6, 3)])
@pytest.mark.parametrize("theta", [0.3, math.pi / 2, -1.1])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("bosonic", [False, True])
def test_whole_spaces_equal_reference(L, n, theta, boundary, bosonic):
    # whole spaces and sectors hold whole orbits, so each runs in the orbit
    # layout; at theta = pi/2 the coin is diagonal, so the filled-in members
    # prune to zeros
    cfg = LatticeConfig(L=L, theta=theta, boundary=boundary)
    words = [w for w in range(1 << cfg.n_sites) if n is None or w.bit_count() == n]
    state = loaded(cfg, words, seed=L)
    with orbit_layouts() as ran:
        got = [
            engine_step(state, bosonic),
            apply_coin(state, bosonic),
            engine_step(state, bosonic, 2),
        ]
    want = [dict_engine.step(state, bosonic), dict_engine.apply_coin(state, bosonic)]
    want.append(dict_engine.step(want[0], bosonic))
    assert [exact(s) for s in got] == [exact(s) for s in want]
    # evolve's first step finds the plans of engine_step's in the memo
    assert ran == [True] * 3


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("theta", [0.3, math.pi / 2])
def test_coin_paths_meet_at_the_fill_bound(over, theta):
    # one-particle words on distinct cells: each is alone in its 2-word
    # orbit, exactly ORBIT_FILL words per key, so the layout runs. One more
    # word with two lone particles brings a 4-word orbit, past the bound, so
    # the search rounds run. No amplitude is pruned before the coin, so both
    # step and the coin alone see every word
    cfg = LatticeConfig(L=8, theta=theta)
    words = [1 << (2 * c + c % 2) for c in range(cfg.L)] + [0b1001 << 2] * over
    state = loaded(cfg, shift_preimage(cfg, words), seed=8, specials=False)
    coin_input = loaded(cfg, words, seed=8, specials=False)
    with orbit_layouts() as ran:
        assert exact(step(state)) == exact(dict_engine.step(state))
        assert exact(apply_coin(coin_input)) == exact(dict_engine.apply_coin(coin_input))
    assert ran == [not over] * 2


@pytest.mark.parametrize("nparticles", [40, 64])
@pytest.mark.parametrize("theta", [math.pi / 2, math.pi])
def test_many_lone_particles_fall_back_to_the_search_rounds(nparticles, theta):
    # a particle on every Minus site of the first cells: after the shift each
    # sits alone in its coin pair, so the word's orbit holds 2**nparticles
    # words, which no array could. The coin is nearly diagonal or nearly a
    # swap, so the word stays one word, and only the search rounds step it
    cfg = LatticeConfig(L=64, theta=theta)
    state = basis_state(cfg, [(c, Eps.MINUS) for c in range(nparticles)])
    want = state
    for _ in range(3):
        want = dict_engine.step(want)
    with orbit_layouts() as ran:
        got = evolve(state, 3)
    assert exact(got) == exact(want)
    assert len(got.amplitudes) == 1
    assert not any(ran)


@pytest.mark.parametrize("name", ["wavepacket", "wavepacket_open"])
def test_wavepackets_run_in_the_orbit_layout(tmp_path, name):
    # a one-particle word's orbit holds 2 words, so every coin plan of the
    # walk comparisons is an orbit layout and none falls back
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "experiments" / f"{name}.json")
    with orbit_layouts() as ran:
        assert cli.run_experiment(cfg, str(tmp_path), quiet=True) == 0
    assert ran and all(ran)


def test_object_words_and_wide_batches_in_the_orbit_layout():
    # L=40 words outgrow 64 bits; so do L=32 keys once the state index sits above them
    cfg = LatticeConfig(L=40, theta=0.3)
    three = [sum(1 << b for b in c) for c in itertools.combinations(range(20), 3)]
    state = loaded(cfg, shift_preimage(cfg, three), seed=1)
    cfg32 = LatticeConfig(L=32, theta=-1.1, boundary=Boundary.OPEN)
    # each state's coin receives whole orbits: 3 lone particles and a filled pair
    orbits = [
        [sum(1 << (2 * c + e) for c, e in zip(cells, sides)) | 3 << (2 * cells[2] + 2)
         for sides in itertools.product((0, 1), repeat=3)]
        for cells in itertools.combinations(range(0, 30, 3), 3)
    ]
    batch = [loaded(cfg32, shift_preimage(cfg32, o), seed=i) for i, o in enumerate(orbits)]
    with orbit_layouts() as ran:
        assert exact(step(state)) == exact(dict_engine.step(state))
        got = step_batch(cfg32, batch)
    assert [exact(s) for s in got] == [exact(dict_engine.step(s)) for s in batch]
    assert ran == [True, True]


def test_sparse_coin_input_past_the_fill_bound():
    # 600 words, each alone in its 8-member orbit: the layout would hold 8
    # words per key, so the search rounds run
    cfg = LatticeConfig(L=40, theta=math.pi / 2)
    cells = itertools.islice(itertools.combinations(range(40), 3), 600)
    words = [sum(1 << 2 * c for c in cs) for cs in cells]
    state = loaded(cfg, words, seed=2)
    with orbit_layouts() as ran:
        assert exact(apply_coin(state)) == exact(dict_engine.apply_coin(state))
    assert ran == [False]


@settings(deadline=None, max_examples=200)
@given(st.data(), configs(), st.booleans(), st.integers(0, 2))
def test_orbit_layout_equals_reference_on_every_input(data, cfg, bosonic, nsteps):
    # with no fill bound every coin input, the empty one included, runs in
    # the orbit layout
    state = data.draw(states(cfg))
    want = state
    for _ in range(nsteps):
        want = dict_engine.step(want, bosonic)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "ORBIT_FILL", math.inf)
        assert exact(engine_step(state, bosonic)) == exact(dict_engine.step(state, bosonic))
        assert exact(apply_coin(state, bosonic)) == exact(dict_engine.apply_coin(state, bosonic))
        assert exact(engine_step(state, bosonic, nsteps)) == exact(want)


@contextlib.contextmanager
def plans_built():
    """Yields a list that gets the number of input keys of every plan built.

    The cached step layers are dropped first, so every layer starts with an
    empty memo.
    """
    built = []
    real = evolution._plan

    def spy(keys, layer):
        built.append(len(keys))
        return real(keys, layer)

    _step_layers.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_plan", spy)
        yield built


def sector(cfg: LatticeConfig, n: int) -> list[int]:
    """Every word of cfg with n particles."""
    return [sum(1 << b for b in bits) for bits in itertools.combinations(range(cfg.n_sites), n)]


# a full sector maps onto itself, so evolve builds 2 plans and reuses them;
# its coin runs in the orbit layout, on uint64 words (L=4, n=4: 70 keys;
# L=5, n=3: 120; L=6, n=6: 924) and on object words (L=33, n=1: 66; L=40,
# n=2: 3160)
@pytest.mark.parametrize("L, n", [(4, 4), (5, 3), (6, 6), (33, 1), (40, 2)])
@pytest.mark.parametrize("theta", [0.0, math.pi / 2, -math.pi / 2, 0.3, -1.1])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("bosonic", [False, True])
def test_evolve_equals_chained_steps_on_full_sectors(L, n, theta, boundary, bosonic):
    cfg = LatticeConfig(L=L, theta=theta, boundary=boundary)
    state = loaded(cfg, sector(cfg, n), seed=L, specials=False)
    want = state
    for _ in range(5):
        want = engine_step(want, bosonic)
    with plans_built() as built:
        got = engine_step(state, bosonic, 5)
    assert exact(got) == exact(want)
    assert built == [len(state.amplitudes)] * 2


def test_plans_follow_the_keys_not_their_number():
    # at theta = 0 a lone particle's one word moves every step: each layer
    # sees one key each time, never the same one, so every application builds
    cfg = LatticeConfig(L=5, theta=0.0)
    state = basis_state(cfg, [(0, Eps.PLUS)])
    want = state
    for _ in range(6):
        want = dict_engine.step(want)
    with plans_built() as built:
        got = evolve(state, 6)
    assert exact(got) == exact(want)
    assert built == [1] * 12



def three_particles() -> FockState:
    """A seeded random state on half the words of the L=6 ring's 3-particle sector."""
    cfg = LatticeConfig(L=6, theta=0.3)
    words = np.random.default_rng(6).permutation(sector(cfg, 3))[:110].tolist()
    return loaded(cfg, words, seed=6)


TRAJECTORIES = {
    # object words; the packet fills its 64 words of each parity by step 34,
    # and from then on each layer's input support returns every second step
    "ring64_packet": (basis_state(LatticeConfig(L=64, theta=0.1), [(32, Eps.PLUS)]), 100),
    "open16_packet": (
        basis_state(LatticeConfig(L=16, theta=0.3, boundary=Boundary.OPEN), [(2, Eps.MINUS)]), 40,
    ),
    "ring6_three_particles": (three_particles(), 20),
}


@pytest.mark.parametrize("name", TRAJECTORIES)
def test_steps_one_call_at_a_time_equal_evolve(name):
    # each side starts from layers with empty memos
    start, nsteps = TRAJECTORIES[name]
    with plans_built() as built:
        state, counts = start, []
        for _ in range(nsteps):
            state = step(state)
            counts.append(len(built))
    _step_layers.cache_clear()
    assert held(state) == held(evolve(start, nsteps))
    if name == "ring64_packet":
        # steps 40-100 find both layers' plans in their memos
        assert counts[38] == counts[-1]


def test_layers_die_with_their_cache():
    # a memo holds plans and a plan holds no layer, so dropping the cache frees
    # the layers by reference counting alone; the coin's memo holds two
    # orbit-layout plans
    cfg = LatticeConfig(L=6, theta=0.3)
    gc.disable()
    try:
        _step_layers.cache_clear()
        states = [step(three_particles()), evolve(loaded(cfg, sector(cfg, 6), seed=1), 2)]
        layers = _step_layers(cfg, False)
        assert [len(layer.memo) for layer in layers] == [2, 2]
        refs = [weakref.ref(layer) for layer in layers]
        _step_layers.cache_clear()
        del layers, states
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()



def test_memo_keeps_its_own_keys():
    # a caller that writes into the keys it passed to step_keys, or into the
    # keys it got back, changes no later step. The two random states hold
    # 110 words each; the full sector's coin returns its orbit layout's words
    cfg = LatticeConfig(L=6, theta=0.3)
    first, second = three_particles(), loaded(cfg, sector(cfg, 3)[:110], seed=7)
    full = loaded(cfg, sector(cfg, 6), seed=8, specials=False)
    _step_layers.cache_clear()
    want = [held(step(s)) for s in (full, second, first)]
    _step_layers.cache_clear()
    keys = first.words.copy()
    got = [step_keys(cfg, keys, first.amps.copy()), step_keys(cfg, full.words, full.amps.copy())]
    keys[:] = second.words
    for array in itertools.chain(*got):
        if array.flags.writeable:
            array[:] = 0
    # the full sector first, while both memos still hold its plans
    again = [
        step_keys(cfg, k, s.amps.copy())
        for k, s in ((full.words, full), (keys, second), (first.words, first))
    ]
    assert [(k.tolist(), a.tobytes()) for k, a in again] == want


def test_memo_matches_the_dtype_too():
    # L=32 words fit 64 bits, and keys with index bits above them are Python
    # ints: index-0 keys of that dtype equal a state's words in value alone
    cfg = LatticeConfig(L=32, theta=0.3)
    state = basis_state(cfg, [(3, Eps.PLUS), (9, Eps.MINUS)])
    _step_layers.cache_clear()
    want = held(step(state))
    keys, amps = step_keys(cfg, state.words.astype(object), state.amps.copy())
    assert keys.dtype == object and (keys.tolist(), amps.tobytes()) == want

def test_threads_sharing_layers_equal_a_serial_run():
    # four threads step 50 times each through both configs' cached layers. The
    # ring packets start on different cells, so the threads replace each
    # other's memo entries; the L=6 states fill one sector, so the threads
    # apply the same orbit-layout plan at once
    ring, six = LatticeConfig(L=64, theta=0.1), LatticeConfig(L=6, theta=0.3)
    starts = [
        [basis_state(ring, [(16 * i, Eps.PLUS)]), loaded(six, sector(six, 6), seed=i)]
        for i in range(4)
    ]

    def trajectory(states):
        out = []
        for _ in range(50):
            states = [step(s) for s in states]
            out.append([held(s) for s in states])
        return out

    _step_layers.cache_clear()
    serial = [trajectory(s) for s in starts]
    _step_layers.cache_clear()
    got = [None] * len(starts)
    barrier = threading.Barrier(len(starts))

    def worker(i):
        barrier.wait(timeout=60)
        got[i] = trajectory(starts[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(starts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-step
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial
