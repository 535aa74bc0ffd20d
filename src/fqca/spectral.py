"""Momentum modes, eigenphases, effective Hamiltonian and the Dirac sea.

Mode conventions, fixed once here and checked by the sector-spectrum tests:

- Plane-wave ladders use one Fourier convention for both internal states:
  creator a^dag_{k,eps} = sum_j exp(-i j k dx) a^dag_{j,eps}, annihilator the
  conjugate. With that choice the annihilator coefficient pair
  (a_{k,Plus}, a_{k,Minus}) closes under conjugation by the step unitary with
  the 2x2 matrix M(k).
- M(k) = cos(phi) I - i sin(phi) nhat.sigma with cos(phi) = cos(theta)
  cos(k dx). ModeMatrix.vplus is the eigenvector with M-eigenvalue
  exp(-i phi) (the +1 eigenvector of nhat.sigma), vminus the exp(+i phi) one.
- The positive-energy band ladder b_{k,Plus} is built on vminus: then
  U b^dag_{k,Plus}|vac> = exp(-i phi) b^dag_{k,Plus}|vac>, i.e. energy
  +phi/dt, and the Minus band gets -phi/dt.
- The modes are free, so the Dirac sea is one Slater determinant of band
  orbitals (mode_orbital, slater_state), and each of its excitations is one
  ladder, b^dag_{k,Plus} or b_{k,Minus}, on one shared Slater state: the
  run takes two determinant batches, the sea's and the shared state's. The
  sea runs on sorted word and amplitude arrays from the determinant to the
  overlap: dirac_sea_excitations enumerates each sector once, builds each
  grid's orbitals in one call, and steps each state, the sea included, once.
- On the ring, the n-particle sector behaves like free modes on a momentum
  grid offset by half a grid step for even n and not at all for odd n: the
  Jordan-Wigner string at the seam twists the boundary by (-1)^(n-1)
  (parity_offset).
- Sector spectra are solved one translation block at a time. R moves cell j
  to cell j+1: bit s goes to bit (s+2) mod 2L, with no signs, and R commutes
  with the step unitary. Block m = 0..L-1 is R's eigenvalue exp(2 pi i m / L).
  Since R b^dag_k R^-1 = exp(i k dx) b^dag_k, modes k_1..k_n on the
  parity_offset grid sit in the block with sum k_i dx = 2 pi m / L (mod 2 pi)
  (block_eigenphases).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .evolution import step_keys
from .lattice import PRUNE_THRESHOLD, Boundary, LatticeConfig, _bit_parity, word_dtype

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMAS = np.array([SIGMA1, SIGMA2, SIGMA3])

_DENSE_DIM_CAP = 2000
# the largest L whose Dirac sea build_dirac_sea will fill
MAX_SEA_CELLS = 8


class Band(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


def momentum_grid(config: LatticeConfig, offset: float = 0.0) -> np.ndarray:
    """Ascending grid k = 2 pi (n + offset) / (L dx) restricted to -pi < k dx <= pi."""
    L = config.L
    lo = math.floor(-L / 2 - offset) + 1
    hi = math.floor(L / 2 - offset)
    return 2 * math.pi * (np.arange(lo, hi + 1) + offset) / (L * config.dx)


@dataclass
class ModeMatrix:
    """The 2x2 mode algebra at each point of a grid; each field leads with the grid's shape."""

    matrix: np.ndarray  # M, (..., 2, 2)
    phi: np.ndarray     # (...)
    vplus: np.ndarray   # (..., 2), M-eigenvalue exp(-i phi)
    vminus: np.ndarray  # (..., 2), M-eigenvalue exp(+i phi)
    nhat: np.ndarray    # (..., 3)

    def hamiltonian(self, dt: float) -> np.ndarray:
        """H = (phi / dt) nhat.sigma at each point, so that exp(-i H dt) = M."""
        return np.asarray(self.phi / dt)[..., None, None] * np.tensordot(self.nhat, SIGMAS, 1)


def _unit(v: np.ndarray) -> np.ndarray:
    """Each row of v over its norm, with its largest component made real positive."""
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return v / (top / np.abs(top))


def mode_algebra(theta, kdx) -> ModeMatrix:
    """M(k), phi, nhat and the band vectors at coin angles theta and momenta k dx.

    theta and kdx broadcast together, and each point is computed on its
    own: a grid gives each point the bits a call at that point alone gives.
    """
    theta, kdx = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(kdx, dtype=float))
    c, s = np.cos(theta), np.sin(theta)
    ck, sk = np.cos(kdx), np.sin(kdx)
    ekm, ekp = np.exp(-1j * kdx), np.exp(1j * kdx)
    matrix = np.stack([ekm * c, -ekp * s, ekm * s, ekp * c], axis=-1).reshape(kdx.shape + (2, 2))
    # sin^2 phi = 1 - c^2 ck^2 = s^2 + c^2 sk^2: the sum keeps its digits
    # near phi = 0 and pi, where 1 - cos^2 phi cancels
    sinphi = np.sqrt(s * s + (c * sk) ** 2)
    phi = np.arctan2(sinphi, c * ck)
    # where sin phi vanishes M is diagonal: take nhat along sigma3
    flat = (sinphi < 1e-12)[..., None]
    axis = np.stack([s * sk, s * ck, c * sk], axis=-1) / np.where(flat, 1.0, sinphi[..., None])
    nhat = np.where(flat, [0.0, 0.0, 1.0], axis)
    n1, n2, n3 = np.moveaxis(nhat, -1, 0)
    # near nhat = -e3 both raw band vectors vanish: take the basis vectors
    raw = (1.0 + n3 > 1e-12)[..., None]
    vplus = np.where(raw, np.stack([1.0 + n3, n1 + 1j * n2], axis=-1), [0.0, 1.0])
    vminus = np.where(raw, np.stack([-(n1 - 1j * n2), 1.0 + n3], axis=-1), [1.0, 0.0])
    return ModeMatrix(matrix, phi, _unit(vplus), _unit(vminus), nhat)


def step_matrix(config: LatticeConfig, k) -> ModeMatrix:
    """The mode algebra of config at momenta k, a number or an array."""
    return mode_algebra(config.theta, np.asarray(k) * config.dx)


def _require_periodic(config: LatticeConfig) -> None:
    if config.boundary is not Boundary.PERIODIC:
        raise ValueError("momentum modes need the periodic boundary")


def _check_on_grid(config: LatticeConfig, k, offset: float) -> None:
    k = np.atleast_1d(k)
    v = k * config.L * config.dx / (2 * math.pi) - offset
    off = np.abs(v - np.round(v)) > 1e-9
    if off.any():
        raise ValueError(f"k={k[off][0]} not on the offset-{offset} momentum grid")
    outside = ~((-math.pi < k * config.dx) & (k * config.dx <= math.pi + 1e-12))
    if outside.any():
        raise ValueError(f"k={k[outside][0]} outside the Brillouin zone")


def mode_orbital(config: LatticeConfig, k, band: Band, offset: float = 0.0) -> np.ndarray:
    """Site coefficients c of b^dag_{k,band} = sum_s c[s] a^dag_s, indexed by bit.

    k is a number or an array of grid momenta; the orbitals of an array
    stack along its shape. The plane-wave creator a^dag_{k,eps} puts
    exp(-i j k dx) on cell j; the band mixes the two eps with the conjugated
    band vector, whose components are (Plus, Minus). The positive-energy
    band rides the exp(+i phi) eigenvector of M.
    """
    _require_periodic(config)
    _check_on_grid(config, k, offset)
    mode = step_matrix(config, k)
    # bit 2j is (j, Minus), bit 2j+1 (j, Plus)
    coeffs = (mode.vminus if band is Band.PLUS else mode.vplus).conj()[..., ::-1]
    coeffs[np.abs(coeffs) < 1e-15] = 0
    phases = np.exp(-1j * np.arange(config.L) * np.asarray(k)[..., None] * config.dx)
    return (phases[..., None] * coeffs[..., None, :]).reshape(np.shape(k) + (config.n_sites,))


@dataclass
class EnergyResult:
    e_plus: np.ndarray
    dirac: np.ndarray
    phi: np.ndarray  # the positive band's step eigenphase


def energy(config: LatticeConfig, k) -> EnergyResult:
    """Lattice and relativistic energies at momenta k, a number or an array."""
    phi = step_matrix(config, k).phi
    m, c = config.mass, config.c
    dirac = np.sqrt((np.asarray(k) * c) ** 2 + (m * c * c) ** 2)
    return EnergyResult(phi / config.dt, dirac, phi)


# ---------------------------------------------------------------------------
# sector spectra, one translation block at a time


def _sector(n_sites: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending n-particle words, and a (dim, n) array of each word's ascending bits.

    The words have the word_dtype of n_sites bits.
    """
    t = word_dtype(n_sites).type
    combos = itertools.combinations(range(n_sites), n)
    sites = np.array(list(combos), dtype=np.int64).reshape(math.comb(n_sites, n), n)
    words = (t(1) << sites.astype(t)).sum(axis=1)
    order = np.argsort(words)
    return words[order], sites[order]


def _translation_orbits(L: int, sites: np.ndarray) -> tuple[np.ndarray, ...]:
    """Representative index, shift and orbit period of each word under R.

    sites is _sector's array. Ascending words are in colex order, so the
    word with bits s_0 < ... < s_{n-1} has index sum_i C(s_i, i+1). rep[i]
    is the index of the smallest word r of word i's orbit, and R^shift[i]
    maps r to word i.
    """
    dim, n = sites.shape
    n_sites = 2 * L
    rank = np.array(
        [[math.comb(s, i + 1) for i in range(n)] for s in range(n_sites)], dtype=np.int64
    )
    # image[t, i]: the index of R^t applied to word i
    image = np.array(
        [rank[np.sort((sites + 2 * t) % n_sites, axis=1), np.arange(n)].sum(axis=1)
         for t in range(L)]
    )
    to_rep = np.argmin(image, axis=0)
    rep = image[to_rep, np.arange(dim)]
    period = L // np.count_nonzero(image == np.arange(dim), axis=0)
    return rep, -to_rep % L, period


def block_eigenphases(config: LatticeConfig, n: int) -> list[np.ndarray]:
    """Eigenphases of the n-particle sector, one array per translation block m.

    Block m is the R-eigenvalue exp(2 pi i m / L) subspace, spanned by
    |r, m> = p_r^(-1/2) sum_{j < p_r} exp(-2 pi i m j / L) R^j |r> for each
    orbit representative r whose period p_r has m p_r = 0 (mod L). Only the
    representatives are stepped: an image word w = R^s r' adds
    a_w exp(2 pi i m s / L) sqrt(p_r / p_r') to <r', m|U|r, m>. The
    sqrt(p_r / p_r') factor is a diagonal similarity, so it leaves the
    eigenvalues alone; it keeps each block unitary, whose eigenvalues are
    well conditioned.
    """
    _require_periodic(config)
    L, dim = config.L, math.comb(config.n_sites, n)
    if dim > _DENSE_DIM_CAP:
        raise ValueError(
            f"sector dimension {dim} exceeds the dense cap {_DENSE_DIM_CAP}"
        )
    words, sites = _sector(config.n_sites, n)
    rep, shift, period = _translation_orbits(L, sites)
    reps = np.flatnonzero(rep == np.arange(dim))
    # one engine pass: representative c is state c, above the 2L word bits
    nbits = config.n_sites
    t = word_dtype(nbits + (len(reps) - 1).bit_length()).type
    sector = words.astype(t)
    keys = sector[reps] | (np.arange(len(reps), dtype=t) << t(nbits))
    keys, amp = step_keys(config, keys, np.ones(len(reps), dtype=complex))
    col = (keys >> t(nbits)).astype(np.int64)
    hit = np.searchsorted(sector, keys & t((1 << nbits) - 1))
    row = np.searchsorted(reps, rep[hit])
    p = period[reps]
    weight = amp * np.sqrt(p[col] / p[row])
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    blocks = []
    for m in range(L):
        inside = m * p % L == 0
        pos = np.cumsum(inside) - 1
        keep = inside[col] & inside[row]
        size = int(np.count_nonzero(inside))
        B = np.zeros((size, size), dtype=complex)
        np.add.at(
            B,
            (pos[row[keep]], pos[col[keep]]),
            weight[keep] * roots[m * shift[hit[keep]] % L],
        )
        blocks.append(np.angle(np.linalg.eigvals(B)))
    return blocks


def n_particle_eigenphases(config: LatticeConfig, n: int) -> np.ndarray:
    """Sorted eigenphases of the step unitary on the n-particle sector."""
    return np.sort(np.concatenate(block_eigenphases(config, n)))


def expected_nparticle_phases(
    config: LatticeConfig, n: int, offset: float
) -> np.ndarray:
    """Eigenphase multiset predicted by mode sums over the offset grid.

    A mode (k, band) contributes -band_sign * phi_k to the eigenphase, i.e.
    occupied positive-energy modes rotate the state by exp(-i phi_k).
    """
    phi = step_matrix(config, momentum_grid(config, offset)).phi.tolist()
    modes = [s * p for p in phi for s in (+1, -1)]
    phases = []
    for combo in itertools.combinations(modes, n):
        total = -sum(combo)
        phases.append((total + math.pi) % (2 * math.pi) - math.pi)
    return np.sort(np.array(phases))


def circular_multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max matched circular distance between two equal-size phase multisets."""
    if len(a) != len(b):
        raise ValueError("multisets differ in size")
    sa = np.sort(np.mod(a, 2 * math.pi))
    sb = np.sort(np.mod(b, 2 * math.pi))
    best = math.inf
    for roll in range(len(sa)):
        d = np.abs(np.roll(sa, roll) - sb)
        d = np.minimum(d, 2 * math.pi - d)
        best = min(best, float(np.max(d)))
        if best < 1e-13:
            break
    return best


def parity_offset(config: LatticeConfig, n: int) -> float:
    """Grid offset of the n-particle sector on the ring: 1/2 for even n, 0 for odd.

    Moving a particle across the seam reorders it past the other n-1, so
    the Jordan-Wigner string twists the ring's boundary condition by
    (-1)^(n-1): periodic for odd n, antiperiodic for even n. The same holds
    at every L and theta.
    """
    return 0.5 if n % 2 == 0 else 0.0


# ---------------------------------------------------------------------------
# Dirac sea


def _slater_amps(orbitals: list[np.ndarray], sites: np.ndarray) -> np.ndarray:
    """det[c_{m_{n+1-j}}(s_i)] for each row of sites, orbitals m_1..m_n in creation order."""
    return np.linalg.det(np.array(orbitals[::-1]).T[sites])


def _pruned_normalized(words: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (words, amps) without the amplitudes of modulus <= PRUNE_THRESHOLD, normalized.

    Moduli, the norm's sum and the quotients are taken as Python's abs, sum
    and complex-by-float division take them, so every amplitude is bit for
    bit the one a pruned, normalized FockState holds.
    """
    modulus = np.hypot(amps.real, amps.imag)
    keep = modulus > PRUNE_THRESHOLD
    words, re, im = words[keep], amps.real[keep], amps.imag[keep]
    norm = math.sqrt(sum(m ** 2 for m in modulus[keep].tolist()))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero state")
    amps = np.empty(len(words), dtype=complex)
    amps.real = (re + im * 0.0) / norm
    amps.imag = (im - re * 0.0) / norm
    return words, amps


def slater_state(
    config: LatticeConfig,
    orbitals: list[np.ndarray],
    sector: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized b^dag_{m_n} ... b^dag_{m_1}|vac> for orbitals m_1..m_n in creation order.

    Moving the creators into canonical order a^dag_{s_1} ... a^dag_{s_n}|vac>
    = |word> (s_1 < ... < s_n) gives the word the amplitude
    det[c_{m_{n+1-j}}(s_i)]: column j holds the j-th orbital from the last
    created. One batched determinant covers the whole sector, which is
    _sector(config.n_sites, n) or the sector passed in. Returns the sorted
    (words, amps), pruned and normalized (_pruned_normalized).
    """
    words, sites = _sector(config.n_sites, len(orbitals)) if sector is None else sector
    return _pruned_normalized(words, _slater_amps(orbitals, sites))


def build_dirac_sea(
    config: LatticeConfig, sector: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fill every negative-energy mode of the L-particle sector's grid; sorted (words, amps).

    sector is _sector(config.n_sites, config.L), enumerated here if not passed in.
    """
    _require_periodic(config)
    if config.L > MAX_SEA_CELLS:
        raise ValueError(f"build_dirac_sea needs L <= {MAX_SEA_CELLS}")
    offset = parity_offset(config, config.L)
    minus = mode_orbital(config, momentum_grid(config, offset), Band.MINUS, offset)
    return slater_state(config, list(minus), sector)


def _one_site_away(
    words: np.ndarray, sites: np.ndarray, base_words: np.ndarray, base_amps: np.ndarray
) -> np.ndarray:
    """The base state's amplitude at each word's partner across each of its ladder sites.

    sites holds each word's ladder sites, one (dim, n) row per word, and the
    base state (base_words, base_amps) has one particle more or one fewer
    than the words. The partner of w across s is w with bit s flipped. a^dag_s takes w - s
    to w and a_s takes w + s to w, each with the sign (-1)^(occupied sites
    of w below s), which the returned (dim, n) amplitudes carry.
    """
    t = words.dtype.type
    bit = t(1) << sites.astype(t)
    partner = base_amps[np.searchsorted(base_words, words[:, None] ^ bit)]
    odd = _bit_parity(words[:, None] & (bit - t(1)))
    partner[odd] = -partner[odd]
    return partner


def _ladder_amps(coef: np.ndarray, sites: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """sum_j coef[sites[:, j]] partner[:, j], summed one site at a time in ascending order.

    Each product is taken as Python's complex product takes it.
    """
    c = coef[sites]
    terms = np.empty(c.shape, dtype=complex)
    terms.real = c.real * partner.real - c.imag * partner.imag
    terms.imag = c.real * partner.imag + c.imag * partner.real
    amps = terms[:, 0].copy()
    for j in range(1, terms.shape[1]):
        amps += terms[:, j]
    return amps


def eigenphase_of(
    config: LatticeConfig, words: np.ndarray, amps: np.ndarray
) -> tuple[float, float, float]:
    """(|<psi|U|psi>|, arg, ||U psi||) for a normalized state's sorted (words, amps).

    The modulus is 1 iff psi is an eigenstate only while the step keeps the
    norm, so the stepped norm comes with it. The overlap takes each
    conj(a) b as Python's complex product does and sums them sequentially
    in ascending word order.
    """
    out_words, out = step_keys(config, words, amps.copy())
    pos = np.minimum(np.searchsorted(out_words, words), len(out_words) - 1)
    shared = out_words[pos] == words
    a, b = amps[shared], out[pos[shared]]
    ar, ai = a.real, -a.imag
    terms = np.empty(len(a), dtype=complex)
    terms.real = ar * b.real - ai * b.imag
    terms.imag = ar * b.imag + ai * b.real
    ov = sum(terms.tolist())
    return abs(ov), float(np.angle(ov)), float(np.linalg.norm(out))


@dataclass
class SeaExcitation:
    kind: str       # "add_plus" or "remove_minus"
    k: float
    gap: float      # energy above the sea, from sector eigenphases
    phi: float      # single-mode phase phi_k at this k
    eigen_modulus: float


@dataclass
class DiracSea:
    words: np.ndarray  # the sea's sorted words and their amplitudes
    amps: np.ndarray
    modulus: float     # |<sea|U|sea>|
    phase: float       # arg <sea|U|sea>
    excitations: list[SeaExcitation]
    norm_err: float    # the largest | ||U psi|| - 1 | over the sea and its excitations


def dirac_sea_excitations(config: LatticeConfig) -> DiracSea:
    """The sea plus its 2L single-particle / single-hole excitation gaps.

    Excited states are true eigenstates of the step unitary in the (L+1)- and
    (L-1)-particle sectors, built on those sectors' grid (parity_offset);
    gaps are eigenphase differences. The mirror k -> pi/dx - k sends phi_k
    to pi - phi_k. At even L it maps each parity grid onto itself, so the phi
    sums over both grids equal L pi / 2 and each gap equals the excited
    mode's phi_k / dt. At odd L it maps one grid onto the other, so
    sum_{1/2} phi = L pi - sum_0 phi and the gaps miss phi_k / dt.

    Every excitation is one ladder on one shared state S, the excitation
    grid's filled Minus band b^dag_{m_L} ... b^dag_{m_1}|vac> on the sea's
    L-particle words. The modes are free, so b^dag_{p_i} S is the Slater
    state of m_1..m_L, p_i, and since the orbitals are orthonormal,
    b_{m_i} S = (-1)^(L-1-i) times the Slater state of the m without m_i.
    The sea and S are the run's two determinant batches; the ladders are
    sums over sites (_one_site_away, _ladder_amps). Each of the three
    sectors is enumerated once, each grid's orbitals are built in one call,
    and each of the 2L + 1 states is stepped once.
    """
    L, n_sites = config.L, config.n_sites
    sea_sector = _sector(n_sites, L)
    words, amps = build_dirac_sea(config, sea_sector)
    modulus, sea_phase, norm = eigenphase_of(config, words, amps)
    norm_err = abs(norm - 1.0)
    other = parity_offset(config, L + 1)
    grid = momentum_grid(config, other)
    minus = mode_orbital(config, grid, Band.MINUS, other)
    plus = mode_orbital(config, grid, Band.PLUS, other)
    phis = step_matrix(config, grid).phi.tolist()
    shared = (sea_sector[0], _slater_amps(list(minus), sea_sector[1]))
    # the ladder sites of an (L+1)-particle word are its occupied sites,
    # those of an (L-1)-particle word its empty ones
    above = _sector(n_sites, L + 1)
    below_words, occupied = _sector(n_sites, L - 1)
    empty = np.ones((len(below_words), n_sites), dtype=bool)
    empty[np.arange(len(below_words))[:, None], occupied] = False
    below = (below_words, np.nonzero(empty)[1].reshape(len(below_words), L + 1))
    ladders = {
        kind: (*sector, _one_site_away(*sector, *shared))
        for kind, sector in (("add_plus", above), ("remove_minus", below))
    }
    excitations = []
    for i, (k, phi) in enumerate(zip(grid.tolist(), phis)):
        annihilator = minus[i].conj()
        if (L - 1 - i) % 2:
            annihilator = -annihilator
        for kind, coef in (("add_plus", plus[i]), ("remove_minus", annihilator)):
            ladder_words, sites, partner = ladders[kind]
            state = _pruned_normalized(ladder_words, _ladder_amps(coef, sites, partner))
            mod, ph, norm = eigenphase_of(config, *state)
            norm_err = max(norm_err, abs(norm - 1.0))
            gap = ((sea_phase - ph) % (2 * math.pi)) / config.dt
            excitations.append(SeaExcitation(kind, k, gap, phi, mod))
    return DiracSea(words, amps, modulus, sea_phase, excitations, norm_err)


# ---------------------------------------------------------------------------
# dispersion sweep helpers


def dispersion_rows(config: LatticeConfig) -> list[tuple[float, ...]]:
    """(k, kdx, phi, E_lattice, E_dirac, abs_err) per grid momentum."""
    k = momentum_grid(config)
    e = energy(config, k)
    columns = (k, k * config.dx, e.phi, e.e_plus, e.dirac, np.abs(e.e_plus - e.dirac))
    return list(zip(*(c.tolist() for c in columns)))


# theta = k dx = eps at which phi_convergence_slope samples phi
SLOPE_EPS = (0.2, 0.1, 0.05, 0.025)


def phi_convergence_slope() -> float:
    """Log-log slope of |phi - sqrt(2) eps| for the mode algebra's phi at theta = k dx = eps."""
    eps = np.asarray(SLOPE_EPS, dtype=float)
    errs = np.abs(mode_algebra(eps, eps).phi - math.sqrt(2.0) * eps)
    slope, _ = np.polyfit(np.log(eps), np.log(errs), 1)
    return float(slope)
