"""Replica engine: exact noise-averaged moments of per-realization probabilities.

A single noise realization evolves a pure state, so the probability of ending
in a given well is itself a random variable.  Averaging a product of n such
probabilities requires propagating n (ket, bra) path pairs jointly; averaging
over the white-noise field turns that joint propagation into a linear ODE on
the 4^n-dimensional tensor space of pair states.  The generator splits into

  * a diagonal dephasing part, -gamma * (sum of per-pair ket-bra separations)^2,
  * an off-diagonal tunneling part, (i*delta/2) times the Kronecker sum of the
    single-pair jump matrix.

Finite-time moments are contractions of exp(G t) applied to a product initial
vector; stationary moments come from the projector onto the null space of G.
Write G = -gamma Z^2 + (i delta / 2) X with Z the real diagonal of total
ket-bra separations and X the real symmetric tunneling matrix.  Then
Re(v^H G v) = -gamma |Z v|^2, so for gamma, delta > 0 the null space is
ker Z cap ker X: real, independent of gamma and delta, and supported on the
zero-separation coordinates S.  With R and L real bases of the right and left
null spaces, the projector is P0 = R (L^T R)^-1 L^T, found from X[:, S] and
X^T[:, S] alone, without eigenvectors.  It therefore stays well-conditioned
at gamma = 2 delta, where the transient block of G is defective.

MomentSpec moments use the replica-permutation-symmetric sector (dimension
C(n+3, 3) instead of 4^n); stationary mixed moments use the product of one
such sector per group of replicas that share an initial state.  The dense
generator serves finite-time mixed moments, the spectrum, and the "eig" and
"resolvent" cross-checks.

Pair-state ordering is fixed as (ket, bra) = (L,L), (L,R), (R,L), (R,R) with
indices 0..3 and ket-bra separations 0, -1, +1, 0.  Multi-pair indices are
little-endian base 4: pair 0 is the least significant digit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .model import ModelParams, SpinState, WellLabel

# Largest replica count of the dense generator; dim 4^6 = 4096 keeps dense
# linear algebra workable.
N_MAX = 6

# Largest replica count of the symmetric sector (dim C(23, 3) = 1771 at 20),
# the order cap of model.beta_cross_moment.
SECTOR_N_MAX = 20

# Eigenvalues with |mu| below this times max(gamma, delta) count as the
# stationary (zero) eigenspace of the "eig" cross-check and of the decay rates.
ZERO_EIG_REL_CUTOFF = 1e-10

_REAL_TOL_FINITE = 1e-9
_REAL_TOL_STATIONARY = 1e-8

# ket-bra separation per pair state, in units of the well spacing.
PAIR_XI = np.array([0.0, -1.0, 1.0, 0.0])

_WELL_TO_PAIR_INDEX = {WellLabel.LEFT: 0, WellLabel.RIGHT: 3}


class NoStationaryLimitError(ValueError):
    """Raised when the dynamics has no unique stationary value (gamma or delta zero)."""


@dataclass(frozen=True)
class PairState:
    """One forward (ket) path and one conjugate (bra) path at an instant."""

    ket_well: WellLabel
    bra_well: WellLabel

    @property
    def index(self) -> int:
        return (0 if self.ket_well is WellLabel.LEFT else 2) + (
            0 if self.bra_well is WellLabel.LEFT else 1
        )

    @property
    def xi(self) -> float:
        """Ket-bra separation: 0 on diagonal states, -1 / +1 on coherences."""
        return float(PAIR_XI[self.index])

    @classmethod
    def from_index(cls, index: int) -> "PairState":
        if not 0 <= index < 4:
            raise ValueError(f"pair index must be in 0..3, got {index}")
        ket = WellLabel.LEFT if index < 2 else WellLabel.RIGHT
        bra = WellLabel.LEFT if index % 2 == 0 else WellLabel.RIGHT
        return cls(ket, bra)


@dataclass(frozen=True)
class ReplicaBasisState:
    """Basis state of n pairs, addressed by a little-endian base-4 index."""

    pairs: tuple[PairState, ...]

    @property
    def index(self) -> int:
        return sum(pair.index * 4**k for k, pair in enumerate(self.pairs))

    @property
    def total_xi(self) -> float:
        return sum(pair.xi for pair in self.pairs)

    @classmethod
    def from_index(cls, n_pairs: int, index: int) -> "ReplicaBasisState":
        if not 0 <= index < 4**n_pairs:
            raise ValueError(f"index {index} out of range for {n_pairs} pairs")
        digits = []
        rest = index
        for _ in range(n_pairs):
            digits.append(PairState.from_index(rest % 4))
            rest //= 4
        return cls(pairs=tuple(digits))


def pair_jump_matrix() -> np.ndarray:
    """Single-pair tunneling connectivity with transition-amplitude signs.

    Entry (target, source) is +1 when the ket path hops, -1 when the bra path
    hops (the conjugate amplitude flips the sign); symmetric, rows sum to 0.
    """
    return np.array(
        [
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    )


@dataclass(eq=False)
class ReplicaGenerator:
    """Generator G = diag(dephasing) + jump of the n-pair averaged dynamics."""

    n_pairs: int
    params: ModelParams
    dephasing_diag: np.ndarray  # real, shape (4^n,), entries <= 0
    jump: np.ndarray  # complex, shape (4^n, 4^n)

    @property
    def dim(self) -> int:
        return 4**self.n_pairs

    def matrix(self) -> np.ndarray:
        mat = self.jump.astype(complex, copy=True)
        mat[np.diag_indices_from(mat)] += self.dephasing_diag
        return mat


def _total_xi_vector(n: int) -> np.ndarray:
    """Sum of per-pair ket-bra separations for every base-4 index."""
    idx = np.arange(4**n)
    total = np.zeros(4**n)
    for _ in range(n):
        total += PAIR_XI[idx % 4]
        idx //= 4
    return total


def build_generator(n: int, params: ModelParams) -> ReplicaGenerator:
    """Assemble the 4^n generator: dephasing diagonal plus tunneling Kronecker sum."""
    if not 1 <= n <= N_MAX:
        raise ValueError(f"replica count must be in 1..{N_MAX}, got {n}")
    dephasing = -params.gamma * _total_xi_vector(n) ** 2
    lam = pair_jump_matrix()
    dim = 4**n
    connectivity = np.zeros((dim, dim))
    for k in range(n):
        site = np.kron(np.kron(np.eye(4 ** (n - 1 - k)), lam), np.eye(4**k))
        connectivity += site
    jump = 0.5j * params.delta * connectivity
    return ReplicaGenerator(n_pairs=n, params=params, dephasing_diag=dephasing, jump=jump)


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t!r}")


def evolve(gen: ReplicaGenerator, v0: np.ndarray, t: float) -> np.ndarray:
    """Propagate a coefficient vector: exp(G t) @ v0."""
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (gen.dim,):
        raise ValueError(f"vector has shape {v0.shape}, generator dim is {gen.dim}")
    _check_time(t)
    if t == 0.0:
        return v0.copy()
    return scipy.linalg.expm(gen.matrix() * t) @ v0


@dataclass(frozen=True)
class MomentSpec:
    """Which moment to extract: initial state plus per-replica final wells."""

    initial_state: SpinState
    n_left: int
    n_right: int

    def __post_init__(self) -> None:
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("replica counts must be >= 0")
        if self.n_pairs < 1:
            raise ValueError("need at least one replica")

    @property
    def n_pairs(self) -> int:
        return self.n_left + self.n_right


def pair_initial_vector(state: SpinState) -> np.ndarray:
    """Single-pair initial coefficients (|a|^2, a b*, a* b, |b|^2)."""
    a, b = complex(state.amp_left), complex(state.amp_right)
    return np.array([abs(a) ** 2, a * b.conjugate(), a.conjugate() * b, abs(b) ** 2])


def _selector(well: WellLabel) -> np.ndarray:
    vec = np.zeros(4)
    vec[_WELL_TO_PAIR_INDEX[well]] = 1.0
    return vec


def _kron_chain(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor vectors so that vectors[k] addresses pair k (least significant)."""
    return functools.reduce(np.kron, reversed(list(vectors)))


def trace_selector(n: int) -> np.ndarray:
    """Selector summing the diagonal pair components of every replica.

    Contracting it with any evolved initial vector gives 1 for all times:
    each replica carries a trace-one averaged density matrix.
    """
    return _kron_chain([np.array([1.0, 0.0, 0.0, 1.0])] * n)


def _spec_vectors(spec: MomentSpec) -> tuple[np.ndarray, np.ndarray]:
    init = pair_initial_vector(spec.initial_state)
    v0 = _kron_chain([init] * spec.n_pairs)
    sels = [_selector(WellLabel.LEFT)] * spec.n_left + [_selector(WellLabel.RIGHT)] * spec.n_right
    return v0, _kron_chain(sels)


def _as_probability(value: complex, tol: float) -> float:
    if abs(value.imag) > tol:
        raise ArithmeticError(f"moment not real within {tol}: {value!r}")
    if not (-tol <= value.real <= 1.0 + tol):
        raise ArithmeticError(f"moment outside [0, 1] within {tol}: {value!r}")
    return min(1.0, max(0.0, value.real))


def _symmetric_sector(n: int) -> tuple[list, dict, np.ndarray, np.ndarray]:
    """Replica-permutation-symmetric sector: basis, separations and real jump matrix.

    Basis: occupation tuples (n0, n1, n2, n3) over the four pair states, one
    coefficient per tuple; dimension C(n+3, 3) instead of 4^n.  Valid whenever
    the initial vector is a tensor power and the selector is contracted against
    a permutation-invariant evolution, which holds for every MomentSpec.  The
    generator is diag(-gamma * xi^2) + (i*delta/2) * jump, xi = n2 - n1.
    """
    if not 1 <= n <= SECTOR_N_MAX:
        raise ValueError(f"replica count must be in 1..{SECTOR_N_MAX}, got {n}")
    occupations = [
        (i, j, k, n - i - j - k)
        for i in range(n + 1)
        for j in range(n + 1 - i)
        for k in range(n + 1 - i - j)
    ]
    index = {occ: pos for pos, occ in enumerate(occupations)}
    xi = np.array([occ[2] - occ[1] for occ in occupations], dtype=float)
    lam = pair_jump_matrix()
    jump = np.zeros((len(occupations), len(occupations)))
    for occ, col in index.items():
        for src in range(4):
            if occ[src] == 0:
                continue
            for dst in range(4):
                if lam[dst, src] == 0.0:
                    continue
                moved = list(occ)
                moved[src] -= 1
                moved[dst] += 1
                jump[index[tuple(moved)], col] += lam[dst, src] * moved[dst]
    return occupations, index, xi, jump


def _sector_vectors(
    init: np.ndarray, n_left: int, n_right: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sector separations, jump, initial coefficients and selected row of one group.

    The group is n_left + n_right replicas that all start from the pair
    vector ``init``; n_left of them select the left well.
    """
    occupations, index, xi, jump = _symmetric_sector(n_left + n_right)
    coeffs = np.prod(init ** np.array(occupations), axis=1)
    return xi, jump, coeffs, index[(n_left, 0, 0, n_right)]


def finite_time_moment(spec: MomentSpec, params: ModelParams, t: float) -> float:
    """<product of final-well probabilities> at time t, exact to solver tolerance."""
    _check_time(t)
    xi, jump, coeffs, row = _sector_vectors(
        pair_initial_vector(spec.initial_state), spec.n_left, spec.n_right
    )
    if t == 0.0:
        return _as_probability(coeffs[row], _REAL_TOL_FINITE)
    gen = 0.5j * params.delta * jump
    gen[np.diag_indices_from(gen)] -= params.gamma * xi**2
    value = scipy.linalg.expm(gen * t)[row] @ coeffs
    return _as_probability(value, _REAL_TOL_FINITE)


def _require_stationary(params: ModelParams) -> None:
    if params.gamma == 0.0 or params.delta == 0.0:
        raise NoStationaryLimitError(
            "no stationary limit: dynamics is oscillatory (gamma=0) or frozen (delta=0)"
        )


def _null_basis(block: np.ndarray) -> np.ndarray:
    """Orthonormal real basis of the null space of `block` (all-zero rows dropped)."""
    return scipy.linalg.null_space(block[np.any(block != 0.0, axis=1)])


def _projector_contraction(
    right: np.ndarray, left: np.ndarray, v0: np.ndarray, sel: np.ndarray
) -> complex:
    """sel @ P0 @ v0 with P0 = R (L^T R)^-1 L^T, everything on the coordinates S.

    R and L are bases of the null spaces of X[:, S] and X^T[:, S].
    """
    return complex((sel @ right) @ np.linalg.solve(left.T @ right, left.T @ v0))


def _kron_sum_columns(mats: Sequence[np.ndarray], cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of the Kronecker sum of square ``mats``, built without the rest.

    The index is row-major over the factors: the last factor varies fastest.
    """
    dims = [len(mat) for mat in mats]
    out = np.zeros((math.prod(dims), len(cols)))
    which = np.arange(len(cols))
    stride = len(out)
    for mat, dim in zip(mats, dims):
        stride //= dim
        digit = (cols // stride) % dim
        out[cols + (np.arange(dim)[:, None] - digit) * stride, which] += mat[:, digit]
    return out


def _stationary_product_sector(groups: Sequence[tuple[np.ndarray, int, int]]) -> complex:
    """Stationary moment of replica groups, from the product of their symmetric sectors.

    Group (init, n_left, n_right) is n_left + n_right replicas that start from
    the pair vector ``init``, n_left of them selecting the left well.  The
    generator commutes with every permutation of the replicas, so each group
    stays in its own symmetric sector and the product of the sectors is
    invariant: its jump matrix is the Kronecker sum of the sector jumps, its
    separation the sum of theirs, and its initial vector the Kronecker
    product of their coefficient vectors.  The value is the null-space
    projector on the zero-separation coordinates; one group is a MomentSpec.
    """
    sectors = [_sector_vectors(*group) for group in groups]
    dims = [len(xi) for xi, _, _, _ in sectors]
    xi = functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), [sec[0] for sec in sectors])
    coeffs = functools.reduce(np.kron, [sec[2] for sec in sectors])
    row = np.ravel_multi_index([sec[3] for sec in sectors], dims)
    zero = np.flatnonzero(xi == 0.0)
    jumps = [sec[1] for sec in sectors]
    right = _null_basis(_kron_sum_columns(jumps, zero))
    if all(np.array_equal(jump, jump.T) for jump in jumps):
        left = right  # single replicas: a symmetric Kronecker sum, as the dense X
    else:
        left = _null_basis(_kron_sum_columns([jump.T for jump in jumps], zero))
    return _projector_contraction(right, left, coeffs[zero], (zero == row).astype(float))


def _zero_cutoff(params: ModelParams) -> float:
    return ZERO_EIG_REL_CUTOFF * max(params.gamma, params.delta)


def _eig_contraction(matrix: np.ndarray, v0: np.ndarray, sel: np.ndarray, cutoff: float) -> complex:
    """Contract the spectral projector onto the zero eigenspace: sel @ P0 @ v0."""
    eigvals, eigvecs = np.linalg.eig(matrix)
    mask = np.abs(eigvals) < cutoff
    if not mask.any():
        raise ArithmeticError("no zero eigenvalue found; generator is not stationary")
    coeffs = np.linalg.solve(eigvecs, v0.astype(complex))
    return complex(sel @ (eigvecs[:, mask] @ coeffs[mask]))


def _resolvent_contraction(
    matrix: np.ndarray, v0: np.ndarray, sel: np.ndarray, scale: float
) -> complex:
    """Richardson-extrapolated lam * sel @ (lam I - G)^-1 @ v0 as lam -> 0+."""
    lam0 = 1e-6 * scale
    eye = np.eye(matrix.shape[0], dtype=complex)
    values = []
    for lam in (lam0, lam0 / 2.0, lam0 / 4.0):
        x = np.linalg.solve(lam * eye - matrix, v0.astype(complex))
        values.append(lam * (sel @ x))
    f1, f2, f4 = values
    g1 = 2.0 * f2 - f1
    g2 = 2.0 * f4 - f2
    return (4.0 * g2 - g1) / 3.0


def infinite_time_moment(spec: MomentSpec, params: ModelParams, method: str = "auto") -> float:
    """Stationary limit of :func:`finite_time_moment`.

    method:
      * "auto" or "reduced": null-space projector of the symmetric sector,
        dimension C(n+3, 3), for n up to SECTOR_N_MAX (primary).
      * "eig": spectral projector of the dense 4^n generator from its full
        eigendecomposition (cross-check, n <= N_MAX).
      * "resolvent": small-frequency resolvent residue of the dense generator
        with Richardson extrapolation (cross-check mirroring the
        Laplace-domain argument, n <= N_MAX).
    """
    _require_stationary(params)
    if method in ("auto", "reduced"):
        groups = [(pair_initial_vector(spec.initial_state), spec.n_left, spec.n_right)]
        value = _stationary_product_sector(groups)
    elif method in ("eig", "resolvent"):
        gen = build_generator(spec.n_pairs, params)
        v0, sel = _spec_vectors(spec)
        if method == "eig":
            value = _eig_contraction(gen.matrix(), v0, sel, _zero_cutoff(params))
        else:
            value = _resolvent_contraction(gen.matrix(), v0, sel, max(params.gamma, params.delta))
    else:
        raise ValueError(f"unknown method {method!r}")
    return _as_probability(value, _REAL_TOL_STATIONARY)


def mixed_initial_moment(
    replicas: Sequence[tuple[SpinState, WellLabel]],
    params: ModelParams,
    t: float | None = None,
) -> float:
    """<product over replicas of P(state_k -> well_k)> with per-replica initial states.

    Generalizes MomentSpec to correlators that pair different initial states
    against the same noise, e.g. the cross term of an initial-state
    sensitivity experiment.  t=None takes the stationary limit in the product
    of the symmetric sectors of the groups of replicas that share an initial
    state; a finite t evolves the dense 4^n generator.
    """
    n = len(replicas)
    if not 1 <= n <= N_MAX:
        raise ValueError(f"need 1..{N_MAX} replicas, got {n}")
    if t is not None:
        v0 = _kron_chain([pair_initial_vector(state) for state, _ in replicas])
        sel = _kron_chain([_selector(well) for _, well in replicas])
        value = sel @ evolve(build_generator(n, params), v0, t)
        return _as_probability(value, _REAL_TOL_FINITE)
    _require_stationary(params)
    groups: dict[tuple, list] = {}
    for state, well in replicas:
        init = pair_initial_vector(state)
        counts = groups.setdefault(tuple(init), [init, 0, 0])
        counts[1 if well is WellLabel.LEFT else 2] += 1
    value = _stationary_product_sector([tuple(group) for group in groups.values()])
    return _as_probability(value, _REAL_TOL_STATIONARY)


def spectrum(gen: ReplicaGenerator) -> np.ndarray:
    """All eigenvalues of the generator, sorted by real part descending."""
    eigvals = np.linalg.eigvals(gen.matrix())
    order = np.lexsort((-eigvals.imag, -eigvals.real))
    return eigvals[order]


def moment_decay_rates(
    spec: MomentSpec, params: ModelParams, rel_weight_tol: float = 1e-9
) -> np.ndarray:
    """Decay rates actually present in the moment curve, slowest first.

    Expands the contraction sel @ exp(G t) @ v0 over eigenmodes and keeps the
    rates (-Re mu) of modes whose weight is non-negligible, dropping the
    stationary mode.  This isolates the relaxation times of one specific
    moment from the full generator spectrum.
    """
    gen = build_generator(spec.n_pairs, params)
    v0, sel = _spec_vectors(spec)
    eigvals, eigvecs = np.linalg.eig(gen.matrix())
    weights = (sel @ eigvecs) * np.linalg.solve(eigvecs, v0.astype(complex))
    scale = np.abs(weights).sum()
    active = (np.abs(weights) > rel_weight_tol * scale) & (
        np.abs(eigvals) >= _zero_cutoff(params)
    )
    return np.sort(-eigvals[active].real)


def permutation_symmetry_defect(
    n: int, m: int, params: ModelParams, t: float | None = None
) -> float:
    """Defect of the initial/final permutation identity for moment orders (n, m).

    Compares <P_(L->L)^n P_(L->R)^m> against <P_(L->L)^m P_(R->L)^n>; the
    latter is the same selector pattern contracted against the all-right
    initial state.  The identity is exact in the stationary limit (t=None);
    at finite t it holds identically only for n == m, and the defect measures
    the remaining distance from stationarity otherwise.
    """
    if n == 0 and m == 0:
        return 0.0
    spec_left = MomentSpec(SpinState.localized(WellLabel.LEFT), n_left=n, n_right=m)
    spec_right = MomentSpec(SpinState.localized(WellLabel.RIGHT), n_left=n, n_right=m)
    if t is None:
        return abs(
            infinite_time_moment(spec_left, params) - infinite_time_moment(spec_right, params)
        )
    return abs(finite_time_moment(spec_left, params, t) - finite_time_moment(spec_right, params, t))
