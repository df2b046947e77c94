import functools
import math

import numpy as np
import pytest
from dense_oracles import _spec_vectors, eig_moment, resolvent_moment, spectrum
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from replica_lab.model import (
    MAX_MOMENT_ORDER,
    ModelParams,
    SpinState,
    WellLabel,
    beta_cross_moment,
    closed_form_offdiag,
    closed_form_p_ll,
    laplace_p_ll,
    laplace_p_ll_sq,
    relaxation_times,
)
from replica_lab import cli, dense, replica
from replica_lab.dense import PAIR_JUMP, PAIR_XI, _pair_vectors
from replica_lab.replica import (
    MomentSpec,
    NoStationaryLimitError,
    _block,
    _expm,
    build_generator,
    evolve,
    finite_time_moment,
    infinite_time_moment,
    mixed_initial_moment,
    moment_decay_rates,
    pair_initial_vector,
    permutation_symmetry_defect,
)

LEFT = SpinState.localized(WellLabel.LEFT)
RIGHT = SpinState.localized(WellLabel.RIGHT)

# gamma/delta points: weak noise, generic, critical (defective transient
# block), strong noise
RATIOS = (0.05, 1.0, 2.0, 20.0)


def _random_state(rng: np.random.Generator) -> SpinState:
    z = rng.normal(size=4)
    return SpinState.normalized(complex(z[0], z[1]), complex(z[2], z[3]))


def _full_block(ell: int, params: ModelParams) -> np.ndarray:
    """Degree-ell block on |l, m>, m = -l..l: diag(i^m)^-1 (-(i delta/2)(J+ + J-) - gamma diag(m^2)) diag(i^m)."""
    m = np.arange(-ell, ell + 1)
    up = np.diag(np.sqrt(ell * (ell + 1) - m[:-1] * (m[:-1] + 1.0)), -1)
    generator = -0.5j * params.delta * (up + up.T) - params.gamma * np.diag(m**2.0)
    quarter = np.array([1, 1j, -1, -1j])[m % 4]
    full = quarter.conj()[:, None] * generator * quarter[None, :]
    assert np.all(full.imag == 0.0)
    return full.real


def _even_columns(ell: int) -> np.ndarray:
    """Q: columns |l, 0> and (|m> + (-1)^m |-m>)/sqrt(2), m = 1..l, on |l, m>, m = -l..l."""
    q = np.zeros((2 * ell + 1, ell + 1))
    q[ell, 0] = 1.0
    m = np.arange(1, ell + 1)
    q[ell + m, m] = math.sqrt(0.5)
    q[ell - m, m] = (-1.0) ** m * math.sqrt(0.5)
    return q


def _full_block_curve(replicas, params: ModelParams, times) -> np.ndarray:
    """The moment at each time from full (2l+1)-blocks, one scipy expm per time and node.

    c_l = (2l+1)/(4 pi) int F(u) b_l(u) dOmega on the Gauss-Legendre times
    trapezoid grid, with b_l(u) = exp(theta_u (-i J_y))[:, l] cos(m (phi_u - pi/2)),
    and the moment is sum_l c_l @ exp(B_l t)[:, l]; no reflection is used.
    """
    bloch = replica._signed_bloch(replicas)
    n = len(bloch)
    cos_t, weights = np.polynomial.legendre.leggauss(n + 1)
    phi = 2.0 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    values = np.zeros(len(times))
    for ell in range(n + 1):
        m = np.arange(-ell, ell + 1)
        turn = _full_block(ell, ModelParams(delta=1.0, gamma=0.0))
        block = _full_block(ell, params)
        coeff = np.zeros(2 * ell + 1)
        for theta, weight in zip(np.arccos(cos_t), weights):
            u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                          np.full_like(phi, np.cos(theta))])
            product = np.prod(0.5 * (1.0 + bloch @ u), axis=0)
            fourier = np.cos(np.outer(m, phi - 0.5 * np.pi)) @ product
            coeff += weight * scipy.linalg.expm(theta * turn)[:, ell] * fourier
        coeff *= (2 * ell + 1) / (2.0 * len(phi))
        values += [coeff @ scipy.linalg.expm(block * t)[:, ell] for t in times]
    return values


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def haar_moment(replicas) -> float:
    """Stationary <prod_k P(state_k -> well_k)> for a final state uniform on the Bloch sphere.

    P(state -> L) = (1 + n.r)/2 with r the state's Bloch vector and n uniform
    on the unit sphere; E[n_x^i n_y^j n_z^k] = (i-1)!!(j-1)!!(k-1)!!/(i+j+k+1)!!
    for even powers and 0 otherwise.
    """
    poly = {(0, 0, 0): 1.0}
    for state, well in replicas:
        a, b = complex(state.amp_left), complex(state.amp_right)
        coh = a.conjugate() * b
        bloch = np.array([2.0 * coh.real, 2.0 * coh.imag, abs(a) ** 2 - abs(b) ** 2])
        r = bloch * (1.0 if well is WellLabel.LEFT else -1.0)
        grown: dict = {}
        for powers, coef in poly.items():
            grown[powers] = grown.get(powers, 0.0) + 0.5 * coef
            for axis in range(3):
                bumped = tuple(p + (axis == i) for i, p in enumerate(powers))
                grown[bumped] = grown.get(bumped, 0.0) + 0.5 * coef * r[axis]
        poly = grown
    total = 0.0
    for powers, coef in poly.items():
        if all(p % 2 == 0 for p in powers):
            num = math.prod(_double_factorial(p - 1) for p in powers)
            total += coef * num / _double_factorial(sum(powers) + 1)
    return total


# <P^2>(t) golden values: 40-digit numerical inverse Laplace (mpmath, Talbot)
# of the second-moment transform.
P_SQ_GOLD = {
    (1.0, 1.0, 1.5): 0.49291146278195214186,
    (3.0, 1.0, 0.8): 0.84908373309158129654,
}


class TestPairBasis:
    def test_jump_matrix_entries(self):
        expected = np.array(
            [[0, -1, 1, 0], [-1, 0, 0, 1], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=float
        )
        assert np.array_equal(PAIR_JUMP, expected)

    def test_jump_matrix_symmetric_zero_rowsum(self):
        assert np.array_equal(PAIR_JUMP, PAIR_JUMP.T)
        assert np.array_equal(PAIR_JUMP.sum(axis=1), np.zeros(4))


class TestBuildGenerator:
    def test_single_pair_dephasing_diagonal(self):
        gen = build_generator(1, ModelParams(delta=1.0, gamma=2.5))
        assert np.array_equal(np.diag(gen), [0.0, -2.5, -2.5, 0.0])

    def test_two_pair_dephasing_values(self):
        gamma = 1.7
        gen = build_generator(2, ModelParams(delta=1.0, gamma=gamma))
        both_lr = 1 + 1 * 4  # both pairs in the ket-L/bra-R coherence
        both_rl = 2 + 2 * 4
        opposed = 1 + 2 * 4  # separations -1 and +1 cancel
        dephasing = np.diag(gen)
        assert dephasing[both_lr] == pytest.approx(-4.0 * gamma)
        assert dephasing[both_rl] == pytest.approx(-4.0 * gamma)
        assert dephasing[opposed] == 0.0

    def test_dephasing_nonpositive_and_diagonal_states_zero(self):
        gen = build_generator(3, ModelParams(delta=1.0, gamma=1.0))
        dephasing = np.diag(gen)
        assert np.all(dephasing.imag == 0.0) and np.all(dephasing.real <= 0.0)
        for index in range(len(gen)):
            digits = [(index // 4**k) % 4 for k in range(3)]  # little-endian, pair 0 first
            if all(PAIR_XI[d] == 0.0 for d in digits):
                assert dephasing[index] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jump_structure(self, n):
        delta = 1.3
        gen = build_generator(n, ModelParams(delta=delta, gamma=0.7))
        # the jump part is off the diagonal, whose entries are real (the dephasing)
        assert np.all(np.diag(gen).imag == 0.0)
        connectivity = (gen - np.diag(np.diag(gen))) / (0.5j * delta)
        assert np.allclose(connectivity.imag, 0.0)
        real = connectivity.real
        assert np.allclose(real, real.T)
        values = np.unique(np.round(real, 12))
        assert set(values).issubset({-1.0, 0.0, 1.0})
        assert np.all((real != 0).sum(axis=1) == 2 * n)

    def test_replica_count_bounds(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            build_generator(0, params)
        with pytest.raises(ValueError):
            build_generator(7, params)
        with pytest.raises(ValueError, match="replica count"):
            build_generator(True, params)  # would build the n = 1 generator


class TestEvolve:
    def test_time_zero_identity(self):
        gen = build_generator(1, ModelParams(delta=1.0, gamma=1.0))
        v0 = pair_initial_vector(SpinState.normalized(1, 1j))
        assert np.array_equal(evolve(gen, v0, 0.0), v0)

    def test_dimension_mismatch(self):
        gen = build_generator(2, ModelParams(delta=1.0, gamma=1.0))
        with pytest.raises(ValueError):
            evolve(gen, np.zeros(4), 1.0)

    def test_non_finite_time(self):
        gen = build_generator(1, ModelParams(delta=1.0, gamma=1.0))
        with pytest.raises(ValueError):
            evolve(gen, np.zeros(4), math.inf)

    @pytest.mark.parametrize("n", [1, 2])
    def test_trace_conservation(self, n):
        params = ModelParams(delta=1.0, gamma=0.8)
        gen = build_generator(n, params)
        v0 = np.kron(
            *([pair_initial_vector(LEFT)] * 2)
        ) if n == 2 else pair_initial_vector(LEFT)
        sel = functools.reduce(np.kron, [[1, 0, 0, 1]] * n)
        for t in np.linspace(0.0, 12.0, 13):
            total = sel @ evolve(gen, v0, float(t))
            assert abs(total - 1.0) < 1e-9

    def test_matches_survival_and_coherence_curves(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        gen = build_generator(1, params)
        v0 = pair_initial_vector(LEFT)
        for t in np.linspace(0.0, 15.0, 46):
            vec = evolve(gen, v0, float(t))
            assert abs(vec[0] - closed_form_p_ll(params, float(t))) < 1e-8
            offdiag = closed_form_offdiag(params, float(t))
            assert abs(vec[1] - offdiag) < 1e-8
            assert abs(vec[2] - offdiag.conjugate()) < 1e-8

    def test_hermitian_structure_preserved(self):
        # swapping ket and bra in every pair while conjugating must commute
        # with the evolution
        params = ModelParams(delta=0.9, gamma=1.4)
        n = 2
        gen = build_generator(n, params)
        swap = np.array([0, 2, 1, 3])
        perm = np.array([swap[i % 4] + 4 * swap[i // 4] for i in range(16)])
        rng = np.random.default_rng(42)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec = raw + np.conj(raw[perm])  # build a structure-obeying vector
        assert np.allclose(vec, np.conj(vec[perm]))
        out = evolve(gen, vec, 2.3)
        assert np.max(np.abs(out - np.conj(out[perm]))) < 1e-10


class TestResolventIsLaplaceTransform:
    """The generator's resolvent entries are the closed-form transforms."""

    @pytest.mark.parametrize("gamma,delta", [(1.0, 1.0), (3.0, 1.0), (0.5, 2.0)])
    def test_single_pair_entry(self, gamma, delta):
        params = ModelParams(delta=delta, gamma=gamma)
        mat = build_generator(1, params)
        for lam in (0.31, 1.0, 2.7):
            resolvent = np.linalg.inv(lam * np.eye(4) - mat)
            assert resolvent[0, 0] == pytest.approx(laplace_p_ll(params, lam), abs=1e-12)

    @pytest.mark.parametrize("gamma,delta", [(1.0, 1.0), (3.0, 1.0)])
    def test_two_pair_entry(self, gamma, delta):
        params = ModelParams(delta=delta, gamma=gamma)
        mat = build_generator(2, params)
        for lam in (0.31, 1.0, 2.7):
            resolvent = np.linalg.inv(lam * np.eye(16) - mat)
            assert resolvent[0, 0] == pytest.approx(laplace_p_ll_sq(params, lam), abs=1e-10)

    def test_residue_at_origin(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        mat = build_generator(1, params)
        values = []
        for lam in (1e-6, 5e-7):
            resolvent = np.linalg.inv(lam * np.eye(4) - mat)
            values.append(lam * resolvent[0, 0].real)
        extrapolated = 2.0 * values[1] - values[0]
        assert extrapolated == pytest.approx(0.5, abs=1e-10)


class TestFiniteTimeMoment:
    def test_single_replica_reduces_to_closed_form(self):
        for gamma, delta in [(1.0, 1.0), (5.0, 1.0), (0.1, 1.0)]:
            params = ModelParams(delta=delta, gamma=gamma)
            horizon = 20.0 * max(relaxation_times(params))
            spec = MomentSpec(LEFT, 1, 0)
            for t in np.linspace(0.0, horizon, 50):
                got = finite_time_moment(spec, params, float(t))
                assert abs(got - closed_form_p_ll(params, float(t))) < 1e-8

    def test_time_zero_trivial_values(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        assert finite_time_moment(MomentSpec(LEFT, 2, 0), params, 0.0) == pytest.approx(1.0)
        assert finite_time_moment(MomentSpec(LEFT, 1, 1), params, 0.0) == pytest.approx(0.0)

    def test_second_moment_golden(self):
        for (gamma, delta, t), expected in P_SQ_GOLD.items():
            got = finite_time_moment(MomentSpec(LEFT, 2, 0), ModelParams(delta=delta, gamma=gamma), t)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_stays_in_unit_interval(self):
        params = ModelParams(delta=1.2, gamma=0.7)
        for spec in (MomentSpec(LEFT, 2, 1), MomentSpec(SpinState.normalized(1, 1j), 1, 1)):
            for t in np.linspace(0.0, 10.0, 21):
                value = finite_time_moment(spec, params, float(t))
                assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_blocks_match_dense_evolution(self, gamma):
        params = ModelParams(delta=1.0, gamma=gamma)
        rng = np.random.default_rng(17)
        for order in range(1, 5):
            gen = build_generator(order, params)
            state = _random_state(rng)
            for t in (0.1, 0.7, 3.0):
                evolved = evolve(gen, _spec_vectors(MomentSpec(state, order, 0))[0], t)
                for n_left in range(order + 1):
                    spec = MomentSpec(state, n_left, order - n_left)
                    dense = (_spec_vectors(spec)[1] @ evolved).real
                    assert finite_time_moment(spec, params, t) == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_blocks_are_quarter_turned_generator_blocks(self, gamma):
        # the even block is the full quarter-turned block on the reflection-even
        # sector, and that sector is invariant: G Q = Q B.  Both hold to rounding
        # of the largest entry, up to gamma l^2 = 8000, since sqrt(1/2)^2 != 1/2.
        params = ModelParams(delta=1.0, gamma=gamma)
        for ell in range(MAX_MOMENT_ORDER + 1):
            full, even = _full_block(ell, params), _even_columns(ell)
            block = _block(ell, params)
            assert block.dtype == np.float64 and block.shape == (ell + 1, ell + 1)
            scale = np.abs(full).max()
            assert np.max(np.abs(block - even.T @ full @ even)) <= 1e-15 * scale
            assert np.max(np.abs(full @ even - even @ block)) <= 1e-15 * scale

    def test_sum_rule_past_dense_cap(self):
        # sum_k C(n, k) <P_L^k P_R^(n-k)> = <(P_L + P_R)^n> = 1 at every t
        params = ModelParams(delta=1.0, gamma=2.0)
        state = SpinState.normalized(1, 2j)
        for n in (7, 20):
            for t in (0.4, 2.5):
                total = sum(
                    math.comb(n, k) * finite_time_moment(MomentSpec(state, k, n - k), params, t)
                    for k in range(n + 1)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_sector_order_cap(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        assert finite_time_moment(MomentSpec(LEFT, MAX_MOMENT_ORDER, 0), params, 0.0) == 1.0
        with pytest.raises(ValueError):
            finite_time_moment(MomentSpec(LEFT, MAX_MOMENT_ORDER + 1, 0), params, 0.2)

    def test_moment_spec_validation(self):
        with pytest.raises(ValueError):
            MomentSpec(LEFT, 0, 0)
        with pytest.raises(ValueError):
            MomentSpec(LEFT, -1, 2)
        # 1.5 would fail at the first moment call, and True would give <P>
        for count in (1.5, True):
            with pytest.raises(ValueError, match="n_left"):
                MomentSpec(LEFT, count, 0)
            with pytest.raises(ValueError, match="n_right"):
                MomentSpec(LEFT, 1, count)


class TestInfiniteTimeMoment:
    @pytest.mark.parametrize("gamma,delta", [(1.0, 1.0), (3.0, 1.0), (1.0, 2.0)])
    def test_pure_and_cross_moments(self, gamma, delta):
        params = ModelParams(delta=delta, gamma=gamma)
        for n_left, n_right in [(1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (0, 2), (2, 1), (2, 2)]:
            value = infinite_time_moment(MomentSpec(LEFT, n_left, n_right), params)
            assert value == pytest.approx(float(beta_cross_moment(n_left, n_right)), abs=1e-8)

    def test_initial_state_independence(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        for state in (SpinState.normalized(1, 1), SpinState.normalized(1, 1j), LEFT):
            for n in (1, 2, 3):
                value = infinite_time_moment(MomentSpec(state, n, 0), params)
                assert value == pytest.approx(1.0 / (n + 1), abs=1e-8)

    def test_methods_agree(self):
        params = ModelParams(delta=0.9, gamma=2.0)
        for spec in (MomentSpec(LEFT, 2, 0), MomentSpec(LEFT, 2, 1), MomentSpec(LEFT, 1, 2)):
            eig = eig_moment(spec, params)
            blocks = infinite_time_moment(spec, params)
            resolvent = resolvent_moment(spec, params)
            assert blocks == pytest.approx(eig, abs=1e-10)
            assert resolvent == pytest.approx(eig, abs=1e-8)

    def test_critically_damped_point_meets_contract(self):
        # at gamma = 2*delta the transient block is defective (a Jordan pair),
        # which degrades the eigenbasis conditioning; the stationary values
        # must still come out within the stated accuracy
        params = ModelParams(delta=1.0, gamma=2.0)
        for n_left, n_right in [(1, 0), (2, 0), (1, 1)]:
            value = infinite_time_moment(MomentSpec(LEFT, n_left, n_right), params)
            assert value == pytest.approx(float(beta_cross_moment(n_left, n_right)), abs=1e-8)

    def test_extended_orders(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        for n in (5, 6):
            value = infinite_time_moment(MomentSpec(LEFT, n, 0), params)
            assert value == pytest.approx(1.0 / (n + 1), abs=1e-7)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_every_split_matches_beta(self, gamma):
        params = ModelParams(delta=1.0, gamma=gamma)
        for order in range(1, 7):
            for n_left in range(order + 1):
                value = infinite_time_moment(MomentSpec(LEFT, n_left, order - n_left), params)
                expected = float(beta_cross_moment(n_left, order - n_left))
                assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_order_cap(self, gamma):
        params = ModelParams(delta=1.0, gamma=gamma)
        value = infinite_time_moment(MomentSpec(LEFT, MAX_MOMENT_ORDER, 0), params)
        assert value == pytest.approx(1.0 / (MAX_MOMENT_ORDER + 1), abs=1e-11)
        with pytest.raises(ValueError):
            infinite_time_moment(MomentSpec(LEFT, MAX_MOMENT_ORDER + 1, 0), params)

    def test_no_stationary_limit(self):
        with pytest.raises(NoStationaryLimitError):
            infinite_time_moment(MomentSpec(LEFT, 1, 0), ModelParams(delta=1.0, gamma=0.0))
        with pytest.raises(NoStationaryLimitError):
            infinite_time_moment(MomentSpec(LEFT, 1, 0), ModelParams(delta=0.0, gamma=1.0))

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_blocks_above_degree_zero_decay(self, gamma):
        # the premise of the stationary value: only the l = 0 term survives
        params = ModelParams(delta=1.0, gamma=gamma)
        for ell in range(1, MAX_MOMENT_ORDER + 1):
            assert np.linalg.eigvals(_block(ell, params)).real.max() < 0.0


class TestMixedInitialMoment:
    def test_reduces_to_moment_spec(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        replicas = [(LEFT, WellLabel.LEFT), (LEFT, WellLabel.RIGHT)]
        mixed = mixed_initial_moment(replicas, params, t=2.0)
        direct = finite_time_moment(MomentSpec(LEFT, 1, 1), params, 2.0)
        assert mixed == pytest.approx(direct, abs=1e-12)

    def test_sensitivity_law_cross_term(self):
        # <(P_S - P_S')^2> = 2/3 - 2 <P_S P_S'> must equal |a b' - a' b|^2 / 3
        params = ModelParams(delta=1.0, gamma=1.0)
        inv = 1.0 / math.sqrt(2.0)
        pairs = [
            (SpinState.normalized(inv, inv), SpinState.normalized(inv, -inv)),
            (LEFT, SpinState.normalized(inv, inv)),
            (LEFT, RIGHT),
            (SpinState.normalized(1, 1j), SpinState.normalized(2, 1j)),
        ]
        for state_a, state_b in pairs:
            cross = mixed_initial_moment(
                [(state_a, WellLabel.LEFT), (state_b, WellLabel.LEFT)], params
            )
            mean_sq_diff = 2.0 / 3.0 - 2.0 * cross
            det = (
                state_a.amp_left * state_b.amp_right - state_b.amp_left * state_a.amp_right
            )
            assert mean_sq_diff == pytest.approx(abs(det) ** 2 / 3.0, abs=1e-8)


    @pytest.mark.parametrize("gamma", RATIOS)
    def test_stationary_matches_haar_oracle(self, gamma):
        # at gamma = 2 delta the dense eigenvector projector failed here with
        # "moment not real" at order 4
        params = ModelParams(delta=1.0, gamma=gamma)
        rng = np.random.default_rng(29)
        wells = (WellLabel.LEFT, WellLabel.RIGHT)
        for order in range(2, 9):
            for _ in range(3):
                replicas = [(_random_state(rng), wells[rng.integers(2)]) for _ in range(order)]
                value = mixed_initial_moment(replicas, params)
                assert value == pytest.approx(haar_moment(replicas), abs=1e-12)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_stationary_one_state_in_both_wells(self, gamma):
        # one state in both wells, left replicas first: the same computation
        # as the MomentSpec with that split
        params = ModelParams(delta=1.0, gamma=gamma)
        rng = np.random.default_rng(37)
        for order in range(2, 7):
            state = _random_state(rng)
            for n_left in range(order + 1):
                replicas = [(state, WellLabel.LEFT)] * n_left + [(state, WellLabel.RIGHT)] * (
                    order - n_left
                )
                value = mixed_initial_moment(replicas, params)
                assert value == pytest.approx(haar_moment(replicas), abs=1e-12)
                spec = MomentSpec(state, n_left, order - n_left)
                assert value == infinite_time_moment(spec, params)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_stationary_every_state_distinct(self, gamma):
        # six different initial states, localized and not
        params = ModelParams(delta=1.0, gamma=gamma)
        inv = 1.0 / math.sqrt(2.0)
        states = [
            LEFT,
            RIGHT,
            SpinState.normalized(inv, inv),
            SpinState.normalized(inv, 1j * inv),
            SpinState.normalized(0.3 - 0.8j, -0.5 + 0.1j),
            _random_state(np.random.default_rng(41)),
        ]
        wells = [WellLabel.LEFT, WellLabel.RIGHT, WellLabel.LEFT, WellLabel.RIGHT] * 2
        replicas = list(zip(states, wells))
        for order in (2, 4, 6):
            head = replicas[:order]
            assert mixed_initial_moment(head, params) == pytest.approx(haar_moment(head), abs=1e-12)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_stationary_groups_of_unequal_size(self, gamma):
        # three groups of 3, 2 and 1 replicas, wells mixed within groups
        params = ModelParams(delta=1.0, gamma=gamma)
        rng = np.random.default_rng(43)
        a, b, c = (_random_state(rng) for _ in range(3))
        left, right = WellLabel.LEFT, WellLabel.RIGHT
        for replicas in (
            [(a, left), (b, right), (a, right), (c, left), (a, left), (b, left)],
            [(a, left)] * 3 + [(b, left)] * 2,
            [(b, right), (c, right), (b, right), (c, left)],
        ):
            value = mixed_initial_moment(replicas, params)
            assert value == pytest.approx(haar_moment(replicas), abs=1e-12)

    def test_stationary_matches_eig_oracle(self):
        params = ModelParams(delta=0.9, gamma=2.0)
        rng = np.random.default_rng(31)
        state = _random_state(rng)
        replicas = [(state, WellLabel.LEFT), (state, WellLabel.LEFT), (state, WellLabel.RIGHT)]
        expected = eig_moment(MomentSpec(state, 2, 1), params)
        assert mixed_initial_moment(replicas, params) == pytest.approx(expected, abs=1e-10)

    def test_no_stationary_limit(self):
        with pytest.raises(NoStationaryLimitError):
            mixed_initial_moment([(LEFT, WellLabel.LEFT)], ModelParams(delta=1.0, gamma=0.0))

    def test_order_caps(self):
        # the projection is exact at any degree, stationary and at finite t
        params = ModelParams(delta=1.0, gamma=1.0)
        left = [(LEFT, WellLabel.LEFT)]
        value = mixed_initial_moment(left * MAX_MOMENT_ORDER, params)
        assert value == pytest.approx(1.0 / (MAX_MOMENT_ORDER + 1), abs=1e-12)
        finite = mixed_initial_moment(left * MAX_MOMENT_ORDER, params, t=1.0)
        spec = MomentSpec(LEFT, MAX_MOMENT_ORDER, 0)
        assert finite == pytest.approx(finite_time_moment(spec, params, 1.0), abs=1e-13)
        with pytest.raises(ValueError):
            mixed_initial_moment(left * (MAX_MOMENT_ORDER + 1), params)
        with pytest.raises(ValueError):
            mixed_initial_moment(left * (MAX_MOMENT_ORDER + 1), params, t=1.0)

    @pytest.mark.parametrize("well", ["left", None])
    def test_malformed_well_refused(self, well):
        # anything but a WellLabel used to count as the right well
        replicas = [(LEFT, WellLabel.LEFT), (LEFT, well)]
        for t in (0.0, 1.0, None):
            with pytest.raises(ValueError, match="replica 1"):
                mixed_initial_moment(replicas, ModelParams(delta=1.0, gamma=1.0), t)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_finite_time_matches_dense_evolution(self, gamma):
        params = ModelParams(delta=1.0, gamma=gamma)
        rng = np.random.default_rng(53)
        wells = (WellLabel.LEFT, WellLabel.RIGHT)
        for order in range(1, 5):
            gen = build_generator(order, params)
            for _ in range(2):
                replicas = [(_random_state(rng), wells[rng.integers(2)]) for _ in range(order)]
                v0, sel = _pair_vectors(replicas)
                for t in (0.1, 0.7, 3.0):
                    dense = (sel @ evolve(gen, v0, t)).real
                    value = mixed_initial_moment(replicas, params, t)
                    assert value == pytest.approx(dense, abs=1e-12), (order, t)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_finite_time_marginal_rule(self, gamma):
        # <X P_B(L)> + <X P_B(R)> = <X>: replica B ends in one of the two wells
        params = ModelParams(delta=1.0, gamma=gamma)
        rng = np.random.default_rng(59)
        wells = (WellLabel.LEFT, WellLabel.RIGHT)
        for order in (7, MAX_MOMENT_ORDER):
            head = [(_random_state(rng), wells[rng.integers(2)]) for _ in range(order - 1)]
            state_b = _random_state(rng)
            for t in (0.4, 2.5):
                split = sum(
                    mixed_initial_moment(head + [(state_b, well)], params, t) for well in wells
                )
                assert split == pytest.approx(mixed_initial_moment(head, params, t), abs=1e-12)


class TestMomentCurve:
    @pytest.mark.parametrize("gamma", RATIOS)
    def test_walk_matches_one_time_calls(self, gamma):
        # snapped grid times repeat a gap up to rounding; the walk must stay
        # within rounding of the one-time call at every point, and exact at 0
        params = ModelParams(delta=1.0, gamma=gamma)
        rng = np.random.default_rng(5)
        replicas = [(_random_state(rng), WellLabel.LEFT), (LEFT, WellLabel.RIGHT),
                    (_random_state(rng), WellLabel.LEFT)]
        times = np.arange(0, 401, 2) * 0.01
        times = np.concatenate([times, [times[-1], 4.5]])
        curve = replica.moment_curve(replicas, params, times)
        for t, value in zip(times, curve):
            assert value == pytest.approx(mixed_initial_moment(replicas, params, t), abs=1e-14)
        assert curve[0] == mixed_initial_moment(replicas, params, 0.0)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_even_sector_walk_matches_full_blocks(self, gamma):
        # past the dense oracle's n <= 4: the projection and walk on the even
        # sector against full (2l+1)-blocks projected without the reflection.
        # Seed 71 was fixed before any run.
        params = ModelParams(delta=1.0, gamma=gamma)
        rng = np.random.default_rng(71)
        times = [0.3, 0.3, 1.7, 4.0]
        for order in range(5, MAX_MOMENT_ORDER + 1):
            state = _random_state(rng)
            n_left = int(rng.integers(order + 1))
            spec = MomentSpec(state, n_left, order - n_left)
            expected = _full_block_curve(replica._spec_replicas(spec), params, [1.7])[0]
            assert finite_time_moment(spec, params, 1.7) == pytest.approx(expected, abs=1e-13)
            replicas = [(_random_state(rng), WellLabel(w)) for w in rng.choice(["left", "right"], order)]
            expected = _full_block_curve(replicas, params, times)
            curve = replica.moment_curve(replicas, params, times)
            assert np.max(np.abs(curve - expected)) <= 1e-13, order

    def test_decay_curve_matches_closed_form(self):
        params = ModelParams(delta=1.0, gamma=0.7)
        times = np.linspace(0.0, 10.0, 201)
        curve = replica.moment_curve([(LEFT, WellLabel.LEFT)], params, times)
        for t, value in zip(times, curve):
            assert value == pytest.approx(closed_form_p_ll(params, float(t)), abs=1e-13)

    @pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [-1.0], [0.0, math.nan], [None]])
    def test_times_refused(self, times):
        with pytest.raises(ValueError, match="time"):
            replica.moment_curve([(LEFT, WellLabel.LEFT)], ModelParams(1.0, 1.0), times)


class TestSpectrum:
    def test_pure_tunneling_eigenvalues(self):
        gen = build_generator(1, ModelParams(delta=1.0, gamma=0.0))
        eigvals = spectrum(gen)
        assert np.max(np.abs(eigvals.real)) < 1e-12
        assert np.allclose(np.sort(eigvals.imag), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_sorted_by_real_part(self):
        gen = build_generator(2, ModelParams(delta=1.0, gamma=1.0))
        eigvals = spectrum(gen)
        assert np.all(np.diff(eigvals.real) <= 1e-12)

    def test_strong_noise_two_timescales(self):
        gamma, delta = 100.0, 1.0
        gen = build_generator(1, ModelParams(delta=delta, gamma=gamma))
        rates = -spectrum(gen).real
        nonzero = np.sort(rates[rates > 1e-8])
        assert len(nonzero) == 3
        assert nonzero[0] == pytest.approx(delta**2 / gamma, rel=0.02)
        assert nonzero[1] == pytest.approx(gamma, rel=0.02)
        assert nonzero[2] == pytest.approx(gamma, rel=0.02)

    def test_two_replica_rate_clusters(self):
        gamma, delta = 100.0, 1.0
        gen = build_generator(2, ModelParams(delta=delta, gamma=gamma))
        rates = -spectrum(gen).real
        nonzero = rates[rates > 1e-8 * gamma]
        slow = nonzero[nonzero < delta]
        fast = nonzero[nonzero >= delta]
        slow_refs = (delta**2 / gamma, 3.0 * delta**2 / gamma)
        fast_refs = (gamma, 4.0 * gamma)
        assert all(min(abs(r - e) / e for e in slow_refs) < 0.05 for r in slow)
        assert all(min(abs(r - e) / e for e in fast_refs) < 0.05 for r in fast)
        for ref in slow_refs + fast_refs:
            assert any(abs(r - ref) / ref < 0.05 for r in nonzero)

    @pytest.mark.parametrize("gamma,max_order", [(0.05, 4), (1.0, 5), (2.0, 4), (20.0, 4)])
    def test_schur_weyl_spectrum(self, gamma, max_order):
        # (l=0 + l=1)^(x)n, the n-pair space, holds degree l with multiplicity
        # C(2n, n-l) - C(2n, n-l-1), so the dense spectrum is the block spectra
        # repeated that often.  Pairing by assignment, not by sorting, keeps
        # near-degenerate complex eigenvalues matched.
        params = ModelParams(delta=1.0, gamma=gamma)
        for n in range(1, max_order + 1):
            full = np.linalg.eigvals(build_generator(n, params))
            # the top degree l = n occurs once
            mult = [math.comb(2 * n, n - ell) - math.comb(2 * n, n - ell - 1) for ell in range(n)] + [1]
            block_eigs = [np.linalg.eigvals(_full_block(ell, params)) for ell in range(n + 1)]
            blocks = np.concatenate([np.repeat(eigs, k) for eigs, k in zip(block_eigs, mult)])
            assert len(blocks) == 4**n
            rows, cols = linear_sum_assignment(np.abs(full[:, None] - blocks[None, :]))
            gap = np.max(np.abs(full[rows] - blocks[cols]))
            # the defective B_1 at gamma = 2 delta splits by sqrt(eps)
            tol = 1e-7 if gamma == 2.0 else 1e-12 * np.max(np.abs(full))
            assert gap < tol, (n, gap)
            # the even blocks' eigenvalues are a sub-multiset of the full blocks'
            for ell, eigs in enumerate(block_eigs):
                even = np.linalg.eigvals(_block(ell, params))
                rows, cols = linear_sum_assignment(np.abs(even[:, None] - eigs[None, :]))
                assert len(rows) == ell + 1
                assert np.max(np.abs(even[rows] - eigs[cols])) < tol, (n, ell)


class TestMomentDecayRates:
    def test_five_active_relaxation_rates(self):
        # moderate noise ratio keeps every mode's weight well above noise
        gamma, delta = 10.0, 1.0
        rates = moment_decay_rates(MomentSpec(LEFT, 2, 0), ModelParams(delta=delta, gamma=gamma))
        assert len(rates) == 5
        tau_fast_rate, tau_slow_rate = gamma, delta**2 / gamma
        expected = np.array(
            [tau_slow_rate, 3 * tau_slow_rate, tau_fast_rate, tau_fast_rate, 4 * tau_fast_rate]
        )
        assert np.allclose(rates, expected, rtol=0.05)

    def test_single_replica_two_rates(self):
        gamma, delta = 100.0, 1.0
        rates = moment_decay_rates(MomentSpec(LEFT, 1, 0), ModelParams(delta=delta, gamma=gamma))
        assert len(rates) == 2
        assert rates[0] == pytest.approx(delta**2 / gamma, rel=0.02)
        assert rates[1] == pytest.approx(gamma, rel=0.02)

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_rates_lie_in_dense_spectrum(self, gamma):
        params = ModelParams(delta=1.0, gamma=gamma)
        state = _random_state(np.random.default_rng(29))
        for order in range(1, 4):
            dense = -spectrum(build_generator(order, params)).real
            for n_left in range(order + 1):
                for initial in (LEFT, state):
                    rates = moment_decay_rates(MomentSpec(initial, n_left, order - n_left), params)
                    assert len(rates) > 0 and np.all(rates > 0)
                    assert all(np.min(np.abs(dense - r)) < 1e-7 for r in rates)

    @pytest.mark.parametrize(
        "gamma,counts",
        [(0.05, (5, 9, 9)), (1.0, (5, 9, 9)), (2.0, (5, 9, 9)), (2.001, (5, 9, 9)), (20.0, (5, 8, 8))],
    )
    def test_rate_counts_from_left(self, gamma, counts):
        # at gamma = 2 delta the defective l = 1 block's two modes carry large
        # weights that cancel; they must not hide the other rates
        params = ModelParams(delta=1.0, gamma=gamma)
        dense = {n: -spectrum(build_generator(n, params)).real for n in (2, 3)}
        found = []
        for n_left, n_right in ((2, 0), (3, 0), (2, 1)):
            rates = moment_decay_rates(MomentSpec(LEFT, n_left, n_right), params)
            assert all(np.min(np.abs(dense[n_left + n_right] - r)) < 1e-7 for r in rates)
            found.append(len(rates))
        assert tuple(found) == counts

    @pytest.mark.parametrize("gamma", RATIOS)
    def test_single_replica_closed_form(self, gamma):
        # <P_L> relaxes with exponents (gamma -/+ sqrt(gamma^2 - 4 delta^2)) / 2
        delta = 1.0
        root = complex(gamma**2 - 4.0 * delta**2) ** 0.5
        closed = np.array([((gamma - root) / 2).real, ((gamma + root) / 2).real])
        rates = moment_decay_rates(MomentSpec(LEFT, 1, 0), ModelParams(delta=delta, gamma=gamma))
        assert len(rates) == 2
        assert np.allclose(rates, closed, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.5])
    def test_no_rates_without_dephasing(self, delta):
        # at gamma = 0 every block is a rotation: its eigenvalues are imaginary
        # up to rounding, and nothing decays
        params = ModelParams(delta=delta, gamma=0.0)
        state = _random_state(np.random.default_rng(31))
        for initial in (LEFT, state):
            for n_left, n_right in ((1, 0), (2, 0), (1, 1), (4, 2)):
                rates = moment_decay_rates(MomentSpec(initial, n_left, n_right), params)
                assert rates.shape == (0,), (delta, n_left, n_right, rates)

    @pytest.mark.parametrize("gamma", [20.0, 100.0])
    def test_strong_noise_rates_are_even_sector_and_stable(self, gamma):
        # at strong noise a block's +-m pairs split below rounding; only the
        # modes even under P|m> = (-1)^m |-m> carry weight, so every rate is
        # an even-sector eigenvalue and the count does not move when gamma
        # moves by 1e-12.  Seeds 1004..1008 were fixed before any run.
        params = ModelParams(delta=1.0, gamma=gamma)
        nudged = ModelParams(delta=1.0, gamma=gamma * (1.0 + 1e-12))
        even_rates = {ell: -np.linalg.eigvals(_block(ell, params)).real for ell in range(1, 9)}
        for order in range(4, 9):
            rng = np.random.default_rng(1000 + order)
            for _ in range(3):
                state = _random_state(rng)
                for n_left in range(order + 1):
                    spec = MomentSpec(state, n_left, order - n_left)
                    rates = moment_decay_rates(spec, params)
                    assert len(rates) == len(moment_decay_rates(spec, nudged))
                    pool = np.concatenate([even_rates[ell] for ell in range(1, order + 1)])
                    assert all(np.min(np.abs(pool - r)) <= 1e-9 * gamma for r in rates)

    def test_critical_point_rates_not_duplicated(self):
        # the 4^n generator repeats each block's rates once per copy of l;
        # the blocks give each rate once
        rates = moment_decay_rates(MomentSpec(LEFT, 1, 1), ModelParams(delta=1.0, gamma=2.0))
        assert len(rates) == 3

    def test_builds_no_dense_generator(self, monkeypatch, tmp_path):
        # every production path runs on the l-blocks; the 4^n generator is a test oracle
        def refuse(*args, **kwargs):
            raise AssertionError("a production path used the 4^n generator")

        for module in (replica, dense):
            monkeypatch.setattr(module, "build_generator", refuse)
            monkeypatch.setattr(module, "evolve", refuse)
        params = ModelParams(delta=1.0, gamma=2.0)
        state = _random_state(np.random.default_rng(61))
        rates = moment_decay_rates(MomentSpec(LEFT, 2, 1), params)
        assert np.all(rates > 0)
        assert 0.0 <= finite_time_moment(MomentSpec(state, 3, 2), params, 0.7) <= 1.0
        assert 0.0 <= infinite_time_moment(MomentSpec(state, 3, 2), params) <= 1.0
        for order in (2, 5, MAX_MOMENT_ORDER):
            replicas = [(state, WellLabel.LEFT), (LEFT, WellLabel.RIGHT)] * (order // 2)
            for t in (0.7, None):
                assert 0.0 <= mixed_initial_moment(replicas, params, t) <= 1.0
        assert permutation_symmetry_defect(2, 1, params, t=0.7) > 0.0
        assert permutation_symmetry_defect(2, 1, params) < 1e-9
        assert cli.main(["moments", "--max-order", "4", "--out-dir", str(tmp_path / "run")]) == 0


class TestPermutationSymmetry:
    def test_trivial_orders(self):
        assert permutation_symmetry_defect(0, 0, ModelParams(delta=1.0, gamma=1.0)) == 0.0

    @pytest.mark.parametrize("gamma,delta", [(1.0, 1.0), (2.0, 0.7)])
    def test_equal_orders_hold_at_all_times(self, gamma, delta):
        params = ModelParams(delta=delta, gamma=gamma)
        for t in (0.0, 0.3, 1.7, 6.0):
            assert permutation_symmetry_defect(1, 1, params, t=t) < 1e-9

    def test_stationary_identity(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        for n, m in [(1, 1), (2, 0), (2, 1), (3, 1)]:
            assert permutation_symmetry_defect(n, m, params) < 1e-9

    def test_unequal_orders_need_stationarity(self):
        # away from the stationary limit the identity genuinely fails for
        # n != m; this pins the behavior rather than papering over it
        params = ModelParams(delta=1.0, gamma=1.0)
        assert permutation_symmetry_defect(2, 0, params, t=1.0) > 1e-2


class TestExpm:
    # 40-digit mpmath references on the even blocks: the rotation at gamma = 0,
    # where scipy 1.17's real expm was 3.7e-14 off at delta t = 4; blocks of
    # degree 3 and 20; and a strongly damped block, where squaring exp(A/2^s)
    # itself was 9.6e-13 off
    @pytest.mark.parametrize(
        "ell,gamma,t",
        [(1, 0.0, 4.0), (1, 0.0, 20.0), (3, 20.0, 20.0), (20, 0.05, 5.0), (20, 20.0, 0.5),
         (10, 100.0, 1.0)],
    )
    def test_matches_mpmath(self, ell, gamma, t):
        mpmath = pytest.importorskip("mpmath")
        mat = _block(ell, ModelParams(delta=1.0, gamma=gamma)) * t
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix(mat.tolist())).tolist(), dtype=float)
        assert np.max(np.abs(_expm(mat) - exact)) <= 1e-14
