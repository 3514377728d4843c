import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.qmath.paulis import ID2, SX, SZ
from repro.qmath.states import random_state, zero_state
from repro.qmath.tensor import embed_operator, kron_all, zz_diagonal
from repro.qmath.unitaries import CNOT, HADAMARD, expm_hermitian
from repro.sim.propagate import propagate_with_zz
from repro.sim.statevector import apply_gate, layout
from repro.sim.trotter import LayerDrive, TrotterEngine


def reference_apply(state, op, qubits, num_qubits):
    """A plain ``np.moveaxis`` kernel: the oracle ``apply_gate`` must match
    bit for bit, on a statevector or a ``(2^n, m)`` column block.
    """
    k = len(qubits)
    tensor = state.reshape((2,) * num_qubits + state.shape[1:])
    tensor = np.moveaxis(tensor, list(qubits), range(k))
    shape = tensor.shape
    tensor = op @ tensor.reshape(2**k, -1)
    tensor = np.moveaxis(tensor.reshape(shape), range(k), list(qubits))
    return tensor.reshape(state.shape)


def reference_walk(engine, state, duration, drives):
    """``evolve_layer``'s Strang step walk on ``reference_apply``.

    A column block is walked as ``layer_unitary`` walks it: phases on the
    left, one row scale per step.
    """

    def scale(psi, phase):
        return psi * phase if psi.ndim == 1 else phase[:, None] * psi

    n_steps = engine.num_steps(duration)
    psi = scale(state, engine._phase_half)
    for k in range(n_steps):
        for drive in drives:
            if k < len(drive.step_ops):
                psi = reference_apply(
                    psi, drive.step_ops[k], drive.qubits, engine.num_qubits
                )
        phase = engine._phase_full if k < n_steps - 1 else engine._phase_half
        psi = scale(psi, phase)
    return psi


def random_op(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(3, n)))
    qubits = tuple(draw(st.permutations(range(n)))[:k])
    columns = draw(st.sampled_from([None, 1, 3]))
    return n, qubits, columns, draw(st.integers(0, 2**32 - 1))


class TestApplyGate:
    def test_matches_embed_1q(self, rng):
        psi = random_state(3, rng)
        got = apply_gate(psi, HADAMARD, [1], 3)
        expected = embed_operator(HADAMARD, [1], 3) @ psi
        assert np.allclose(got, expected)

    def test_matches_embed_2q(self, rng):
        psi = random_state(4, rng)
        got = apply_gate(psi, CNOT, [3, 1], 4)
        expected = embed_operator(CNOT, [3, 1], 4) @ psi
        assert np.allclose(got, expected)

    def test_norm_preserved(self, rng):
        psi = random_state(5, rng)
        out = apply_gate(psi, CNOT, [0, 4], 5)
        assert np.isclose(np.linalg.norm(out), 1.0)

    def test_wrong_shape_raises(self, rng):
        with pytest.raises(ValueError):
            apply_gate(random_state(2, rng), HADAMARD, [0, 1], 2)

    @pytest.mark.parametrize("qubits", [[-1], [3], [0, 0], [0, -2]])
    def test_bad_qubits_raise(self, rng, qubits):
        # A negative axis used to wrap around silently: [-1] acted on qubit 2.
        op = np.eye(2 ** len(qubits), dtype=complex)
        with pytest.raises(ValueError):
            apply_gate(random_state(3, rng), op, qubits, 3)

    def test_does_not_modify_input(self, rng):
        psi = random_state(4, rng)
        before = psi.copy()
        apply_gate(psi, CNOT, [2, 0], 4)
        assert np.array_equal(psi, before)

    def test_layout_cache_is_bounded(self):
        maxsize = layout.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_moveaxis_reference_exactly(self, case):
        n, qubits, columns, seed = case
        rng = np.random.default_rng(seed)
        shape = (2**n,) if columns is None else (2**n, columns)
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        op = random_op(rng, 2 ** len(qubits))
        got = apply_gate(state, op, qubits, n)
        assert got.shape == state.shape
        assert np.array_equal(got, reference_apply(state, op, qubits, n))


class TestApplyGateMatrix:
    """``apply_gate`` on ``(2^n, m)`` column blocks."""

    def test_identity_columns(self, rng):
        mat = np.eye(8, dtype=complex)
        got = apply_gate(mat, HADAMARD, [1], 3)
        assert np.allclose(got, embed_operator(HADAMARD, [1], 3))

    def test_column_consistency(self, rng):
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        got = apply_gate(mat, CNOT, [0, 2], 3)
        expected = embed_operator(CNOT, [0, 2], 3) @ mat
        assert np.allclose(got, expected)


class TestTrotterEngine:
    def test_idle_matches_exact(self, rng):
        couplings = [(0, 1, 0.01), (1, 2, 0.02)]
        engine = TrotterEngine(3, couplings, dt=0.25)
        psi = random_state(3, rng)
        got = engine.evolve_idle(psi.copy(), 17.0)
        diag = zz_diagonal(couplings, 3)
        expected = np.exp(-1j * diag * 17.0) * psi
        assert np.allclose(got, expected)

    def test_layer_matches_exact_propagator(self, rng):
        # 3-qubit chain, X drive on qubit 1, ZZ on both couplings.
        couplings = [(0, 1, 0.008), (1, 2, 0.005)]
        dt = 0.1
        n_steps = 100
        amps = 0.05 * np.sin(np.linspace(0, np.pi, n_steps))
        drive_ops = np.array(
            [expm_hermitian(a * SX, dt) for a in amps]
        )
        engine = TrotterEngine(3, couplings, dt=dt)
        psi0 = random_state(3, rng)
        got = engine.evolve_layer(psi0.copy(), n_steps * dt, [LayerDrive((1,), drive_ops)])

        # Exact: piecewise-constant full Hamiltonian.
        h_zz = 0.008 * kron_all([SZ, SZ, ID2]) + 0.005 * kron_all([ID2, SZ, SZ])
        hams = np.array(
            [a * kron_all([ID2, SX, ID2]) for a in amps]
        )
        u_exact = propagate_with_zz(hams, h_zz, dt)
        expected = u_exact @ psi0
        overlap = abs(np.vdot(expected, got)) ** 2
        assert overlap > 1.0 - 1e-8

    def test_norm_preserved(self, rng):
        engine = TrotterEngine(2, [(0, 1, 0.01)], dt=0.25)
        ops = np.array([expm_hermitian(0.1 * SX, 0.25)] * 80)
        psi = engine.evolve_layer(zero_state(2), 20.0, [LayerDrive((0,), ops)])
        assert np.isclose(np.linalg.norm(psi), 1.0)

    def test_too_many_drive_steps_raises(self):
        engine = TrotterEngine(2, [(0, 1, 0.01)], dt=0.25)
        ops = np.array([ID2] * 100)
        with pytest.raises(ValueError):
            engine.evolve_layer(zero_state(2), 20.0, [LayerDrive((0,), ops)])

    def test_layer_unitary_matches_state_evolution(self, rng):
        engine = TrotterEngine(2, [(0, 1, 0.02)], dt=0.5)
        ops = np.array([expm_hermitian(0.2 * SX, 0.5)] * 10)
        drives = [LayerDrive((1,), ops)]
        u = engine.layer_unitary(5.0, drives)
        psi0 = random_state(2, rng)
        via_matrix = u @ psi0
        via_state = engine.evolve_layer(psi0.copy(), 5.0, drives)
        assert np.allclose(via_matrix, via_state)

    def test_walks_match_reference_step_walk_bit_for_bit(self, rng):
        couplings = [(0, 1, 0.011), (1, 2, 0.007), (2, 3, 0.013), (0, 3, 0.004)]
        engine = TrotterEngine(4, couplings, dt=0.25)
        drives = [
            LayerDrive((2,), np.array([random_op(rng, 2) for _ in range(7)])),
            LayerDrive((3, 0), np.array([random_op(rng, 4) for _ in range(12)])),
        ]
        psi = random_state(4, rng)
        got = engine.evolve_layer(psi, 3.0, drives)
        assert np.array_equal(got, reference_walk(engine, psi, 3.0, drives))
        eye = np.eye(16, dtype=complex)
        unitary = engine.layer_unitary(3.0, drives)
        assert np.array_equal(unitary, reference_walk(engine, eye, 3.0, drives))

    def test_invalid_dt_raises(self):
        with pytest.raises(ValueError):
            TrotterEngine(2, [], dt=0.0)
