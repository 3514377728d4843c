"""Shared optimization engine: piecewise-constant propagation + gradients.

Controls are parameterized by the paper's Fourier basis (Appendix A): the
amplitude of channel ``c`` at step ``k`` is ``SUM_m theta[c, m] B[m, k]``.
Losses are weighted sums over *scenarios*; a scenario fixes a system
dimension, a static Hamiltonian (e.g. a training crosstalk strength), one
generator per channel and a target unitary.

Gradients are exact (to machine precision): the derivative of each step
propagator ``U_k = exp(-i H_k dt)`` with respect to a control amplitude is
computed with the Daleckii-Krein formula through the eigendecomposition of
``H_k``,

    dU[E] = Q (F o (Q^dag E Q)) Q^dag,
    F_mn = (f(l_m) - f(l_n)) / (l_m - l_n),   f(l) = exp(-i l dt),

so L-BFGS-B can converge the losses to ~1e-12 without line-search failures.

The whole forward/backward pass is *batched*: the step Hamiltonians are
assembled with one einsum over ``(num_channels, num_steps)`` amplitudes, a
single stacked ``np.linalg.eigh`` diagonalizes all ``(num_steps, dim, dim)``
of them at once, and the Loewner matrices and gradient factors ``G_{c,k}``
for every step and channel come out of broadcast matmuls — the only
remaining Python loop is the inherently sequential cumulative product.

SciPy's L-BFGS-B is imported inside :meth:`ControlProblem.minimize`,
on demand: sweeps and serve read pulses from the committed library and
never optimize, so they never pay SciPy's import time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.pulses.shapes import fourier_basis
from repro.telemetry import counter, span

#: Eigenvalue gaps below this are treated as degenerate in the Loewner matrix.
_DEGENERACY_TOL = 1e-12


def _conj_t(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def _eigh_steps(hams: np.ndarray, dt: float):
    """Diagonalize a stack ``(..., K, d, d)`` and form all step propagators."""
    evals, evecs = np.linalg.eigh(hams)
    phases = np.exp(-1.0j * evals * dt)
    steps = (evecs * phases[..., None, :]) @ _conj_t(evecs)
    return evals, evecs, phases, steps

def _cumulative_product(steps: np.ndarray) -> np.ndarray:
    """``C_k = U_k ... U_1`` along the step axis (axis -3), batched."""
    cumulative = np.empty_like(steps)
    num_steps = steps.shape[-3]
    total = steps[..., 0, :, :]
    cumulative[..., 0, :, :] = total
    for k in range(1, num_steps):
        total = steps[..., k, :, :] @ total
        cumulative[..., k, :, :] = total
    return cumulative


def _loewner_matrices(evals: np.ndarray, phases: np.ndarray, dt: float) -> np.ndarray:
    """Daleckii-Krein divided-difference matrices for every step at once."""
    diff_l = evals[..., :, None] - evals[..., None, :]
    diff_f = phases[..., :, None] - phases[..., None, :]
    degenerate = np.abs(diff_l) <= _DEGENERACY_TOL
    # On the diagonal (and in degenerate subspaces) the divided difference
    # limits to f'(l_m) = -i dt exp(-i l_m dt).
    limit = np.broadcast_to((-1.0j * dt * phases)[..., :, None], diff_l.shape)
    return np.where(degenerate, limit, diff_f / np.where(degenerate, 1.0, diff_l))


@dataclass(frozen=True)
class FidelityScenario:
    """One term of an OptCtrl-style loss: ``weight * (1 - F_avg(U(T), target))``."""

    generators: tuple[np.ndarray, ...]
    static: np.ndarray
    target: np.ndarray
    weight: float


@dataclass
class OptimizationResult:
    """Outcome of a pulse optimization."""

    theta: np.ndarray
    loss: float
    num_iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)


class ForwardPass:
    """Propagation of one parameter set, retaining what gradients need.

    ``evals``, ``evecs``, ``steps`` and ``cumulative`` are stacked along a
    leading step axis (``(num_steps, ...)``), so indexing with ``[k]``
    behaves exactly like the former per-step lists.
    """

    def __init__(
        self,
        amplitudes: np.ndarray,
        generators: Sequence[np.ndarray],
        static: np.ndarray,
        dt: float,
    ):
        self.dt = dt
        self.generators = list(generators)
        amplitudes = np.asarray(amplitudes, dtype=float)
        num_steps = amplitudes.shape[1]
        dim = static.shape[0]
        self.dim = dim
        self.num_steps = num_steps

        # All step Hamiltonians in one shot: H_k = H_static + SUM_c A[c,k] G_c.
        gens = np.asarray(self.generators, dtype=complex)
        static = np.asarray(static, dtype=complex)
        hams = np.broadcast_to(static, (num_steps, dim, dim)).copy()
        if len(gens):
            hams += np.einsum("ck,cij->kij", amplitudes, gens)

        # One stacked eigh diagonalizes every step at once.
        evals, evecs, phases, steps = _eigh_steps(hams, dt)
        #: cumulative[k] = U_k ... U_1; cumulative[-1] is U(T).
        cumulative = _cumulative_product(steps)

        self.evals = evals
        self.evecs = evecs
        self.steps = steps
        self.cumulative = cumulative
        self._phases = phases
        self._loewner: np.ndarray | None = None

    @property
    def final(self) -> np.ndarray:
        return self.cumulative[-1]

    def cumulative_before(self, k: int) -> np.ndarray:
        """``C_{k-1}`` (identity for k = 0)."""
        if k == 0:
            return np.eye(self.dim, dtype=complex)
        return self.cumulative[k - 1]

    @property
    def loewner(self) -> np.ndarray:
        """Stacked Loewner matrices ``(num_steps, dim, dim)`` (lazy)."""
        if self._loewner is None:
            self._loewner = _loewner_matrices(self.evals, self._phases, self.dt)
        return self._loewner

    def step_derivative(self, k: int, generator: np.ndarray) -> np.ndarray:
        """Exact ``dU_k / d amplitude`` for a perturbation ``generator``."""
        q = self.evecs[k]
        e = q.conj().T @ generator @ q
        return q @ (self.loewner[k] * e) @ q.conj().T

    def propagator_gradient_factor(self, k: int, generator: np.ndarray) -> np.ndarray:
        """``G_{c,k} = C_k^dag dU_k C_{k-1}`` — so ``dC_j = C_j G`` for j >= k."""
        du = self.step_derivative(k, generator)
        return self.cumulative[k].conj().T @ du @ self.cumulative_before(k)

    def factor_traces(self, left: np.ndarray) -> np.ndarray:
        """``Tr(L_k G_{k,c})`` for every step and channel, shape ``(K, C)``.

        Never materializes the ``(K, C, dim, dim)`` factor tensor: by
        cyclicity ``Tr(L G_{k,c}) = Tr((C_{k-1} L C_k^dag) dU_{k,c})``, and
        with ``dU = Q (Loewner o E) Q^dag`` the channel sum collapses to a
        single einsum against the generators — the per-step matmul count is
        independent of the number of channels.

        ``left`` is one matrix (used for every step) or a ``(K, dim, dim)``
        stack.
        """
        gens = np.asarray(self.generators, dtype=complex)  # (C, d, d)
        cum_before = np.empty_like(self.cumulative)
        cum_before[0] = np.eye(self.dim, dtype=complex)
        cum_before[1:] = self.cumulative[:-1]
        cum_dag = _conj_t(self.cumulative)
        x = cum_before @ left @ cum_dag  # (K, d, d)
        q = self.evecs
        y = _conj_t(q) @ x @ q
        n = q @ (np.swapaxes(self.loewner, -1, -2) * y) @ _conj_t(q)
        return np.einsum("cpq,kqp->kc", gens, n)


def fidelity_loss_and_grad(
    scenario: FidelityScenario, amplitudes: np.ndarray, dt: float
) -> tuple[float, np.ndarray]:
    """``1 - F_avg`` of the scenario and its exact amplitude gradient."""
    fp = ForwardPass(amplitudes, scenario.generators, scenario.static, dt)
    v = scenario.target
    d = v.shape[0]
    w = v.conj().T @ fp.final
    tr0 = np.trace(w)
    fidelity = (abs(tr0) ** 2 + d) / (d * (d + 1))
    loss = 1.0 - fidelity

    # Tr(V^dag dC_N) = Tr(V^dag C_N G) = Tr(W G_{k,c}) for every step/channel.
    dtr = fp.factor_traces(w)  # (K, C)
    grad = -(2.0 / (d * (d + 1))) * np.real(np.conj(tr0) * dtr).T
    return float(loss), np.ascontiguousarray(grad)


def fidelity_sum_loss_and_grad(
    scenarios: Sequence[FidelityScenario], amplitudes: np.ndarray, dt: float
) -> tuple[float, np.ndarray]:
    """Weighted sum ``SUM_s w_s (1 - F_avg)`` over scenarios.

    The scenario loop is tiny (the OptCtrl losses have at most four terms)
    while each term runs through the fully batched forward/backward kernels
    — stacking scenarios into a fifth tensor axis was measured *slower*
    than this (the ``(S, K, C, d, d)`` intermediates fall out of cache for
    the 16-dimensional two-qubit training systems).
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    total = 0.0
    grad = np.zeros_like(amplitudes)
    for scenario in scenarios:
        value, grad_amps = fidelity_loss_and_grad(scenario, amplitudes, dt)
        total += scenario.weight * value
        grad += scenario.weight * grad_amps
    return total, grad


def pert_loss_and_grad(
    amplitudes: np.ndarray,
    generators: Sequence[np.ndarray],
    xtalk_ops: Sequence[np.ndarray],
    target: np.ndarray,
    gate_weight: float,
    dt: float,
) -> tuple[float, np.ndarray]:
    """Pert objective: ``SUM_i ||M_i||_F^2 / T^2 + gate_weight * (1 - F_avg)``.

    ``M_i = INT_0^T U^dag(t) A_i U(t) dt`` is the first-order toggled-frame
    integral for crosstalk operator ``A_i``; driving it to zero cancels the
    first order of ZZ crosstalk to every neighbor simultaneously.
    """
    dim = target.shape[0]
    static = np.zeros((dim, dim), dtype=complex)
    fp = ForwardPass(amplitudes, generators, static, dt)
    num_steps = amplitudes.shape[1]
    duration = num_steps * dt

    d = dim
    w = target.conj().T @ fp.final
    tr0 = np.trace(w)
    fidelity = (abs(tr0) ** 2 + d) / (d * (d + 1))
    loss = gate_weight * (1.0 - fidelity)

    # Exact per-step, per-channel gradient factors G_{c,k} (dC_j = C_j G).
    dtr = fp.factor_traces(w)  # (K, C)
    grad = -gate_weight * (2.0 / (d * (d + 1))) * np.real(np.conj(tr0) * dtr).T
    grad = np.ascontiguousarray(grad)

    # Crosstalk-integral part.  M = SUM_k C_k^dag A C_k dt; for j <= k,
    # dC_k = C_k G_j, hence dM/dOmega_{c,j} = G_j^dag S_j + S_j G_j with
    # S_j the suffix sum of the integrand — computed for every crosstalk
    # operator, step and channel with einsum/cumsum instead of nested loops.
    # Since M and every S_j are Hermitian, Tr(M^dag (G^dag S + S G)) =
    # 2 Re Tr((M S_j) G), so the whole gradient reduces to one
    # factor-trace call on the stack of M S_j products (summed over
    # crosstalk operators — the trace is linear in its left factor).
    norm = duration**2
    a_ops = np.asarray(xtalk_ops, dtype=complex)  # (X, d, d)
    if len(a_ops):
        cum = fp.cumulative  # (K, d, d)
        integrand = (
            np.einsum("kpi,xpq,kqj->xkij", np.conj(cum), a_ops, cum) * dt
        )  # (X, K, d, d)
        m = integrand.sum(axis=1)  # (X, d, d)
        loss += float(np.sum(np.abs(m) ** 2)) / norm
        # Suffix sums S_j = SUM_{k >= j} integrand_k (reversed cumsum).
        suffix = np.flip(np.cumsum(np.flip(integrand, axis=1), axis=1), axis=1)
        ms = (m[:, None] @ suffix).sum(axis=0)  # (K, d, d)
        t = fp.factor_traces(ms)  # (K, C)
        grad += 4.0 * np.real(t).T / norm
    return float(loss), grad


class ControlProblem:
    """Fourier-parameterized control problem over a fixed time grid."""

    def __init__(
        self,
        duration: float,
        dt: float,
        num_coeffs: int,
        num_channels: int,
        max_amplitude: float | None = None,
    ):
        self.duration = duration
        self.dt = dt
        self.num_steps = max(1, int(round(duration / dt)))
        self.num_coeffs = num_coeffs
        self.num_channels = num_channels
        self.max_amplitude = max_amplitude
        self.basis = fourier_basis(num_coeffs, self.num_steps, dt)

    @property
    def num_params(self) -> int:
        return self.num_channels * self.num_coeffs

    def amplitudes(self, theta: np.ndarray) -> np.ndarray:
        """Map parameters to per-channel sample arrays ``(n_ch, n_steps)``."""
        coeffs = np.asarray(theta, dtype=float).reshape(
            self.num_channels, self.num_coeffs
        )
        return coeffs @ self.basis

    def grad_to_theta(self, grad_amps: np.ndarray) -> np.ndarray:
        """Chain rule from amplitude-space gradients to parameter space."""
        return (grad_amps @ self.basis.T).reshape(-1)

    def bounds(self) -> list[tuple[float, float]] | None:
        if self.max_amplitude is None:
            return None
        b = float(self.max_amplitude)
        return [(-b, b)] * self.num_params

    def minimize(
        self,
        loss_and_grad,
        theta0: np.ndarray,
        maxiter: int = 300,
        ftol: float = 1e-16,
        gtol: float = 1e-14,
    ) -> OptimizationResult:
        """Run L-BFGS-B from ``theta0`` on a (value, grad) callable."""
        from scipy.optimize import minimize

        history: list[float] = []

        def objective(theta: np.ndarray):
            counter("pulse.loss_evals")
            value, grad = loss_and_grad(theta)
            history.append(value)
            return value, grad

        with span("pulse.optimize"):
            result = minimize(
                objective,
                np.asarray(theta0, dtype=float),
                jac=True,
                method="L-BFGS-B",
                bounds=self.bounds(),
                options={"maxiter": maxiter, "ftol": ftol, "gtol": gtol},
            )
        counter("pulse.optimizer_iterations", int(result.nit))
        return OptimizationResult(
            theta=np.asarray(result.x),
            loss=float(result.fun),
            num_iterations=int(result.nit),
            converged=bool(result.success),
            history=history,
        )
