"""The local-operator kernel: one operator on a few qubits of a register.

Qubit 0 is the most significant bit of the basis index (big-endian), matching
:mod:`repro.qmath`.  :func:`apply_gate` is the only such kernel and the hot
path of the Trotter engine.  It acts on a statevector ``(2^n,)`` or on a
column block ``(2^n, m)`` (layer unitaries, density matrices) without ever
building a ``2^n x 2^n`` matrix: the register is viewed as a ``(2,)*n``
tensor, the targets are transposed to the front, the operator multiplies a
``(2^k, -1)`` matrix, and the inverse transpose restores the qubit order.
The transposes for each ``(qubits, num_qubits)`` come from a bounded layout
cache, so a call does no axis bookkeeping of its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

#: Distinct ``(qubits, num_qubits)`` layouts kept.  A device of n qubits
#: driven by 1- and 2-qubit gates has at most n + n(n-1) of them.
LAYOUT_CACHE_SIZE = 1024


class Layout(NamedTuple):
    """How :func:`apply_gate` views a register for one target tuple."""

    #: ``(2,) * num_qubits``: the register as a tensor, one axis per qubit.
    shape: tuple[int, ...]
    #: Transpose putting the targets first, then the other qubits in order.
    forward: tuple[int, ...]
    #: Transpose undoing ``forward``.
    inverse: tuple[int, ...]
    #: ``2 ** len(qubits)``: the operator's dimension.
    dim: int


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def layout(qubits: tuple[int, ...], num_qubits: int) -> Layout:
    """The cached :class:`Layout` of ``qubits`` in a ``num_qubits`` register.

    Raises ``ValueError`` for repeated, negative or out-of-range qubits.
    """
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate target qubits: {qubits}")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise ValueError(f"target qubits {qubits} out of range for n={num_qubits}")
    forward = qubits + tuple(q for q in range(num_qubits) if q not in qubits)
    inverse = [0] * num_qubits
    for position, axis in enumerate(forward):
        inverse[axis] = position
    return Layout((2,) * num_qubits, forward, tuple(inverse), 2 ** len(qubits))


def apply_gate(
    state: np.ndarray, op: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` operator on ``qubits`` to ``state``.

    ``state`` is a statevector ``(2^n,)`` or a column block ``(2^n, m)``,
    each column evolved independently.  The i-th tensor factor of ``op``
    acts on ``qubits[i]``.  Returns a new array of ``state``'s shape; does
    not modify ``state``.
    """
    shape, forward, inverse, dim = layout(tuple(qubits), num_qubits)
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} does not match {len(qubits)} qubits")
    if state.ndim == 2:
        # The column axis stays last, after every qubit axis.
        shape += state.shape[1:]
        forward += (num_qubits,)
        inverse += (num_qubits,)
    moved = state.reshape(shape).transpose(forward)
    out = op @ moved.reshape(dim, -1)
    return out.reshape(shape).transpose(inverse).reshape(state.shape)
