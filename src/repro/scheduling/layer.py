"""Schedule data model: layers of simultaneous gates.

Execution semantics: for each layer, first apply the virtual ``rz`` frame
changes, then play all the layer's pulses simultaneously (every gate starts
at the layer boundary; the layer lasts as long as its longest pulse).
Trailing virtual gates are applied after the final layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.gates import Gate
from repro.graphs.suppression import SuppressionPlan


@dataclass
class Layer:
    """One step of simultaneous pulses.

    ``gates`` holds the circuit's own physical gates; ``identities`` the
    supplemental identity gates added by ZZ-aware scheduling (interned and
    shared across layers, see :func:`~repro.circuits.gates.identity_gate`);
    ``virtual`` the zero-duration rz gates absorbed into the layer start.
    """

    gates: list[Gate] = field(default_factory=list)
    identities: list[Gate] = field(default_factory=list)
    virtual: list[Gate] = field(default_factory=list)
    plan: SuppressionPlan | None = None

    @property
    def physical_gates(self) -> list[Gate]:
        return self.gates + self.identities

    @property
    def pulsed_qubits(self) -> frozenset[int]:
        return frozenset(q for g in self.physical_gates for q in g.qubits)

    @property
    def gate_qubits(self) -> frozenset[int]:
        """Qubits of the circuit's own gates (identities excluded)."""
        return frozenset(q for g in self.gates for q in g.qubits)

    def validate(self) -> None:
        """No qubit may carry two simultaneous pulses."""
        seen: set[int] = set()
        for gates in (self.gates, self.identities):
            for gate in gates:
                for q in gate.qubits:
                    if q in seen:
                        raise ValueError(
                            f"qubit {q} is driven twice in one layer"
                        )
                    seen.add(q)


@dataclass
class Schedule:
    """A complete scheduling plan for one circuit on one device."""

    num_qubits: int
    layers: list[Layer] = field(default_factory=list)
    trailing_virtual: list[Gate] = field(default_factory=list)
    policy: str = ""

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def all_gates(self) -> list[Gate]:
        """Every circuit gate in execution order (identities excluded)."""
        ordered: list[Gate] = []
        for layer in self.layers:
            ordered.extend(layer.virtual)
            ordered.extend(layer.gates)
        ordered.extend(self.trailing_virtual)
        return ordered

    def validate(self) -> None:
        for layer in self.layers:
            layer.validate()

    def __repr__(self) -> str:
        return (
            f"Schedule({self.policy or 'unnamed'}, qubits={self.num_qubits}, "
            f"layers={self.num_layers})"
        )
