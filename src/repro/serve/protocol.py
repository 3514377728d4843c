"""The ``repro serve`` request/response protocol.

Requests are JSON objects with a ``kind`` discriminator:

- ``{"kind": "compile", "device": "eagle", "circuit": "qaoa", "seed": 0}``
  schedules a device-native workload (the ``sched-bench`` vocabulary:
  device names resolve through
  :func:`repro.verify.generators.scale_topology`, circuits through
  ``SCALE_CIRCUITS``) and answers with the schedule's structure and a
  content digest;
- ``{"kind": "simulate", "cell": {...}}`` evaluates one campaign
  :class:`~repro.campaigns.spec.Cell` payload (the exact JSON the sweep
  store records) and answers with the cell's result record.

Responses always carry ``status`` (``"ok"`` | ``"error"``) plus, on
success, ``elapsed_s`` (service-side evaluation time).

HTTP status mirrors the payload (since protocol version 2): ``"ok"``
rides a 200, handler failures a 500, shutdown-drained requests and queue
overflow a 503, malformed requests a 400 (or 413 when oversized) — a
failed compile can never be mistaken for a success by a caller that only
checks the status line.

:func:`schedule_digest` is the equivalence currency: it hashes the same
``(name, qubits, params)`` gate tuples the verify oracles diff
(:func:`repro.verify.oracles.diff_schedules`), so two schedules share a
digest iff the oracle layer-by-layer diff is empty — serve responses are
pinned bit-identical to one-shot CLI compiles by comparing digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.campaigns.spec import Cell
from repro.circuits.gates import IDENTITY_GATES
from repro.scheduling.layer import Schedule

#: Protocol version, echoed by /health so clients can detect skew.
#: v2: error payloads ride non-200 HTTP statuses; keep-alive connections.
#: v3: responses drop ``batch_size``; every request is served alone.
PROTOCOL_VERSION = 3

REQUEST_KINDS = ("compile", "simulate")


class ProtocolError(ValueError):
    """Malformed request payload (answered with HTTP 400)."""


@dataclass(frozen=True)
class CompileRequest:
    """Schedule one device-native workload (no simulation)."""

    device: str
    circuit: str
    seed: int = 0

    kind = "compile"

    def payload(self) -> dict:
        return {
            "kind": "compile",
            "device": self.device,
            "circuit": self.circuit,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SimulateRequest:
    """Evaluate one campaign cell (fidelity/exec-time/couplings)."""

    cell: Cell

    kind = "simulate"

    def payload(self) -> dict:
        return {"kind": "simulate", "cell": self.cell.payload()}


def parse_request(data) -> CompileRequest | SimulateRequest:
    """Validate one decoded request JSON object into a typed request."""
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    kind = data.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; known: {', '.join(REQUEST_KINDS)}"
        )
    if kind == "compile":
        device = data.get("device")
        circuit = data.get("circuit")
        seed = data.get("seed", 0)
        if not isinstance(device, str) or not device:
            raise ProtocolError("compile requests need a 'device' name")
        if not isinstance(circuit, str) or not circuit:
            raise ProtocolError("compile requests need a 'circuit' kind")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ProtocolError("'seed' must be an integer")
        return CompileRequest(device=device, circuit=circuit, seed=seed)
    payload = data.get("cell")
    if not isinstance(payload, dict):
        raise ProtocolError("simulate requests need a 'cell' payload object")
    try:
        cell = Cell.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid cell payload: {exc}") from None
    return SimulateRequest(cell=cell)


#: Digest bytes of each interned identity gate, keyed by ``id(gate)``.
#: Only gates held by :data:`~repro.circuits.gates.IDENTITY_GATES` are
#: stored; that table keeps them alive, so no other gate can share an id.
_IDENTITY_BYTES: dict[int, bytes] = {}


def _gate_bytes(gate) -> bytes:
    """The digest encoding of one gate: ``repr((name, qubits, params))``."""
    return repr((gate.name, gate.qubits, gate.params)).encode()


def _identity_bytes(gate) -> bytes:
    """:func:`_gate_bytes`, computed once per interned identity gate."""
    encoded = _IDENTITY_BYTES.get(id(gate))
    if encoded is None:
        encoded = _gate_bytes(gate)
        if IDENTITY_GATES.get(gate.qubits[0]) is gate:
            _IDENTITY_BYTES[id(gate)] = encoded
    return encoded


def schedule_digest(schedule: Schedule) -> str:
    """Content hash over what :func:`repro.verify.oracles.diff_schedules`
    compares — per-layer gates/identities/virtual plus the trailing
    virtual gates — and serve's equivalence pin.

    Streamed straight into the hash rather than through ``json.dumps`` —
    on an Eagle-scale schedule the dump costs as much as the warm compile
    itself.  Section tags keep the encoding injective (a gate can't slide
    between gates/identities/virtual or across layers without changing
    the digest), so equal digests still mean an empty oracle diff.

    Each section is hashed as one joined byte string.  Circuit gates are
    encoded inline; the interned identity padding reuses bytes encoded
    once per process (:func:`_identity_bytes`).  The hashed stream is the
    per-gate ``repr((name, qubits, params))`` concatenation either way.
    """
    h = hashlib.sha256()
    for layer in schedule.layers:
        h.update(b"\x01g" + b"".join([_gate_bytes(g) for g in layer.gates]))
        h.update(
            b"\x01i"
            + b"".join([_identity_bytes(g) for g in layer.identities])
        )
        h.update(b"\x01v" + b"".join([_gate_bytes(g) for g in layer.virtual]))
    h.update(
        b"\x01t" + b"".join([_gate_bytes(g) for g in schedule.trailing_virtual])
    )
    return h.hexdigest()[:24]
