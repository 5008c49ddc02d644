"""Reading and writing the JSON channel description format.

Schema (version field ``"cqspec": 1``):

* ``dim`` and ``outputs``: one d x d complex matrix per letter, each entry
  written as an ``[re, im]`` pair; or
* ``stochastic_matrix``: rows of a classical transition matrix, expanded
  by the loader into diagonal density matrices;
* optional ``alphabet``: letter labels (defaults to "0", "1", ...).

Structural requirements (Hermiticity, positivity, unit trace) are checked
at load with tolerance ``LOAD_TOL`` (1e-8); inputs inside the tolerance are
symmetrized and trace-renormalized so downstream invariants hold exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import CQChannel
from .config import LOAD_TOL
from .errors import InvalidChannelSpec
from .linalg import hermitize

SCHEMA_VERSION = 1


def _parse_matrix(raw, dim: int, letter: int) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (dim, dim, 2):
        raise InvalidChannelSpec(
            f"output {letter}: expected {dim}x{dim} entries as [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def channel_from_dict(doc: dict) -> CQChannel:
    if not isinstance(doc, dict):
        raise InvalidChannelSpec("channel description must be a JSON object")
    if doc.get("cqspec") != SCHEMA_VERSION:
        raise InvalidChannelSpec(f'missing or unsupported "cqspec" version (need {SCHEMA_VERSION})')

    if "stochastic_matrix" in doc:
        w = np.asarray(doc["stochastic_matrix"], dtype=float)
        if w.ndim != 2 or w.shape[0] < 1:
            raise InvalidChannelSpec("stochastic_matrix must be a 2-D array")
        if (w < -LOAD_TOL).any():
            raise InvalidChannelSpec("stochastic_matrix has negative entries")
        rows = w.sum(axis=1)
        if np.abs(rows - 1.0).max() > LOAD_TOL:
            raise InvalidChannelSpec("stochastic_matrix rows must sum to 1")
        w = np.clip(w, 0.0, None) / rows[:, None]
        states = [np.diag(row.astype(complex)) for row in w]
    else:
        try:
            dim = int(doc["dim"])
            raw_outputs = doc["outputs"]
        except KeyError as exc:
            raise InvalidChannelSpec(f"missing field {exc}") from exc
        if dim < 1 or not isinstance(raw_outputs, list) or not raw_outputs:
            raise InvalidChannelSpec("need dim >= 1 and a nonempty outputs list")
        states = []
        for letter, raw in enumerate(raw_outputs):
            mat = _parse_matrix(raw, dim, letter)
            if np.abs(mat - mat.conj().T).max() > LOAD_TOL:
                raise InvalidChannelSpec(f"output {letter} is not Hermitian within {LOAD_TOL}")
            mat = hermitize(mat)
            eigs = np.linalg.eigvalsh(mat)
            if float(eigs.min()) < -LOAD_TOL:
                raise InvalidChannelSpec(f"output {letter} has eigenvalue {eigs.min():.3e}")
            tr = float(np.trace(mat).real)
            if abs(tr - 1.0) > LOAD_TOL:
                raise InvalidChannelSpec(f"output {letter} has trace {tr:.9g}, expected 1")
            states.append(mat / tr)

    alphabet = doc.get("alphabet")
    if alphabet is not None:
        if len(alphabet) != len(states):
            raise InvalidChannelSpec(
                f"{len(alphabet)} alphabet labels for {len(states)} outputs"
            )
        alphabet = tuple(str(a) for a in alphabet)
    try:
        return CQChannel.from_states(states, alphabet=alphabet)
    except Exception as exc:
        raise InvalidChannelSpec(str(exc)) from exc


def load_channel(path) -> CQChannel:
    """Load a channel from a cqspec JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidChannelSpec(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidChannelSpec(f"{path} is not valid JSON: {exc}") from exc
    return channel_from_dict(doc)


def channel_to_dict(channel: CQChannel) -> dict:
    """Serialize a channel to the cqspec dictionary form."""
    outputs = [
        [[[float(z.real), float(z.imag)] for z in row] for row in mat]
        for mat in channel.outputs
    ]
    return {
        "cqspec": SCHEMA_VERSION,
        "alphabet": list(channel.alphabet),
        "dim": channel.dim,
        "outputs": outputs,
    }


def save_channel(channel: CQChannel, path) -> None:
    Path(path).write_text(json.dumps(channel_to_dict(channel), indent=2), encoding="utf-8")
