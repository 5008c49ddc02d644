"""Reading and writing the JSON channel description format.

Schema (version field ``"cqspec": 1``):

* ``dim`` and ``outputs``: one d x d complex matrix per letter, each entry
  written as an ``[re, im]`` pair; or
* ``stochastic_matrix``: rows of a classical transition matrix, expanded
  into diagonal density matrices (``CQChannel.from_stochastic_matrix``);
* optional ``alphabet``: letter labels (defaults to "0", "1", ...).

This module only parses. ``CQChannel`` checks the letters (Hermiticity,
positivity, unit trace, within ``config.LOAD_TOL``) and the label count,
and repairs drift inside the tolerance; any error becomes an
``InvalidChannelSpec``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import CQChannel
from .errors import InvalidChannelSpec

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
    alphabet = doc.get("alphabet")
    try:
        if "stochastic_matrix" in doc:
            return CQChannel.from_stochastic_matrix(doc["stochastic_matrix"], alphabet=alphabet)
        dim, raw_outputs = int(doc["dim"]), doc["outputs"]
        if dim < 1 or not isinstance(raw_outputs, list) or not raw_outputs:
            raise InvalidChannelSpec("need dim >= 1 and a nonempty outputs list")
        states = [_parse_matrix(raw, dim, letter) for letter, raw in enumerate(raw_outputs)]
        return CQChannel.from_states(states, alphabet=alphabet)
    except InvalidChannelSpec:
        raise
    except KeyError as exc:
        raise InvalidChannelSpec(f"missing field {exc}") from exc
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
