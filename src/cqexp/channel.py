"""Classical-quantum channels: a finite alphabet mapped to output states."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import CLASSICAL_TOL, LOAD_TOL
from .errors import DimensionError, InvalidOperator, NotClassical, NotPSD
from .linalg import _support_clip, hermitize


@dataclass(frozen=True)
class CQChannel:
    """Map x -> rho_x with a common output dimension.

    ``outputs`` has shape (alphabet size, d, d). Construction is the one
    place where letters are checked, repaired and decomposed: each must be
    Hermitian, of unit trace and PSD within ``LOAD_TOL``, and is stored as
    its Hermitian part divided by its trace, so every channel holds exact
    states. Do not mutate the arrays after building one.

    ``spectra``, (lambda, U) of shapes (k, d) and (k, d, d), holds each
    stored letter's descending eigenvalues, cut by ``linalg._support_clip``
    (values in [-``LOAD_TOL``, 0) become 0), and eigenvector columns, from
    the one batched ``eigh`` that the PSD check reads. Every function of the
    letters is taken from it. Exactly diagonal letters (a classical channel)
    take no ``eigh``: lambda is the diagonal clipped at 0, with no relative
    cut, since an eigenvalue far below the cutoff still counts in
    lambda^alpha at small alpha, and U permutes the standard basis to match.
    """

    outputs: np.ndarray
    alphabet: tuple[str, ...]
    spectra: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        outs = np.asarray(self.outputs, dtype=complex)
        if outs.ndim != 3 or outs.shape[1] != outs.shape[2]:
            raise DimensionError(f"outputs must have shape (k, d, d), got {outs.shape}")
        if min(outs.shape) < 1:
            raise DimensionError(f"channel needs at least one letter of dimension >= 1, got {outs.shape}")
        labels = tuple(str(a) for a in self.alphabet)
        if len(labels) != outs.shape[0]:
            raise DimensionError(f"{len(labels)} labels for {outs.shape[0]} outputs")
        scale = np.abs(outs).max(axis=(1, 2), initial=1.0)
        skew = np.abs(outs - outs.conj().swapaxes(1, 2)).max(axis=(1, 2))
        hermitian = (skew <= LOAD_TOL * scale) & (scale < np.inf)  # NaN and inf entries fail
        if (bad := np.flatnonzero(~hermitian)).size:
            raise InvalidOperator(f"output {bad[0]} is not Hermitian within {LOAD_TOL}")
        herm = hermitize(outs)
        tr = np.trace(herm, axis1=1, axis2=2).real
        if (bad := np.flatnonzero(np.abs(tr - 1.0) > LOAD_TOL)).size:
            raise InvalidOperator(f"output {bad[0]} has trace {tr[bad[0]]:.9g}, expected 1")
        states = herm / tr[:, None, None]
        d = outs.shape[1]
        if np.any(states[:, ~np.eye(d, dtype=bool)]):
            lam, vec = np.linalg.eigh(states)
            low = lam[:, 0] * tr
            lam, vec = _support_clip(lam[:, ::-1]), np.ascontiguousarray(vec[:, :, ::-1])
        else:
            diag = np.diagonal(states, axis1=1, axis2=2).real
            low = diag.min(axis=1) * tr
            lam = np.clip(diag, 0.0, None)
            order = np.argsort(-lam, axis=1, kind="stable")
            lam = np.take_along_axis(lam, order, axis=1)
            vec = np.eye(d, dtype=complex)[:, order].transpose(1, 0, 2)
        if (bad := np.flatnonzero(low < -LOAD_TOL)).size:
            raise NotPSD(f"output {bad[0]} has eigenvalue {low[bad[0]]:.3e}")
        object.__setattr__(self, "outputs", states)
        object.__setattr__(self, "alphabet", labels)
        object.__setattr__(self, "spectra", (lam, vec))

    @classmethod
    def from_states(cls, states, alphabet=None) -> "CQChannel":
        outs = np.stack([np.asarray(s, dtype=complex) for s in states])
        if alphabet is None:
            alphabet = tuple(str(i) for i in range(outs.shape[0]))
        return cls(outputs=outs, alphabet=tuple(alphabet))

    @classmethod
    def from_stochastic_matrix(cls, w, alphabet=None) -> "CQChannel":
        """Embed a classical channel: row x becomes the diagonal state diag(W[x]), with
        entries in [-``LOAD_TOL``, 0) set to 0; a row sum is then a letter's trace."""
        w = np.asarray(w, dtype=float)
        if w.ndim != 2:
            raise DimensionError(f"stochastic matrix must be 2-D, got shape {w.shape}")
        w = np.where(w < -LOAD_TOL, w, np.clip(w, 0.0, None))
        states = [np.diag(row.astype(complex)) for row in w]
        return cls.from_states(states, alphabet=alphabet)

    @property
    def size(self) -> int:
        return self.outputs.shape[0]

    @property
    def dim(self) -> int:
        return self.outputs.shape[1]

    def tensor(self, other: "CQChannel") -> "CQChannel":
        """Product channel on the joint alphabet, (x, y) -> rho_x (x) rho_y."""
        states = []
        labels = []
        for a, ra in zip(self.alphabet, self.outputs):
            for b, rb in zip(other.alphabet, other.outputs):
                states.append(np.kron(ra, rb))
                labels.append(f"({a},{b})")
        return CQChannel.from_states(states, alphabet=labels)

    def permuted(self, perm) -> "CQChannel":
        """Relabeled channel: letter i of the result is letter perm[i] here."""
        perm = list(perm)
        return CQChannel.from_states(
            [self.outputs[i] for i in perm],
            alphabet=[self.alphabet[i] for i in perm],
        )

    def is_classical(self) -> bool:
        """Whether the outputs commute: ``common_eigenbasis`` finds a basis."""
        return self._diagonalizing_basis is not None

    def common_eigenbasis(self) -> np.ndarray:
        """Unitary whose columns simultaneously diagonalize all outputs.

        In that basis every output has off-diagonal entries of at most
        ``CLASSICAL_TOL``. Raises NotClassical when no such basis is found.
        """
        v = self._diagonalizing_basis
        if v is None:
            raise NotClassical(f"channel outputs have no common eigenbasis within {CLASSICAL_TOL:g}")
        return v

    @cached_property
    def _diagonalizing_basis(self) -> np.ndarray | None:
        """The basis of ``common_eigenbasis``, or None; decided once per channel.

        Uses the generic trick of diagonalizing a random positive
        combination; 8 tries with fresh weights break accidental degeneracies.
        Outputs within tol = ``CLASSICAL_TOL`` of diagonal in one basis have
        commutators with entries of at most 2 d tol (1 + d tol), so pairs
        above that are rejected before any decomposition.
        """
        d, k, tol = self.dim, self.size, CLASSICAL_TOL
        bound = 2 * d * tol * (1 + d * tol)
        for i in range(k):
            for j in range(i + 1, k):
                comm = self.outputs[i] @ self.outputs[j] - self.outputs[j] @ self.outputs[i]
                if float(np.abs(comm).max()) > bound:
                    return None
        rng = np.random.default_rng(20240)
        for _ in range(8):
            weights = rng.uniform(0.5, 1.5, size=k)
            combo = hermitize(np.einsum("m,mij->ij", weights, self.outputs))
            _, v = np.linalg.eigh(combo)
            rotated = v.conj().T @ self.outputs @ v
            off = rotated - rotated * np.eye(d)
            if float(np.abs(off).max()) <= tol:
                return v
        return None

    def induced_stochastic_matrix(self) -> np.ndarray:
        """Classical transition matrix W[x, y] in the common eigenbasis."""
        v = self.common_eigenbasis()
        w = np.empty((self.size, self.dim), dtype=float)
        for x, rho in enumerate(self.outputs):
            w[x] = np.clip(np.real(np.diag(v.conj().T @ rho @ v)), 0.0, None)
        return w


def pure_letter_overlaps(channel: CQChannel) -> np.ndarray | None:
    """Overlap table O[a, b] = <psi_a|psi_b> when every letter is pure, else None.

    Both come from ``channel.spectra``: rho_x = |psi_x><psi_x| counts as pure
    when the support cut keeps one eigenvalue (the second is at most
    ``SUPPORT_CUTOFF`` times the largest). The cut is applied here too, since
    diagonal letters reach ``spectra`` uncut. The diagonal is set to exactly 1.
    """
    lam, vec = channel.spectra
    if (_support_clip(lam)[:, 1:] > 0).any():
        return None
    psi = vec[:, :, 0]
    overlaps = psi.conj() @ psi.T
    np.fill_diagonal(overlaps, 1.0)
    return overlaps
