"""Classical-quantum channels: a finite alphabet mapped to output states."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import CLASSICAL_TOL, LOAD_TOL
from .errors import DimensionError, InvalidOperator, NotClassical, NotPSD
from .linalg import _support_clip, hermitize, is_hermitian


@dataclass(frozen=True)
class CQChannel:
    """Map x -> rho_x with a common output dimension.

    ``outputs`` has shape (alphabet size, d, d). Construction is the one
    place where letters are checked and repaired: each must be Hermitian,
    PSD and of unit trace within ``LOAD_TOL``, and is stored as its
    Hermitian part divided by its trace, so every channel holds exact
    states. Instances are treated as immutable; do not mutate the arrays
    after building one. Every function of the letters is taken from
    ``spectra``, one cut decomposition of all of them.
    """

    outputs: np.ndarray
    alphabet: tuple[str, ...]

    def __post_init__(self) -> None:
        outs = np.asarray(self.outputs, dtype=complex)
        if outs.ndim != 3 or outs.shape[1] != outs.shape[2]:
            raise DimensionError(f"outputs must have shape (k, d, d), got {outs.shape}")
        if min(outs.shape) < 1:
            raise DimensionError(f"channel needs at least one letter of dimension >= 1, got {outs.shape}")
        states = []
        for letter, rho in enumerate(outs):
            if not is_hermitian(rho, tol=LOAD_TOL):  # NaN entries fail here too
                raise InvalidOperator(f"output {letter} is not Hermitian within {LOAD_TOL}")
            rho = hermitize(rho)
            low = float(np.linalg.eigvalsh(rho).min())
            if low < -LOAD_TOL:
                raise NotPSD(f"output {letter} has eigenvalue {low:.3e}")
            tr = float(np.trace(rho).real)
            if abs(tr - 1.0) > LOAD_TOL:
                raise InvalidOperator(f"output {letter} has trace {tr:.9g}, expected 1")
            states.append(rho / tr)
        object.__setattr__(self, "outputs", np.stack(states))
        labels = tuple(str(a) for a in self.alphabet)
        if len(labels) != outs.shape[0]:
            raise DimensionError(
                f"{len(labels)} labels for {outs.shape[0]} outputs"
            )
        object.__setattr__(self, "alphabet", labels)

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

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda, U), (k, d) and (k, d, d): descending eigenvalues of each letter,
        cut by ``linalg._support_clip`` (so those in [-``LOAD_TOL``, 0), inside
        the validation tolerance, become 0), and eigenvector columns; one ``eigh``.

        Exactly diagonal letters (a classical channel) skip the ``eigh``: lambda
        is the diagonal clipped at 0, with no relative cut, since an eigenvalue
        far below the cutoff still counts in lambda^alpha at small alpha; U
        permutes the standard basis into that order.
        """
        outs = hermitize(self.outputs)
        d = self.dim
        if not np.any(outs[:, ~np.eye(d, dtype=bool)]):
            diag = np.clip(np.diagonal(outs, axis1=1, axis2=2).real, 0.0, None)
            order = np.argsort(-diag, axis=1, kind="stable")
            vec = np.eye(d, dtype=complex)[:, order].transpose(1, 0, 2)
            return np.take_along_axis(diag, order, axis=1), vec
        lam, vec = np.linalg.eigh(outs)
        return _support_clip(lam[:, ::-1]), np.ascontiguousarray(vec[:, :, ::-1])

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
