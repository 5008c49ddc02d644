"""Output checks for every benchmark op, against references computed here.

Nothing in this module calls cqexp: channels are parsed from their JSON
files directly, and every reference value comes from closed forms or from
plain numpy linear algebra.

Closed forms. Both sample channels are binary and symmetric under a
unitary that swaps their two letters, and tr[(sum_x p_x rho_x^a)^(1/a)] is
convex in the prior, so the uniform prior is optimal at every order. With
s = (1-a)/a the Gallager function at that prior is

    BSC(q):      E0(s) = s - (1+s) log2(q^(1/(1+s)) + (1-q)^(1/(1+s)))
    pure pair:   E0(s) = -log2(l+^(1+s) + l-^(1+s)),  l+- = (1 +- |<psi0|psi1>|)/2

and capacity = E0'(0), r_c = E0'(1), the achievability bound is
max_{s in [0,1]} E0(s) - s r and the sphere-packing bound is the same
maximum over s in [0, 99] (alpha down to 0.01).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

LN2 = math.log(2.0)

# Values the CLI prints with 6 decimals (capacity, renyi_mi) are right to
# their printed precision when within this many bits of the reference.
TOL_BITS = 1e-6
# Largest certified optimality gap, in bits, of a reported optimal prior.
GAP_BITS = 1e-6
# Relative eigenvalue cutoff of a matrix's support. At small alpha a
# rounding-level eigenvalue e of an exact zero would add e^alpha (about
# 1e-5 for e = 1e-17, alpha = 0.3) to a fractional power.
SUPPORT_CUTOFF = 1e-12
# Sphere-packing search floor alpha = 0.01, i.e. s = 99.
S_MAX_UPPER = 99.0


# ---------------------------------------------------------------------------
# Channels, parsed without cqexp.


def parse_channel(doc: dict) -> np.ndarray:
    """Stack of output density matrices, shape (|X|, d, d)."""
    if "stochastic_matrix" in doc:
        w = np.asarray(doc["stochastic_matrix"], dtype=float)
        return np.stack([np.diag(row).astype(complex) for row in w])
    raw = np.asarray(doc["outputs"], dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


def load_outputs(path: str) -> tuple[dict, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc, parse_channel(doc)


def _herm_fn(a: np.ndarray, fn) -> np.ndarray:
    """fn of a PSD matrix on its support: eigenvalues below SUPPORT_CUTOFF
    times the largest are rounding noise of an exact zero and map to 0."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    on = w > SUPPORT_CUTOFF * w.max()
    return (v[:, on] * fn(w[on])) @ v[:, on].conj().T


def _entropy_bits(lam: np.ndarray) -> float:
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log(lam)).sum() / LN2)


def binary_entropy(q: float) -> float:
    return float(-(q * math.log2(q) + (1 - q) * math.log2(1 - q)))


# ---------------------------------------------------------------------------
# Closed-form references for the two sample channels.


@dataclass(frozen=True)
class Reference:
    """E0(s) at the uniform prior and its derivative, for a binary channel."""

    e0: Callable[[float], float]
    de0: Callable[[float], float]
    capacity: float

    @property
    def critical_rate(self) -> float:
        return self.de0(1.0)

    def bound(self, r: float, s_max: float) -> float:
        """max over s in [0, s_max] of E0(s) - s r (E0 is concave in s)."""
        if self.de0(0.0) <= r:
            return 0.0
        if self.de0(s_max) >= r:
            return self.e0(s_max) - s_max * r
        lo, hi = 0.0, s_max
        for _ in range(200):
            mid = (lo + hi) / 2
            if self.de0(mid) > r:
                lo = mid
            else:
                hi = mid
        s = (lo + hi) / 2
        return self.e0(s) - s * r

    def lower(self, r: float) -> float:
        return self.bound(r, 1.0)

    def upper(self, r: float) -> float:
        return self.bound(r, S_MAX_UPPER)

    def renyi_mi(self, alpha: float) -> float:
        s = (1.0 - alpha) / alpha
        return self.e0(s) / s


def bsc_reference(q: float) -> Reference:
    def g(s):
        a = 1.0 / (1.0 + s)
        return q ** a + (1 - q) ** a

    def e0(s):
        return s - (1 + s) * math.log2(g(s))

    def de0(s):
        a = 1.0 / (1.0 + s)
        dg = -(q ** a * math.log(q) + (1 - q) ** a * math.log(1 - q)) * a * a
        return 1.0 - math.log2(g(s)) - (1 + s) * dg / (g(s) * LN2)

    return Reference(e0=e0, de0=de0, capacity=1.0 - binary_entropy(q))


def pure_pair_reference(overlap: float) -> Reference:
    hi, lo = (1 + overlap) / 2, (1 - overlap) / 2

    def total(s):
        return hi ** (1 + s) + lo ** (1 + s)

    def e0(s):
        return -math.log2(total(s))

    def de0(s):
        return -(hi ** (1 + s) * math.log(hi) + lo ** (1 + s) * math.log(lo)) / (total(s) * LN2)

    return Reference(e0=e0, de0=de0, capacity=binary_entropy(hi))


def pure_vectors(outputs: np.ndarray) -> np.ndarray | None:
    """Unit vectors psi_x with rho_x = |psi_x><psi_x|, or None if any letter is mixed."""
    vecs = []
    for rho in outputs:
        w, v = np.linalg.eigh(rho)
        if w[-1] < 1 - 1e-12:
            return None
        vecs.append(v[:, -1])
    return np.asarray(vecs)


def reference_for(doc: dict, outputs: np.ndarray) -> Reference | None:
    """Closed-form reference for a BSC or a pair of pure states, else None."""
    if outputs.shape[0] != 2:
        return None
    if "stochastic_matrix" in doc:
        w = np.asarray(doc["stochastic_matrix"], dtype=float)
        q = float(w[0, 1])
        if w.shape == (2, 2) and abs(w[1, 0] - q) < 1e-15 and 0 < q < 0.5:
            return bsc_reference(q)
        return None
    vecs = pure_vectors(outputs)
    if vecs is None:
        return None
    return pure_pair_reference(float(abs(np.vdot(vecs[0], vecs[1]))))


# ---------------------------------------------------------------------------
# Generic references: channel information at a prior and its certificates.


def renyi_mi_at(outputs: np.ndarray, prior: np.ndarray, alpha: float) -> float:
    """(a/(a-1)) log2 tr[(sum_x p_x rho_x^a)^(1/a)]."""
    powers = np.stack([_herm_fn(rho, lambda w: w ** alpha) for rho in outputs])
    lam = np.clip(np.linalg.eigvalsh(np.einsum("x,xij->ij", prior, powers)), 0.0, None)
    return float(alpha / (alpha - 1.0) * math.log((lam ** (1.0 / alpha)).sum()) / LN2)


def renyi_gap_bits(outputs: np.ndarray, prior: np.ndarray, alpha: float) -> float:
    """Certified I_a(N) - I_a(N, p) from the Frank-Wolfe gap of the convex surrogate.

    F(p) = tr[A^(1/a)], A = sum_x p_x rho_x^a, is convex and I_a = (a/(a-1))
    log2 F. Its Frank-Wolfe gap g = p.grad F - min_x grad_x F bounds
    F(p) - min F, so I_a(N) <= (a/(a-1)) log2(F(p) - g).
    """
    powers = np.stack([_herm_fn(rho, lambda w: w ** alpha) for rho in outputs])
    avg = np.einsum("x,xij->ij", prior, powers)
    f = float(np.trace(_herm_fn(avg, lambda w: w ** (1.0 / alpha))).real)
    tilt = _herm_fn(avg, lambda w: w ** (1.0 / alpha - 1.0))
    grad = np.einsum("ij,xji->x", tilt, powers).real / alpha
    gap = max(float(prior @ grad - grad.min()), 0.0)
    if gap >= f:
        return math.inf
    return alpha / (1.0 - alpha) * (math.log2(f) - math.log2(f - gap))


def holevo_at(outputs: np.ndarray, prior: np.ndarray) -> float:
    avg = np.einsum("x,xij->ij", prior, outputs)
    own = sum(p * _entropy_bits(np.linalg.eigvalsh(rho)) for p, rho in zip(prior, outputs))
    return _entropy_bits(np.linalg.eigvalsh(avg)) - float(own)


def holevo_gap_bits(outputs: np.ndarray, prior: np.ndarray) -> float:
    """Certified C - chi(p) <= max_x D(rho_x || rho_p) - chi(p)."""
    avg = np.einsum("x,xij->ij", prior, outputs)
    w, v = np.linalg.eigh(avg)
    on = w > 1e-14 * w.max()
    log_avg = (v[:, on] * (np.log(w[on]) / LN2)) @ v[:, on].conj().T
    kernel = v[:, ~on]
    best = -math.inf
    for rho in outputs:
        if float(np.trace(kernel.conj().T @ rho @ kernel).real) > 1e-12:
            return math.inf
        lam = np.linalg.eigvalsh(rho)
        rel = -_entropy_bits(lam) - float(np.trace(rho @ log_avg).real)
        best = max(best, rel)
    return max(best - holevo_at(outputs, prior), 0.0)


def type_class_mi(vecs: np.ndarray, counts: tuple[int, ...], alpha: float) -> float:
    """Per-use channel information under the uniform type-class prior, pure letters.

    For pure letters rho^a = rho, and the nonzero spectrum of the type-class
    average equals that of the Gram matrix of the codeword vectors over |T|.
    """
    m = sum(counts)
    seqs = np.asarray(_sequences(list(counts), []), dtype=int)
    letter = vecs.conj() @ vecs.T  # <psi_a|psi_b>
    gram = np.ones((len(seqs), len(seqs)), dtype=complex)
    for k in range(m):
        gram *= letter[np.ix_(seqs[:, k], seqs[:, k])]
    lam = np.clip(np.linalg.eigvalsh(gram / len(seqs)), 0.0, None)
    return float(alpha / (alpha - 1.0) / m * math.log2((lam ** (1.0 / alpha)).sum()))


def _sequences(counts: list[int], prefix: list[int]) -> list[list[int]]:
    if not any(counts):
        return [list(prefix)]
    out = []
    for a, c in enumerate(counts):
        if c:
            counts[a] -= 1
            out += _sequences(counts, prefix + [a])
            counts[a] += 1
    return out


# ---------------------------------------------------------------------------
# Parsing CLI output.


def _csv(stdout: str, header: list[str]) -> list[dict[str, str]]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"unexpected header {lines[:1]}")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("short CSV row")
    return rows


def _value_and_prior(stdout: str, key: str) -> tuple[float, np.ndarray]:
    fields = dict(line.split(": ", 1) for line in stdout.strip().splitlines())
    prior = np.asarray([float(t) for t in fields["prior"].split(",")])
    return float(fields[key]), prior


def _close(got: float, want: float, tol: float = TOL_BITS) -> bool:
    return abs(got - want) <= tol


# ---------------------------------------------------------------------------
# Per-command checks. Each returns a list of problems; empty means correct.


class Checker:
    """Checks op outputs; caches parsed channels and their references."""

    def __init__(self):
        self._channels: dict[str, tuple[dict, np.ndarray, Reference | None]] = {}

    def channel(self, path: str):
        if path not in self._channels:
            doc, outputs = load_outputs(path)
            self._channels[path] = (doc, outputs, reference_for(doc, outputs))
        return self._channels[path]

    def check(self, command: str, path: str, args: tuple[str, ...], stdout: str) -> list[str]:
        opts = dict(zip(args[::2], args[1::2]))
        try:
            return getattr(self, f"_check_{command}")(path, opts, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unparseable output: {exc!r}"]

    def _prior_ok(self, prior: np.ndarray, size: int) -> list[str]:
        if prior.shape != (size,) or prior.min() < 0 or abs(prior.sum() - 1) > 1e-7:
            return [f"not a prior on {size} letters: {prior}"]
        return []

    def _check_capacity(self, path, opts, stdout) -> list[str]:
        _, outputs, ref = self.channel(path)
        value, prior = _value_and_prior(stdout, "capacity")
        problems = self._prior_ok(prior, outputs.shape[0])
        if problems:
            return problems
        prior = prior / prior.sum()
        if not _close(value, holevo_at(outputs, prior)):
            problems.append(f"capacity {value} != chi(prior) {holevo_at(outputs, prior)}")
        if ref is not None and not _close(value, ref.capacity):
            problems.append(f"capacity {value} != closed form {ref.capacity}")
        gap = holevo_gap_bits(outputs, prior)
        if not gap <= GAP_BITS:
            problems.append(f"capacity certificate gap {gap:.3e} bits")
        return problems

    def _check_renyi(self, path, opts, stdout) -> list[str]:
        _, outputs, ref = self.channel(path)
        alpha = float(opts["--alpha"])
        value, prior = _value_and_prior(stdout, "renyi_mi")
        problems = self._prior_ok(prior, outputs.shape[0])
        if problems:
            return problems
        prior = prior / prior.sum()
        at_prior = renyi_mi_at(outputs, prior, alpha)
        if not _close(value, at_prior):
            problems.append(f"renyi_mi {value} != I_a(prior) {at_prior}")
        if ref is not None and not _close(value, ref.renyi_mi(alpha)):
            problems.append(f"renyi_mi {value} != closed form {ref.renyi_mi(alpha)}")
        gap = renyi_gap_bits(outputs, prior, alpha)
        if not gap <= GAP_BITS:
            problems.append(f"renyi certificate gap {gap:.3e} bits")
        return problems

    def _check_exponent(self, path, opts, stdout) -> list[str]:
        _, _, ref = self.channel(path)
        header = ["r", "lower", "upper", "equal", "alpha_lower", "alpha_upper", "r_c", "capacity"]
        rows = _csv(stdout, header)
        rates = np.linspace(float(opts["--rmin"]), float(opts["--rmax"]), int(opts["--steps"]))
        problems = []
        if len(rows) != len(rates):
            return [f"{len(rows)} rows for {len(rates)} rates"]
        for want_r, row in zip(rates, rows):
            r, lower, upper = float(row["r"]), float(row["lower"]), float(row["upper"])
            rc, cap = float(row["r_c"]), float(row["capacity"])
            tag = f"r={row['r']}"
            if not _close(r, want_r, 1e-9):
                problems.append(f"{tag}: rate differs from the grid value {want_r}")
            if r >= cap:
                if row["equal"] != "above_capacity" or lower != 0 or upper != 0:
                    problems.append(f"{tag}: at/above capacity but not flagged with zero bounds")
                continue
            if not lower <= upper:
                problems.append(f"{tag}: lower {lower} > upper {upper}")
            if row["equal"] != ("1" if r >= rc - 1e-9 else "0"):
                problems.append(f"{tag}: equal={row['equal']} but r_c={rc}")
            if ref is None:
                continue
            for name, got, want in (
                ("capacity", cap, ref.capacity),
                ("r_c", rc, ref.critical_rate),
                ("lower", lower, ref.lower(r)),
                ("upper", upper, ref.upper(r)),
            ):
                if not _close(got, want):
                    problems.append(f"{tag}: {name} {got} != reference {want}")
        return problems

    def _check_simulate(self, path, opts, stdout) -> list[str]:
        _, _, ref = self.channel(path)
        header = ["n", "M", "best_pe", "mean_pe", "implied_exponent", "lower_bound", "upper_bound"]
        rows = _csv(stdout, header)
        rate = float(opts["--rate"])
        n_list = [int(t) for t in opts["--n-list"].split(",")]
        if [int(row["n"]) for row in rows] != n_list:
            return [f"rows for n={[row['n'] for row in rows]}, expected {n_list}"]
        problems = []
        for row in rows:
            n, size = int(row["n"]), int(row["M"])
            best, mean = float(row["best_pe"]), float(row["mean_pe"])
            tag = f"n={n}"
            if size != round(2.0 ** (n * rate)):
                problems.append(f"{tag}: M={size}, expected round(2^(n r))")
            if not 0.0 <= best <= mean <= 1.0:
                problems.append(f"{tag}: need 0 <= best_pe {best} <= mean_pe {mean} <= 1")
            implied = math.inf if best == 0.0 else -math.log2(best) / n
            if not math.isclose(float(row["implied_exponent"]), implied, rel_tol=1e-6):
                problems.append(f"{tag}: implied_exponent {row['implied_exponent']} != {implied}")
            if ref is not None:
                for name, want in (("lower_bound", ref.lower(rate)), ("upper_bound", ref.upper(rate))):
                    if not _close(float(row[name]), want):
                        problems.append(f"{tag}: {name} {row[name]} != reference {want}")
        return problems

    def _check_besttype(self, path, opts, stdout) -> list[str]:
        _, outputs, ref = self.channel(path)
        alpha, nmax = float(opts["--alpha"]), int(opts["--nmax"])
        rows = _csv(stdout, ["n", "best_type", "value_per_use", "I_alpha_target"])
        if [int(row["n"]) for row in rows] != list(range(1, nmax + 1)):
            return [f"rows for n={[row['n'] for row in rows]}, expected 1..{nmax}"]
        vecs = pure_vectors(outputs)
        problems = []
        previous = -math.inf
        for row in rows:
            n, value = int(row["n"]), float(row["value_per_use"])
            counts = tuple(int(c) for c in row["best_type"].split("|"))
            tag = f"n={n}"
            if len(counts) != outputs.shape[0] or min(counts) < 0 or not 1 <= sum(counts) <= n:
                problems.append(f"{tag}: type {counts} is not a type of length <= n")
                continue
            if value < previous:
                problems.append(f"{tag}: value {value} decreased from {previous}")
            previous = value
            if ref is not None:
                target = ref.renyi_mi(alpha)
                if value > target + 1e-9:
                    problems.append(f"{tag}: value {value} exceeds I_alpha {target}")
                if not _close(float(row["I_alpha_target"]), target):
                    problems.append(f"{tag}: I_alpha_target {row['I_alpha_target']} != {target}")
            if vecs is not None:
                want = type_class_mi(vecs, counts, alpha)
                if not _close(value, want):
                    problems.append(f"{tag}: value {value} != type-class reference {want}")
        return problems
