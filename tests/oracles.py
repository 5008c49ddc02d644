"""Independent classical reference computations used as test oracles.

Everything here works directly on probability vectors and stochastic
matrices, sharing no code with the package paths under test.
"""

import itertools

import numpy as np

LN2 = np.log(2.0)


def classical_renyi_divergence(p, q, alpha: float) -> float:
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    if alpha == 1.0:
        on = p > 0
        return float((p[on] * (np.log(p[on]) - np.log(q[on]))).sum() / LN2)
    on = p > 0
    total = float((p[on] ** alpha * q[on] ** (1.0 - alpha)).sum())
    return float(np.log(total) / ((alpha - 1.0) * LN2))


def classical_conditional_renyi_up(joint, alpha: float) -> float:
    """(a/(1-a)) log2 sum_y (sum_x P(x,y)^a)^(1/a) for a joint table P[x, y]."""
    joint = np.asarray(joint, float)
    inner = (joint ** alpha).sum(axis=0) ** (1.0 / alpha)
    return float(alpha / (1.0 - alpha) * np.log(inner.sum()) / LN2)


def classical_sibson_distribution(prior, w, alpha: float) -> np.ndarray:
    """(sum_x p_x W(.|x)^a)^(1/a), normalized."""
    prior = np.asarray(prior, float)
    w = np.asarray(w, float)
    raw = ((prior[:, None] * w ** alpha).sum(axis=0)) ** (1.0 / alpha)
    return raw / raw.sum()


def classical_channel_renyi_mi(w, prior, alpha: float) -> float:
    """(a/(a-1)) log2 sum_y (sum_x p_x W(y|x)^a)^(1/a)."""
    prior = np.asarray(prior, float)
    w = np.asarray(w, float)
    total = (((prior[:, None] * w ** alpha).sum(axis=0)) ** (1.0 / alpha)).sum()
    return float(alpha / (alpha - 1.0) * np.log(total) / LN2)


def gallager_e0(s: float, prior, w) -> float:
    """-log2 sum_y (sum_x p_x W(y|x)^(1/(1+s)))^(1+s)."""
    prior = np.asarray(prior, float)
    w = np.asarray(w, float)
    inner = (prior[:, None] * w ** (1.0 / (1.0 + s))).sum(axis=0)
    return float(-np.log((inner ** (1.0 + s)).sum()) / LN2)


def classical_capacity(w, grid: int = 200001) -> float:
    """Dense-grid capacity for a binary-input channel."""
    w = np.asarray(w, float)
    assert w.shape[0] == 2
    ps = np.linspace(0.0, 1.0, grid)
    priors = np.stack([ps, 1.0 - ps], axis=1)
    out = priors @ w
    def entropy(rows):
        rows = np.clip(rows, 1e-300, None)
        return -(rows * np.log(rows)).sum(axis=-1) / LN2
    chi = entropy(out) - priors @ entropy(w)
    return float(chi.max())


def _golden_max(f, lo, hi, tol=1e-12, iters=300):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def best_prior_e0(s: float, w, coarse: int = 2001) -> float:
    """max_p E0(s, p) for a binary-input channel, grid plus golden refinement."""
    w = np.asarray(w, float)
    assert w.shape[0] == 2

    def value(p0: float) -> float:
        return gallager_e0(s, np.array([p0, 1.0 - p0]), w)

    ps = np.linspace(0.0, 1.0, coarse)
    priors = np.stack([ps, 1.0 - ps], axis=1)
    inner = priors @ (w ** (1.0 / (1.0 + s)))
    vals = -np.log((inner ** (1.0 + s)).sum(axis=1)) / LN2
    i = int(vals.argmax())
    lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, coarse - 1)]
    _, best = _golden_max(value, lo, hi)
    return max(best, float(vals[i]))


def classical_random_coding_exponent(w, r: float) -> float:
    """max over s in [0, 1] of max_p E0(s, p) - s r."""
    def objective(s: float) -> float:
        return best_prior_e0(s, w) - s * r

    ss = np.linspace(0.0, 1.0, 201)
    vals = np.array([objective(s) for s in ss])
    i = int(vals.argmax())
    lo, hi = ss[max(i - 1, 0)], ss[min(i + 1, 200)]
    _, best = _golden_max(objective, lo, hi)
    return max(best, float(vals[i]))


def classical_sphere_packing_exponent(w, r: float, s_max: float = 99.0) -> float:
    """sup over s in [0, s_max] of max_p E0(s, p) - s r."""
    def objective(s: float) -> float:
        return best_prior_e0(s, w) - s * r

    ss = np.linspace(0.0, s_max, 400)
    vals = np.array([objective(s) for s in ss])
    i = int(vals.argmax())
    lo, hi = ss[max(i - 1, 0)], ss[min(i + 1, len(ss) - 1)]
    _, best = _golden_max(objective, lo, hi, tol=1e-11)
    return max(best, float(vals[i]))


def classical_critical_rate(w, h: float = 1e-4) -> float:
    """Central difference of max_p E0(s, p) at s = 1."""
    return (best_prior_e0(1.0 + h, w) - best_prior_e0(1.0 - h, w)) / (2.0 * h)


def classical_ml_error(w, codewords) -> float:
    """Exact ML average error of a codebook over a classical channel."""
    w = np.asarray(w, float)
    rows = []
    for cw in codewords:
        vec = np.ones(1)
        for x in cw:
            vec = np.kron(vec, w[x])
        rows.append(vec)
    q = np.asarray(rows)
    return float(1.0 - q.max(axis=0).sum() / len(rows))


# ---------------------------------------------------------------------------
# Quantum references with their own derivations, on plain numpy arrays.


def renyi_half_prior(states) -> np.ndarray:
    """The prior maximizing I_{1/2}(N, p) for letters ``states``.

    At alpha = 1/2 the maximand is -log2 of f(p) = tr[(sum_x p_x sqrt(rho_x))^2]
    = p.Q.p with Q_xy = tr[sqrt(rho_x) sqrt(rho_y)], a quadratic. Its
    minimizer over the simplex satisfies the KKT conditions on its support S:
    Q_SS p_S = nu 1 and (Q p)_x >= nu off S. Every support is tried, and the
    KKT point with the least f is kept; with a definite Q it is unique.
    """
    roots = []
    for rho in states:
        w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
        # Roots act on the support: eigenvalues at rounding level are zeros.
        w = np.where(w > 1e-12 * w.max(), w, 0.0)
        roots.append((v * np.sqrt(w)) @ v.conj().T)
    q = np.array([[np.trace(a @ b).real for b in roots] for a in roots])
    k = len(roots)
    best, best_f = None, np.inf
    for mask in range(1, 2 ** k):
        on = np.array([(mask >> x) & 1 == 1 for x in range(k)])
        try:
            sol = np.linalg.solve(q[np.ix_(on, on)], np.ones(on.sum()))
        except np.linalg.LinAlgError:
            continue
        if sol.sum() <= 0 or sol.min() < 0:
            continue
        p = np.zeros(k)
        p[on] = sol / sol.sum()
        grad = q @ p
        nu = p @ grad
        if (grad[~on] >= nu - 1e-14).all() and p @ grad < best_f:
            best, best_f = p, p @ grad
    assert best is not None
    return best


def pure_state_e0(s: float, priors, overlaps) -> np.ndarray:
    """Burnashev-Holevo E0(s, p) = -log2 tr[(sqrt(P) O sqrt(P))^(1+s)] per row of ``priors``.

    For pure letters rho_x = |psi_x><psi_x| the average sum_x p_x rho_x^a does
    not depend on a and shares its nonzero spectrum with sqrt(P) O sqrt(P),
    O_xy = <psi_x|psi_y> (Burnashev and Holevo, Probl. Inf. Transm. 34(2),
    1998).
    """
    root = np.sqrt(np.clip(np.atleast_2d(priors), 0.0, None))
    mats = root[:, :, None] * np.asarray(overlaps)[None] * root[:, None, :]
    mu = np.clip(np.linalg.eigvalsh(mats), 0.0, None)
    return -np.log((mu ** (1.0 + s)).sum(axis=1)) / LN2


def _simplex_lattice(k: int, n: int) -> np.ndarray:
    """All priors on k letters with weights in multiples of 1/n."""
    counts = [c for c in itertools.product(range(n + 1), repeat=k - 1) if sum(c) <= n]
    counts = np.array(counts, dtype=float).reshape(-1, k - 1)
    return np.hstack([counts, n - counts.sum(axis=1, keepdims=True)]) / n


def pure_state_best_e0(s: float, overlaps, coarse: int = 24, zooms: int = 5) -> float:
    """max_p E0(s, p) for pure letters: the best point of a simplex lattice,
    refined by lattices 4x finer around the best point so far."""
    k = len(overlaps)
    priors = _simplex_lattice(k, coarse)
    values = pure_state_e0(s, priors, overlaps)
    best, best_value = priors[values.argmax()], float(values.max())
    steps = np.stack(np.meshgrid(*[np.arange(-6, 7)] * (k - 1), indexing="ij"), -1).reshape(-1, k - 1)
    steps = np.hstack([steps, -steps.sum(axis=1, keepdims=True)])
    step = 1.0 / coarse
    for _ in range(zooms):
        step /= 4.0
        local = best + step * steps
        local = local[(local >= 0).all(axis=1)]
        values = pure_state_e0(s, local, overlaps)
        if values.max() > best_value:
            best, best_value = local[values.argmax()], float(values.max())
    return best_value


def _max_over_s(objective, ss, tol: float = 1e-9) -> float:
    """Max of ``objective`` over the grid ``ss``, golden-refined around the best point."""
    vals = np.array([objective(s) for s in ss])
    i = int(vals.argmax())
    lo, hi = ss[max(i - 1, 0)], ss[min(i + 1, len(ss) - 1)]
    _, best = _golden_max(objective, lo, hi, tol=tol)
    return max(best, float(vals[i]))


def pure_state_random_coding_exponent(overlaps, r: float) -> float:
    """max over s in [0, 1] of max_p E0(s, p) - s r, for pure letters."""
    return _max_over_s(lambda s: pure_state_best_e0(s, overlaps) - s * r, np.linspace(0.0, 1.0, 41))


def pure_state_sphere_packing_exponent(overlaps, r: float, s_max: float = 99.0) -> float:
    """sup over s in [0, s_max] of max_p E0(s, p) - s r, for pure letters; the
    coarse points are even in alpha = 1/(1+s), as the bound's alpha grid is."""
    ss = 1.0 / np.linspace(1.0 / (1.0 + s_max), 1.0, 64) - 1.0
    return _max_over_s(lambda s: pure_state_best_e0(s, overlaps) - s * r, ss[::-1])


def class_sequences(counts) -> np.ndarray:
    """Every sequence of the type ``counts`` (letter a appears counts[a] times), one per row."""
    rows = [(-1,) * sum(counts)]
    for a, c in enumerate(counts):
        grown = []
        for row in rows:
            for spots in itertools.combinations([i for i, x in enumerate(row) if x < 0], c):
                new = list(row)
                for i in spots:
                    new[i] = a
                grown.append(tuple(new))
        rows = grown
    return np.array(rows, dtype=int)


def type_class_table_mi(w, counts, alpha: float, chunk: int = 256) -> float:
    """(a/(a-1)) (1/n) log2 sum_y (mean over T of prod_i W(y_i|x_i)^a)^(1/a): the
    information of the type class of ``counts`` for the classical channel ``w``,
    from the table of output-sequence rows of every sequence of the class."""
    wa = np.asarray(w, float) ** alpha
    seqs = class_sequences(counts)
    n = seqs.shape[1]
    total = 0.0
    for lo in range(0, len(seqs), chunk):
        part = seqs[lo:lo + chunk]
        table = wa[part[:, 0]]
        for i in range(1, n):
            table = (table[:, :, None] * wa[part[:, i]][:, None, :]).reshape(len(part), -1)
        total = total + table.sum(axis=0)
    trace = ((total / len(seqs)) ** (1.0 / alpha)).sum()
    return float(alpha / (alpha - 1.0) / n * np.log(trace) / LN2)


def channel_dispersion(states, prior) -> float:
    """V = sum_x p_x (tr[rho_x L_x^2] - (tr[rho_x L_x])^2), L_x = log2 rho_x - log2 rho_p,
    in bits^2, with log2 rho_x taken on its support; rho_p = sum_x p_x rho_x."""
    states = [np.asarray(rho, dtype=complex) for rho in states]

    def log2(rho):
        w, v = np.linalg.eigh(rho)
        on = w > 1e-12 * w.max()
        return (v * np.where(on, np.log2(np.where(on, w, 1.0)), 0.0)) @ v.conj().T

    log_mix = log2(sum(p * rho for p, rho in zip(prior, states)))
    total = 0.0
    for p, rho in zip(prior, states):
        lx = log2(rho) - log_mix
        total += p * (np.trace(rho @ lx @ lx).real - np.trace(rho @ lx).real ** 2)
    return float(total)


def _full_rank_power(m, t: float) -> np.ndarray:
    """m^t for a Hermitian positive semidefinite m, from its own eigendecomposition;
    a negative t asks for m of full rank."""
    m = (m + m.conj().T) / 2.0
    lam, vec = np.linalg.eigh(m)
    return (vec * np.clip(lam, 0.0, None) ** t) @ vec.conj().T


def duality_renyi_mi(states, prior, alpha: float) -> float:
    """I_alpha(N, p) = (a/(a-1)) log2 tr[(sum_x p_x rho_x^a)^(1/a)] of full-rank
    letters (those of weight 0 may be singular), without any power rho_x^a, from the duality of Petz and sandwiched
    conditional entropies, H_a^up(X|B) = -H~_{1/a}^down(X|R) (Tomamichel, Berta
    and Hayashi, J. Math. Phys. 55, 082206, 2014), with R the purifying system.

    With q_x = p_x^(1/a) / Z, Z = sum_x p_x^(1/a), the cq state of q is purified
    by |psi> = sum_x sqrt(q_x) |x>_X |x>_X' |vec sqrt(rho_x)>_BC. Tracing out B
    leaves rho_XX'C, whose (x, x') block on C is conj(sqrt(rho_x) sqrt(rho_x'))
    at |x x><x' x'|, and I_a(N, p) = H~_{1/a}^down(X|X'C) + (a/(a-1)) log2 Z,
    where H~_b^down(X|R) = -D~_b(rho_XR || I_X (x) rho_R) and
    D~_b(rho || s) = log2 tr[(s^g rho s^g)^b] / (b - 1), g = (1 - b) / (2b).
    """
    prior = np.asarray(prior, dtype=float)
    on = prior > 0  # a letter of weight 0 is no part of the state
    states, prior = np.asarray(states, dtype=complex)[on], prior[on]
    k, d = states.shape[0], states.shape[1]
    beta = 1.0 / alpha
    z = float((prior ** beta).sum())
    q = prior ** beta / z
    roots = [_full_rank_power(rho, 0.5) for rho in states]
    joint = np.zeros((k, k, d, k, k, d), dtype=complex)
    marginal = np.zeros((k, d, k, d), dtype=complex)
    for x in range(k):
        marginal[x, :, x, :] = q[x] * np.conj(states[x])
        for y in range(k):
            joint[x, x, :, y, y, :] = np.sqrt(q[x] * q[y]) * np.conj(roots[x] @ roots[y])
    joint = joint.reshape(k * k * d, k * k * d)
    side = np.kron(np.eye(k), _full_rank_power(marginal.reshape(k * d, k * d), (1.0 - beta) / (2.0 * beta)))
    trace = float(np.trace(_full_rank_power(side @ joint @ side, beta)).real)
    conditional = -np.log(trace) / ((beta - 1.0) * LN2)
    return float(conditional + alpha / (alpha - 1.0) * np.log(z) / LN2)
