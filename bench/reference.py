"""Independent reference values for the benchmark, written without pottsinvest.

Everything here is derived from the model's definition, not from the
package under test:

* Random coupling vectors come from SplitMix64 as specified in the
  ``pottsinvest.profiles`` docstring (state += golden gamma, two xor-shift
  multiplies, top 53 bits to [0, 1)), then J(k) = min(floor(u * q), q - 1).
* l(beta) at zero bias is the Hellmann-Feynman derivative of the dominant
  eigenvalue: with M[a][b] = exp(-beta * J(a) * [a == b]) and v its unit
  dominant eigenvector, l = sum_a d_a v_a^2 exactly.  The matrix is scaled by
  its largest entry before numpy's ``eigh``; where float64 cannot separate
  the top two eigenvalues the same formula is evaluated with mpmath at a
  precision that resolves the smallest scaled entry.
* log Z_N of a finite ring is enumerated directly for small rings and taken
  from ``eigvalsh`` with a sign-tracking log-sum-exp otherwise.

``python3 bench/reference.py`` runs :func:`self_test`, which checks the
reference against facts that need no program.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

_MASK64 = (1 << 64) - 1

# Below this relative gap between the two largest eigenvalues the float64
# eigenvector is not trusted and mpmath takes over.
TIE_GAP = 1e-6

# Rings with at most this many configurations are enumerated outright.
ENUMERATE_CAP = 1 << 16


def splitmix64(seed: int):
    """Yield the SplitMix64 output stream for ``seed``."""
    state = int(seed) & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_couplings(q: int, seed: int) -> list[float]:
    """The random profile's couplings: floor(u * q) per level, u on [0, 1)."""
    gen = splitmix64(seed)
    return [min(float(math.floor((next(gen) >> 11) * 2.0**-53 * q)), q - 1.0) for _ in range(q)]


def aggressive(q: int) -> list[float]:
    return [-float(k + 1) for k in range(q)]


def conservative(q: int) -> list[float]:
    return [-float(q - k) for k in range(q)]


def _scaled_exponents(couplings, beta: float) -> np.ndarray:
    """Exponents of the zero-bias transfer matrix minus their maximum."""
    j = np.asarray(couplings, dtype=float)
    x = np.zeros((len(j), len(j)))
    np.fill_diagonal(x, -beta * j)
    return x - x.max()


def investment(couplings, beta: float) -> tuple[float, str]:
    """Exact l(beta) for levels 0..q-1 at zero bias, and the method used."""
    q = len(couplings)
    if beta == 0.0:
        return (q - 1) / 2.0, "mean"
    x = _scaled_exponents(couplings, beta)
    w, v = np.linalg.eigh(np.exp(x))
    if w[-1] - w[-2] >= TIE_GAP * w[-1]:
        return float(np.dot(np.arange(q), v[:, -1] ** 2)), "eigh"
    return _investment_mp(x), "mpmath"


def _investment_mp(x: np.ndarray) -> float:
    q = x.shape[0]
    digits = 30 + math.ceil(-float(x.min()) / math.log(10.0))
    with mpmath.workdps(digits):
        m = mpmath.matrix(q, q)
        for a in range(q):
            for b in range(q):
                m[a, b] = mpmath.exp(mpmath.mpf(float(x[a, b])))
        e, vec = mpmath.eigsy(m)
        top = max(range(q), key=lambda k: e[k])
        return float(mpmath.fsum(a * vec[a, top] ** 2 for a in range(q)))


def log_partition(q: int, n_sites: int, beta: float, field: float, couplings) -> tuple[float, str]:
    """log Z_N for levels 0..q-1 with bias ``field``, and the method used."""
    j = np.asarray(couplings, dtype=float)
    lev = np.arange(q, dtype=float)
    if q**n_sites <= ENUMERATE_CAP:
        return _log_partition_enumerated(j, lev, n_sites, beta, field), "enumeration"
    return _log_partition_spectral(j, lev, n_sites, beta, field), "eigvalsh"


def _log_partition_spectral(j, lev, n_sites: int, beta: float, field: float) -> float:
    """log sum_i lambda_i^N, with lambda_i^N < 0 for negative lambda_i and odd N."""
    x = -beta * field * 0.5 * (lev[:, None] + lev[None, :]) - np.diag(beta * j)
    s = float(x.max())
    lam = np.linalg.eigvalsh(np.exp(x - s))
    lam = lam[lam != 0.0]
    logs = n_sites * np.log(np.abs(lam))
    signs = np.where(lam < 0.0, (-1.0) ** n_sites, 1.0)
    top = float(logs.max())
    return n_sites * s + top + math.log(float(np.sum(signs * np.exp(logs - top))))


def _log_partition_enumerated(j, lev, n_sites: int, beta: float, field: float) -> float:
    configs = np.array(list(itertools.product(range(len(j)), repeat=n_sites)), dtype=np.int64)
    nbr = np.roll(configs, -1, axis=1)
    energy = np.where(configs == nbr, j[configs], 0.0).sum(axis=1) + field * lev[configs].sum(axis=1)
    e = -beta * energy
    top = float(e.max())
    return top + math.log(math.fsum(np.exp(e - top)))


def self_test() -> list[str]:
    """Check the reference against program-free facts; return the failures."""
    problems = []
    # Published first output of SplitMix64 seeded with 0.
    if next(splitmix64(0)) != 0xE220A8397B1DCDAF:
        problems.append("splitmix64(0) first output")
    if any(not 0.0 <= v <= q - 1 for q in (2, 15, 60) for v in random_couplings(q, 7)):
        problems.append("random couplings outside 0..q-1")
    for q in (2, 5, 15):
        got, _ = investment(random_couplings(q, 3), 1e-12)
        if abs(got - (q - 1) / 2.0) > 1e-9:
            problems.append(f"l near beta=0 at q={q} is {got!r}, not the level mean")
    for q in (3, 10, 40):
        for beta in (0.1, 1.0, 10.0, 1000.0):
            a, _ = investment(aggressive(q), beta)
            c, _ = investment(conservative(q), beta)
            if abs(a + c - (q - 1)) > 1e-9 * q:
                problems.append(f"mirror identity at q={q}, beta={beta}: {a!r} + {c!r}")
    # Exact tie: two rewarded levels share the minimum, so l = 1/2.
    for beta in (40.0, 1000.0):
        got, method = investment([-1.0, -1.0, 0.0], beta)
        if method != "mpmath" or abs(got - 0.5) > 1e-15:
            problems.append(f"tied minimum at beta={beta}: {got!r} via {method}")
    # q = 2 closed form written out independently of the package.
    for beta in (0.3, 2.0):
        u, v = math.exp(-beta), math.exp(beta)
        root = math.sqrt((u - v) ** 2 + 4.0)
        exact = (v + (2.0 + v * v - u * v) / root) / (u + v + root)
        got, _ = investment([1.0, -1.0], beta)
        if abs(got - exact) > 1e-12:
            problems.append(f"q=2 closed form at beta={beta}: {got!r} vs {exact!r}")
    rng = np.random.default_rng(0)
    for q, n in ((2, 9), (3, 6), (4, 5), (6, 3), (120, 1), (120, 2)):
        beta, field = float(rng.uniform(0.1, 2.0)), float(rng.uniform(-1.0, 1.0))
        j = rng.uniform(-2.0, 2.0, q)
        lev = np.arange(q, dtype=float)
        enum = _log_partition_enumerated(j, lev, n, beta, field)
        spectral = _log_partition_spectral(j, lev, n, beta, field)
        if abs(enum - spectral) > 1e-10 * max(1.0, abs(enum)):
            problems.append(f"enumeration vs spectrum at q={q}, N={n}: {enum!r} vs {spectral!r}")
    return problems


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("reference self-test:", "FAIL" if failures else "ok")
    raise SystemExit(1 if failures else 0)
