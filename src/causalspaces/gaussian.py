"""Linear-Gaussian causal spaces with closed-form kernel pushforwards.

Kernels are affine-Gaussian maps: row at a subset atom x is
N(A x + b, Sigma). Determinism takes the exact linear form: the rows of A
belonging to intervened coordinates are selectors, with zero offset and
zero noise, so intervened coordinates pass through bit for bit. Intervening
is then a single moment computation, and conditioning is the Schur
complement; both are cross-checked by sampling in the tests.

Covariances may be singular (Dirac coordinates are zero rows/columns), so
conditioning works through a pseudo-inverse after checking the conditioned
block itself is nonsingular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import subsets
from .errors import DomainError, SingularBlockError
from .measure import check_fits

SYM_TOL = 1e-12
EIG_TOL = 1e-10
BLOCK_TOL = 1e-10


def _clean_cov(cov: np.ndarray, what: str) -> np.ndarray:
    c = np.array(cov, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DomainError(f"{what} covariance must be square, got {c.shape}")
    if not np.isfinite(c).all():
        raise DomainError(f"{what} covariance has a non-finite entry")
    if c.size and np.abs(c - c.T).max() > SYM_TOL:
        raise DomainError(f"{what} covariance is not symmetric")
    c = (c + c.T) / 2.0
    if c.size:
        w = np.linalg.eigvalsh(c)
        if w.min() < -EIG_TOL:
            raise DomainError(f"{what} covariance has eigenvalue {w.min()}")
        if w.min() < 0.0:
            w2, v = np.linalg.eigh(c)
            c = (v * np.clip(w2, 0.0, None)) @ v.T
            c = (c + c.T) / 2.0
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Multivariate normal as a (mean, cov) pair; cov symmetric PSD."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.array(self.mean, dtype=np.float64).reshape(-1)
        if not np.isfinite(m).all():
            raise DomainError("measure mean has a non-finite entry")
        c = _clean_cov(self.cov, "measure")
        if c.shape != (m.shape[0], m.shape[0]):
            raise DomainError(f"mean length {m.shape[0]} vs cov {c.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", c)

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def coordinates(self, idx: list[int] | np.ndarray) -> "Gaussian":
        idx = np.asarray(idx, dtype=np.intp)
        return Gaussian(self.mean[idx], self.cov[np.ix_(idx, idx)])


def g_dirac(values) -> Gaussian:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    return Gaussian(v, np.zeros((v.shape[0], v.shape[0])))


@dataclass(frozen=True, eq=False)
class GaussianKernel:
    """Affine-Gaussian kernel row family x -> N(coeff x + offset, noise_cov).

    source coordinates are pass-through: their coeff rows are snapped to
    exact selectors and their offset and noise entries to exact zeros; a
    construction off by more than 1e-12 is rejected instead of snapped.
    """

    source: int
    coeff: np.ndarray
    offset: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        a = np.array(self.coeff, dtype=np.float64)
        b = np.array(self.offset, dtype=np.float64).reshape(-1)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise DomainError("kernel coeff or offset has a non-finite entry")
        s = _clean_cov(self.noise_cov, "kernel noise")
        n = b.shape[0]
        idx = subsets.indices_of(self.source)
        if a.shape != (n, len(idx)):
            raise DomainError(f"coeff shape {a.shape}, expected {(n, len(idx))}")
        if s.shape != (n, n):
            raise DomainError(f"noise cov shape {s.shape}, expected {(n, n)}")
        s = np.array(s)
        idx = np.array(idx, dtype=np.intp)
        inside = idx[idx < n]
        sel = np.eye(len(idx))
        dev = np.maximum.reduce([
            np.abs(a[inside] - sel[: len(inside)]).max(axis=1, initial=0.0),
            np.abs(b[inside]),
            np.abs(s[inside]).max(axis=1, initial=0.0),
            np.abs(s[:, inside]).max(axis=0, initial=0.0),
        ])
        bad = np.flatnonzero(dev > SYM_TOL)
        if bad.size:
            raise DomainError(f"kernel is not deterministic on coordinate {inside[bad[0]]}")
        if len(inside) < len(idx):
            raise DomainError("source mask outside the coordinate range")
        a[idx] = sel
        b[idx] = 0.0
        s[idx, :] = 0.0
        s[:, idx] = 0.0
        for arr in (a, b, s):
            arr.setflags(write=False)
        object.__setattr__(self, "coeff", a)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "noise_cov", s)

    @property
    def n(self) -> int:
        return self.offset.shape[0]

    def push(self, q: Gaussian) -> Gaussian:
        """Moments of the kernel applied to a Gaussian input on the source."""
        if q.n != self.coeff.shape[1]:
            raise DomainError(
                f"input has {q.n} coordinates, kernel source has {self.coeff.shape[1]}"
            )
        mean = self.coeff @ q.mean + self.offset
        cov = self.coeff @ q.cov @ self.coeff.T + self.noise_cov
        return Gaussian(mean, cov)


@dataclass(frozen=True, eq=False)
class GaussianSpace:
    """Named jointly-Gaussian coordinates plus per-subset kernels.

    kernels maps subset masks to kernels; masks not stored are built on
    demand by builder (the Brownian grid composes its kernels this way).
    The empty and full subsets always resolve: to the observational measure
    and to the identity map.
    """

    names: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray
    kernels: dict[int, GaussianKernel] = field(default_factory=dict)
    builder: Callable[[int], GaussianKernel] | None = None

    def __post_init__(self):
        g = Gaussian(self.mean, self.cov)
        if len(self.names) != g.n:
            raise DomainError(f"{len(self.names)} names for {g.n} coordinates")
        if len(set(self.names)) != len(self.names):
            raise DomainError("coordinate names must be unique")
        object.__setattr__(self, "mean", g.mean)
        object.__setattr__(self, "cov", g.cov)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full(self) -> int:
        return subsets.full_mask(self.n)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise DomainError(f"no coordinate named {name!r}") from exc

    def observational(self) -> Gaussian:
        return Gaussian(self.mean, self.cov)

    def kernel(self, mask: int) -> GaussianKernel:
        if not 0 <= mask <= self.full:
            raise DomainError(f"mask {mask:#b} outside this {self.n}-coordinate space")
        hit = self.kernels.get(mask)
        if hit is not None:
            return hit
        if mask == 0:
            k = GaussianKernel(0, np.zeros((self.n, 0)), self.mean, self.cov)
        elif mask == self.full:
            k = GaussianKernel(
                self.full, np.eye(self.n), np.zeros(self.n), np.zeros((self.n, self.n))
            )
        elif self.builder is not None:
            k = self.builder(mask)
        else:
            raise DomainError(f"no kernel stored for subset {mask:#b}")
        self.kernels[mask] = k
        return k


def g_intervene(gs: GaussianSpace, u: int, q: Gaussian | np.ndarray) -> Gaussian:
    """Intervention measure: push q through the subset's kernel.

    A plain vector is taken as a Dirac at those values.
    """
    if not isinstance(q, Gaussian):
        q = g_dirac(q)
    return gs.kernel(u).push(q)


def _schur(gs: GaussianSpace, u: int):
    """Gain, intercept and residual covariance of the rest given the block."""
    idx_s = list(subsets.indices_of(u))
    idx_r = [t for t in range(gs.n) if t not in idx_s]
    ss = gs.cov[np.ix_(idx_s, idx_s)]
    if idx_s:
        w = np.linalg.eigvalsh(ss)
        if w.min() <= BLOCK_TOL:
            raise SingularBlockError(
                f"conditioned block has eigenvalue {w.min()}, below {BLOCK_TOL}"
            )
    gain = gs.cov[np.ix_(idx_r, idx_s)] @ np.linalg.pinv(ss, hermitian=True)
    resid = gs.cov[np.ix_(idx_r, idx_r)] - gain @ gs.cov[np.ix_(idx_s, idx_r)]
    return idx_s, idx_r, gain, resid


def g_condition(gs: GaussianSpace, u: int, values) -> Gaussian:
    """Observational conditional given exact values on the U-coordinates.

    The point mass at the values pushed through the conditional kernel: a
    full-dimension Gaussian with the conditioned coordinates pinned (zero
    variance) at the given values.
    """
    k = conditional_gaussian_kernel(gs, u)
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.shape != (k.coeff.shape[1],):
        raise DomainError(f"{k.coeff.shape[1]} conditioned coordinates, got {v.shape}")
    return k.push(g_dirac(v))


def conditional_gaussian_kernel(gs: GaussianSpace, u: int) -> GaussianKernel:
    """Kernel whose rows are the observational conditionals given the block.

    Pushing the observational U-marginal through it reproduces the joint
    exactly (law of total probability in moment form).
    """
    idx_s, idx_r, gain, resid = _schur(gs, u)
    a = np.zeros((gs.n, len(idx_s)))
    b = np.zeros(gs.n)
    s = np.zeros((gs.n, gs.n))
    a[idx_s, np.arange(len(idx_s))] = 1.0
    a[idx_r, :] = gain
    b[idx_r] = gs.mean[idx_r] - gain @ gs.mean[idx_s]
    s[np.ix_(idx_r, idx_r)] = resid
    return GaussianKernel(u, a, b, s)


def sample_intervention(
    gs: GaussianSpace, u: int, q: Gaussian | np.ndarray, samples: int, seed: int = 0
) -> np.ndarray:
    """Two-stage sampler: subset values from q, then one kernel draw each."""
    if not isinstance(q, Gaussian):
        q = g_dirac(q)
    if samples < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    k = gs.kernel(u)

    def draw(g: Gaussian, m: int) -> np.ndarray:
        if g.n == 0:
            return np.zeros((m, 0))
        w, vecs = np.linalg.eigh(g.cov)
        scale = np.sqrt(np.clip(w, 0.0, None))
        return g.mean + (rng.standard_normal((m, g.n)) * scale) @ vecs.T

    zu = draw(q, samples)
    noise = draw(Gaussian(np.zeros(k.n), k.noise_cov), samples)
    return zu @ k.coeff.T + k.offset + noise


# --------------------------------------------------------------- fixtures


def altitude_temperature() -> GaussianSpace:
    """Two jointly-Gaussian coordinates where only one direction is causal.

    The altitude kernel sends temperature to N((1200 - e1)/20, 1/4), which
    coincides with the observational conditional; the temperature kernel
    leaves altitude at its marginal N(1000, 300) whatever it is handed.
    """
    mean = np.array([1000.0, 10.0])
    cov = np.array([[300.0, -15.0], [-15.0, 1.0]])
    k_alt = GaussianKernel(
        0b01,
        np.array([[1.0], [-0.05]]),
        np.array([0.0, 60.0]),
        np.array([[0.0, 0.0], [0.0, 0.25]]),
    )
    k_temp = GaussianKernel(
        0b10,
        np.array([[0.0], [1.0]]),
        np.array([1000.0, 0.0]),
        np.array([[300.0, 0.0], [0.0, 0.0]]),
    )
    return GaussianSpace(
        ("altitude", "temperature"), mean, cov, {0b01: k_alt, 0b10: k_temp}
    )


def rice_market() -> GaussianSpace:
    """Cyclic two-coordinate market: each side's kernel drives the other.

    Kernels: price responds as N(6 - amount/2, 1/4), amount as
    N(1 + price/2, 1/4). The observational joint (negatively correlated,
    mean (3.5, 5)) is fixture metadata: the cycle means it is not derived
    from the kernels by any factorization.
    """
    mean = np.array([3.5, 5.0])
    cov = np.array([[0.25, -0.2], [-0.2, 0.25]])
    k_amount = GaussianKernel(
        0b01,
        np.array([[1.0], [-0.5]]),
        np.array([0.0, 6.0]),
        np.array([[0.0, 0.0], [0.0, 0.25]]),
    )
    k_price = GaussianKernel(
        0b10,
        np.array([[0.5], [1.0]]),
        np.array([1.0, 0.0]),
        np.array([[0.25, 0.0], [0.0, 0.0]]),
    )
    return GaussianSpace(("amount", "price"), mean, cov, {0b01: k_amount, 0b10: k_price})


def brownian_grid(n_steps: int, horizon: float = 1.0) -> GaussianSpace:
    """Brownian motion observed on an even grid of n_steps times.

    Covariance min(s, t). Kernels are composed from the Markov structure:
    a free coordinate restarts from the latest intervened time at or before
    it (unit coefficient, variance equal to the elapsed time), while
    coordinates before every intervened time keep the observational law.
    Free coordinates separated by an intervened time get independent noise.
    """
    if n_steps < 2:
        raise DomainError("grid needs at least two steps")
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    # the covariance, and _clean_cov's copy and two temporaries of its size
    check_fits(4 * 8 * n_steps**2, f"a Brownian grid of {n_steps} steps")
    times = horizon * np.arange(1, n_steps + 1) / n_steps
    cov = np.minimum.outer(times, times)
    names = tuple(f"W({t:g})" for t in times)

    def build(mask: int) -> GaussianKernel:
        idx = np.array(subsets.indices_of(mask), dtype=np.intp)
        # k[i]: position in idx of the latest intervened time at or before i, or -1
        k = np.searchsorted(idx, np.arange(n_steps), side="right") - 1
        after = k >= 0
        a = np.zeros((n_steps, len(idx)))
        a[after, k[after]] = 1.0
        start = np.where(after, times[idx[k]], 0.0)
        free = np.ones(n_steps, dtype=bool)
        free[idx] = False
        same = free[:, None] & free[None, :] & (k[:, None] == k[None, :])
        s = np.where(same, cov - start[:, None], 0.0)
        return GaussianKernel(mask, a, np.zeros(n_steps), s)

    return GaussianSpace(names, np.zeros(n_steps), cov, {}, build)
