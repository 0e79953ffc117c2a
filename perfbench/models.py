"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator derived from the workload seed, so
one seed always yields the same inputs; the package only ever sees the
generated specs. All finite models are binary with binary noises, so the
cost of compiling one depends on n alone and not on the seed.
"""

from __future__ import annotations

import numpy as np

from causalspaces.compilers import NoiseTerm, PoSpec, ScmSpec, ScmVariable

BIN = ("0", "1")
COPY = np.array([[0, 1]])
XOR = np.array([[0, 1], [1, 0]])


def _coin(p: float) -> NoiseTerm:
    return NoiseTerm(BIN, (1.0 - p, p))


def _variables(n: int) -> tuple[ScmVariable, ...]:
    return tuple(ScmVariable(f"X{j}", BIN) for j in range(n))


def xor_chain(rng: np.random.Generator, n: int) -> ScmSpec:
    """X0 a biased coin, then X_j = X_{j-1} XOR a coin flipping at 5-30%.

    Every X_j with j < k moves X_k (the effect shrinks by 1 - 2 p per link
    but never reaches zero), and no later variable moves an earlier one.
    """
    noises = [_coin(float(rng.uniform(0.3, 0.7)))]
    noises += [_coin(float(rng.uniform(0.05, 0.3))) for _ in range(1, n)]
    parents = ((),) + tuple((j - 1,) for j in range(1, n))
    tables = (COPY,) + (XOR,) * (n - 1)
    return ScmSpec(_variables(n), tuple(noises), parents, tables)


def random_dag(rng: np.random.Generator, n: int, parents_each: int = 2) -> ScmSpec:
    """Random binary DAG in topological order with random tables.

    Variable j draws min(j, parents_each) parents among the earlier ones and
    a random table over (parent atom, binary noise). The parent count is
    fixed so that compile time, which grows with it, does not vary by seed.
    """
    noises = []
    parents = []
    tables = []
    for j in range(n):
        k = min(j, parents_each)
        pa = tuple(sorted(int(p) for p in rng.choice(j, size=k, replace=False))) if k else ()
        parents.append(pa)
        noises.append(_coin(float(rng.uniform(0.1, 0.9))))
        tables.append(rng.integers(0, 2, size=(1 << k, 2)))
    return ScmSpec(_variables(n), tuple(noises), tuple(parents), tuple(tables))


def parity_with_fillers(rng: np.random.Generator, n: int) -> ScmSpec:
    """X2 = X0 XOR X1 XOR a rare flip; X3.. are independent filler coins.

    X0 and X1 are fair coins, so either one alone leaves P(X2 = 1) at one
    half: its effect on X2 is dormant until the other input is pinned.
    """
    fair = _coin(0.5)
    noises = [fair, fair, _coin(float(rng.uniform(0.0, 0.2)))]
    noises += [_coin(float(rng.uniform(0.2, 0.8))) for _ in range(3, n)]
    parity = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    parents = ((), (), (0, 1)) + ((),) * (n - 3)
    tables = (COPY, COPY, parity) + (COPY,) * (n - 3)
    return ScmSpec(_variables(n), tuple(noises), parents, tables)


def po_setup(rng: np.random.Generator) -> PoSpec:
    """Random joint law over treatment, covariate and potential outcomes."""
    nz = int(rng.integers(2, 4))
    ny = int(rng.integers(2, 4))
    nx = int(rng.integers(1, 4))
    joint = rng.dirichlet(np.ones(nz * nx * ny**nz))
    return PoSpec(
        tuple(f"z{i}" for i in range(nz)),
        tuple(str(i) for i in range(ny)),
        joint,
        tuple(f"x{i}" for i in range(nx)),
    )


def grid_pins(rng: np.random.Generator, steps: int, count: int) -> list[tuple[int, np.ndarray]]:
    """Distinct masks of 1 to 3 pinned grid times, with values in ascending time order."""
    out = []
    seen = set()
    while len(out) < count:
        k = int(rng.integers(1, 4))
        idx = np.sort(rng.choice(steps, size=k, replace=False))
        mask = sum(1 << int(i) for i in idx)
        if mask in seen:
            continue
        seen.add(mask)
        out.append((mask, rng.normal(0.0, 1.0, size=k)))
    return out
