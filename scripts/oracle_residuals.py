#!/usr/bin/env python3
"""Residual ledger: compiled kernel rows against the plain-Python oracle.

For perfbench's chain, DAG and parity models at n = 3..10 (seeded as in
tests/test_identities.py), compile_scm's rows are compared with
truncated_factorization_oracle clamped at each row's atom. Up to n = 7 every
row is read; above that, the first, the last and two seeded rows of each
kernel, as the tests sample them. Prints, per family and n, the largest
relative residual over the oracle's nonzero cells in units of float64 eps,
and the count of cells that are zero on one side only. Exits 1 when any
residual passes the tests' bound of 2n eps or any zero pattern differs.
The models run in two worker processes (about a minute on 2 vCPUs).

    PYTHONPATH=src python3 scripts/oracle_residuals.py
"""

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from causalspaces.compilers import compile_scm, truncated_factorization_oracle
from causalspaces.measure import Atom

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import models  # noqa: E402  (perfbench's seeded model generators)

EPS = np.finfo(np.float64).eps
FAMILIES = {"chain": models.xor_chain, "dag": models.random_dag, "parity": models.parity_with_fillers}


def residuals(fam: str, n: int) -> tuple[float, int]:
    """Largest relative residual in eps, and the zero-pattern mismatches."""
    s = FAMILIES[fam](np.random.default_rng([11, n, list(FAMILIES).index(fam)]), n)
    cs = compile_scm(s)
    rng = np.random.default_rng([13, n])
    worst, mismatched = 0.0, 0
    for mask in range(1 << n):
        matrix = cs.mechanism[mask].matrix
        rows = range(len(matrix))
        if n > 7:
            rows = sorted({0, len(matrix) - 1, *rng.integers(len(matrix), size=2).tolist()})
        for i in rows:
            want = truncated_factorization_oracle(s, cs.space.labels_of(Atom(mask, i))).weights
            got = matrix[i]
            mismatched += int(np.count_nonzero((want == 0) != (got == 0)))
            on = want != 0
            if on.any():
                worst = max(worst, float((np.abs(got[on] - want[on]) / want[on]).max() / EPS))
    return worst, mismatched


def main() -> int:
    cases = [(fam, n) for fam in FAMILIES for n in range(3, 11)]
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(residuals, *zip(*cases)))
    ok = True
    print(f"{'model':<8}{'n':>3}{'max rel (eps)':>15}{'bound':>7}{'zero mismatches':>17}")
    for (fam, n), (worst, mismatched) in zip(cases, results):
        ok &= worst <= 2 * n and mismatched == 0
        print(f"{fam:<8}{n:>3}{worst:>15.2f}{2 * n:>7}{mismatched:>17}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
