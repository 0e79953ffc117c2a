"""The paper's identities on the benchmark's model families at n = 6..8.

The theorem pool in theorem_checks stops at four components. Here the
binary XOR chains, random DAGs and parity-with-filler models that perfbench
runs are compiled at six to eight variables, and three identities are
checked on each:

  * each row of every compiled kernel is truncated_factorization_oracle
    clamped at that row's atom (the independent plain-Python oracle): every
    row up to n = 7, and at n = 8 the first, the last and two seeded rows
    of each kernel, since the oracle's 6561 calls there would take about
    ten seconds per model;
  * hard interventions equal generic ones through trivial_internal on the
    measure and on every kernel;
  * the compiled space passes validate_causal_space.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from causalspaces.compilers import compile_scm, truncated_factorization_oracle
from causalspaces.core import InterventionSpec, intervene, intervene_hard, trivial_internal, validate_causal_space
from causalspaces.measure import Atom, Dist

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import models  # noqa: E402  (perfbench's seeded model generators)

FAMILIES = {"chain": models.xor_chain, "dag": models.random_dag, "parity": models.parity_with_fillers}
CASES = [(fam, n) for n in (6, 7, 8) for fam in FAMILIES]


def _model(fam, n):
    return FAMILIES[fam](np.random.default_rng([11, n, list(FAMILIES).index(fam)]), n)


@pytest.mark.parametrize("fam,n", CASES, ids=[f"{f}{n}" for f, n in CASES])
def test_compiled_rows_are_the_clamped_oracle(fam, n):
    s = _model(fam, n)
    cs = compile_scm(s)
    space = cs.space
    assert validate_causal_space(cs).ok
    rng = np.random.default_rng([13, n])
    for mask in range(1 << n):
        matrix = cs.mechanism[mask].matrix
        rows = range(len(matrix))
        if n == 8:
            rows = sorted({0, len(matrix) - 1, *rng.integers(len(matrix), size=2).tolist()})
        for i in rows:
            want = truncated_factorization_oracle(s, space.labels_of(Atom(mask, i)))
            np.testing.assert_array_equal(matrix[i], want.weights, err_msg=f"{fam}{n} mask {mask} row {i}")


@pytest.mark.parametrize("fam,n", CASES, ids=[f"{f}{n}" for f, n in CASES])
def test_hard_is_generic_through_trivial_internal(fam, n):
    cs = compile_scm(_model(fam, n))
    rng = np.random.default_rng([12, n])
    for comps in ([0], [n - 1], [1, 3], [0, 2, n - 1]):
        u = sum(1 << t for t in comps)
        q = Dist(cs.space, u, rng.dirichlet(np.ones(1 << len(comps))))
        hard = intervene_hard(cs, u, q)
        generic = intervene(cs, InterventionSpec(u, q, trivial_internal(cs.space, u, q)))
        assert np.abs(hard.observational.weights - generic.observational.weights).max() <= 1e-12
        for mask in range(1 << n):
            err = np.abs(hard.mechanism[mask].matrix - generic.mechanism[mask].matrix).max()
            assert err <= 1e-12, (fam, n, comps, mask)
        assert validate_causal_space(hard).ok
