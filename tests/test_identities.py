"""The paper's identities on the benchmark's model families at n = 6..8.

The theorem pool in theorem_checks stops at four components. Here the
binary XOR chains, random DAGs and parity-with-filler models that perfbench
runs are compiled at six to eight variables, and three identities are
checked on each:

  * each row of every compiled kernel is truncated_factorization_oracle
    clamped at that row's atom (the independent plain-Python oracle) to 2n
    ulps relative, with the oracle's zeros exactly: every row up to n = 7, and at n = 8 the first, the last and two seeded rows
    of each kernel, since the oracle's 6561 calls there would take about
    ten seconds per model;
  * hard interventions equal generic ones through trivial_internal on the
    measure and on every kernel;
  * the compiled space passes validate_causal_space;
  * U's effect on the algebra of V (classify_effect_on_subset, which reads
    every row's marginal on V) is the strongest of its effects on V's atom
    events (classify_effect, one event at a time), on these models at
    n = 7, 8 and on random_causal_space.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from causalspaces.compilers import compile_scm, truncated_factorization_oracle
from causalspaces.core import InterventionSpec, intervene, intervene_hard, trivial_internal, validate_causal_space
from causalspaces.effects import EffectClass, classify_effect, classify_effect_on_subset
from causalspaces.harness import KERNEL_STYLES, RandomSpaceConfig, random_causal_space
from causalspaces.measure import Atom, Dist, Event

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import models  # noqa: E402  (perfbench's seeded model generators)

FAMILIES = {"chain": models.xor_chain, "dag": models.random_dag, "parity": models.parity_with_fillers}
EPS = np.finfo(np.float64).eps
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
            np.testing.assert_allclose(
                matrix[i], want.weights, rtol=2 * n * EPS, atol=0, err_msg=f"{fam}{n} mask {mask} row {i}"
            )


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


STRENGTH = [EffectClass.NONE, EffectClass.DORMANT, EffectClass.ACTIVE]


def _strongest_on_atoms(cs, u, v):
    n_v = cs.space.n_atoms_of(v)
    events = (Event(cs.space, v, np.arange(n_v) == i) for i in range(n_v))
    return max((classify_effect(cs, u, a) for a in events), key=STRENGTH.index)


def _subset_cases(n):
    """(U components, V components, the class where the model fixes it)."""
    none, dormant, active = EffectClass.NONE, EffectClass.DORMANT, EffectClass.ACTIVE
    return [
        ([n - 1], range(n - 1), {"chain": none}),
        ([0], [2], {"parity": dormant}),
        ([0], [1], {"chain": active, "parity": none}),
        ([0], [2, 3, 4], {"parity": dormant}),
        ([0, 1], [n - 1, n - 2], {}),
        ([1], [0, 3], {}),
        ([2], [n - 1], {}),
        ([1, 2], [0], {"chain": none}),
    ]


SUBSET_MODELS = [(fam, n) for n in (7, 8) for fam in FAMILIES]


@pytest.mark.parametrize("fam,n", SUBSET_MODELS, ids=[f"{f}{n}" for f, n in SUBSET_MODELS])
def test_subset_effect_is_the_strongest_atom_effect(fam, n):
    cs = compile_scm(_model(fam, n))
    for us, vs, fixed in _subset_cases(n):
        u = sum(1 << t for t in us)
        v = sum(1 << t for t in vs)
        got = classify_effect_on_subset(cs, u, v)
        assert got is _strongest_on_atoms(cs, u, v), (fam, n, u, v)
        assert got is fixed.get(fam, got), (fam, n, u, v)


@pytest.mark.parametrize("style", KERNEL_STYLES)
def test_subset_effect_is_the_strongest_atom_effect_on_random_spaces(style):
    rng = np.random.default_rng(17)
    for seed in range(12):
        cs = random_causal_space(RandomSpaceConfig(n_components=int(rng.integers(2, 5)), seed=seed, kernel_style=style))
        for _ in range(4):
            u, v = (int(x) for x in rng.integers(0, cs.space.full + 1, size=2))
            assert classify_effect_on_subset(cs, u, v) is _strongest_on_atoms(cs, u, v), (style, seed, u, v)
