"""The paper's identities on the benchmark's model families at n = 6..10.

The theorem pool in theorem_checks stops at four components. Here the
binary XOR chains, random DAGs and parity-with-filler models that perfbench
runs are compiled at six to ten variables, and these identities are
checked:

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
    n = 7, 8 and on random_causal_space;
  * at n = 9 and 10, two verdicts that the model's graph fixes without
    reading a kernel: no effect from outside the event's ancestral closure,
    and a global source at every U that holds its own ancestors.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from causalspaces.compilers import compile_scm, truncated_factorization_oracle
from causalspaces.core import InterventionSpec, intervene, intervene_hard, trivial_internal, validate_causal_space
from causalspaces import effects
from causalspaces.effects import EffectClass, classify_effect, classify_effect_on_subset, is_global_source
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


def _ancestral_closure(s, mask):
    """mask and every ancestor of its variables (parents come first in the model)."""
    for j in reversed(range(len(s.parents))):
        if mask >> j & 1:
            for p in s.parents[j]:
                mask |= 1 << p
    return mask


def _outside_closure_cases(s, fam, n):
    """(event variable, U) mask pairs with U outside the variable's ancestral closure.

    A random U almost always meets the closure, so each event on one early
    variable is paired with all of the rest, its lowest variable and a
    seeded subset of it.
    """
    full = (1 << n) - 1
    rng = np.random.default_rng([19, n, list(FAMILIES).index(fam)])
    cases = []
    for v in sorted({0, 2, *rng.integers(n, size=2).tolist()}):
        rest = full & ~_ancestral_closure(s, 1 << v)
        seeded = rest & int(rng.integers(1, full + 1)) or rest
        cases += [(1 << v, u) for u in sorted({rest, rest & -rest, seeded} - {0})]
    return cases


def _none_misses(cs, cases):
    """The cases where classify_effect does not call U's effect on {X_v = 1} NONE."""
    events = ((Event(cs.space, v, [False, True]), u) for v, u in cases)
    return [(a.domain, u, got) for a, u in events if (got := classify_effect(cs, u, a)) is not EffectClass.NONE]


ORACLE_MODELS = [(fam, n) for n in (9, 10) for fam in FAMILIES]


@pytest.mark.parametrize("fam,n", ORACLE_MODELS, ids=[f"{f}{n}" for f, n in ORACLE_MODELS])
def test_effect_verdicts_agree_with_the_graph(fam, n):
    """Two verdicts that the model's graph fixes without reading a kernel.

    Let D* be the event's domain and all its ancestors. K_S(w, A) depends on
    w only through S meet D*, so a U that misses D* has no effect on A. A U
    that holds all its own ancestors is a global source: summing out the
    other variables in reverse topological order leaves
    P(x_rest | x_U) = prod_{t not in U} P(x_t | pa_t), which is K_U's law.
    Both checks are one-sided. They catch a scan that reports an effect it
    should not (see the mutant below), but not a missed effect: a U inside
    D* may still have none, since parity can cancel a path.
    """
    s = _model(fam, n)
    cs = compile_scm(s)
    cases = _outside_closure_cases(s, fam, n)
    misses = _none_misses(cs, cases)
    assert cases and not misses, (fam, n, misses)
    rng = np.random.default_rng([23, n, list(FAMILIES).index(fam)])
    for picks in ([n // 2], [2], rng.choice(n, size=2, replace=False).tolist()):
        u = _ancestral_closure(s, sum(1 << t for t in picks))
        assert is_global_source(cs, u), (fam, n, u)


def test_the_graph_check_catches_a_scan_that_reports_a_false_effect(monkeypatch):
    # the scan with its projection dropped: row i of K_big meets row
    # i mod |small| of K_small, so unrelated rows are compared
    def misaligned(cs, pairs, read, tol):
        for big, small in pairs:
            vb, vs = read(cs.mechanism[big]), read(cs.mechanism[small])
            if np.abs(vb - vs[np.arange(len(vb)) % len(vs)]).max() > tol:
                return big, 0
        return None

    s = _model("chain", 9)
    cs = compile_scm(s)
    cases = _outside_closure_cases(s, "chain", 9)
    assert not _none_misses(cs, cases)
    monkeypatch.setattr(effects, "_first_disagreement", misaligned)
    assert _none_misses(cs, cases)
