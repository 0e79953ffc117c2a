"""Structural-model and potential-outcome compilation.

The central check is differential: the vectorised clamped-rerun kernels
against the plain-Python noise-enumeration oracle, which share no code.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalspaces import compilers
from causalspaces.compilers import (
    MaskEntry,
    NoiseTerm,
    PoSpec,
    ScmSpec,
    ScmVariable,
    ate,
    compile_po,
    compile_scm,
    scm_from_functions,
    table_from_function,
    truncated_factorization_oracle,
)
from causalspaces.core import intervene_hard, validate_causal_space
from causalspaces.effects import EffectClass, classify_effect, is_time_respecting
from causalspaces.errors import CycleError, DomainError
from causalspaces.harness import random_scm, xor_scm
from causalspaces.measure import Atom, condition, dirac, marginal, rectangle

B = ("0", "1")
COIN = NoiseTerm(B, (0.5, 0.5))
UNIT = NoiseTerm(("*",), (1.0,))


def flip_noise(p):
    return NoiseTerm(("keep", "flip"), (1.0 - p, p))


def copy_or_flip(parent):
    return lambda pa, n: pa[parent] if n == "keep" else ("1" if pa[parent] == "0" else "0")


def chain_scm(flip_y=0.2, flip_z=0.3):
    return scm_from_functions(
        [ScmVariable("X", B), ScmVariable("Y", B), ScmVariable("Z", B)],
        [COIN, flip_noise(flip_y), flip_noise(flip_z)],
        [(), (0,), (1,)],
        [lambda pa, n: n, copy_or_flip("X"), copy_or_flip("Y")],
    )


# ----------------------------------------------------------- validation


def test_cycle_is_rejected_with_trace():
    two = np.zeros((2, 1), dtype=int)
    with pytest.raises(CycleError) as exc:
        ScmSpec(
            (ScmVariable("A", B), ScmVariable("B", B)),
            (UNIT, UNIT),
            ((1,), (0,)),
            (two, two),
        )
    assert exc.value.trace[0] == exc.value.trace[-1]
    assert set(exc.value.trace) == {"A", "B"}


def test_long_cycle_is_found_without_recursion():
    # 1,500 variables in a ring: deeper than Python's default recursion limit
    d = 1500
    one = np.zeros((2, 1), dtype=int)
    with pytest.raises(CycleError) as exc:
        ScmSpec(
            tuple(ScmVariable(f"X{j}", B) for j in range(d)),
            (UNIT,) * d,
            ((d - 1,),) + tuple((j,) for j in range(d - 1)),
            (one,) * d,
        )
    assert exc.value.trace == [f"X{j}" for j in range(d)] + ["X0"]
    # X0 closes a cycle through X1 and one through X2: children go in index order
    with pytest.raises(CycleError) as exc:
        ScmSpec(
            tuple(ScmVariable(f"X{j}", B) for j in range(3)),
            (UNIT,) * 3,
            ((1, 2), (0,), (0,)),
            (np.zeros((4, 1), dtype=int), one, one),
        )
    assert exc.value.trace == ["X0", "X1", "X0"]


def test_forward_reference_without_cycle_is_rejected():
    with pytest.raises(CycleError, match="topological"):
        ScmSpec(
            (ScmVariable("A", B), ScmVariable("B", B), ScmVariable("C", B)),
            (UNIT, UNIT, UNIT),
            ((), (2,), ()),
            (np.zeros((1, 1), int), np.zeros((2, 1), int), np.zeros((1, 1), int)),
        )


def test_bad_tables_are_rejected():
    with pytest.raises(DomainError, match="shape"):
        ScmSpec(
            (ScmVariable("A", B),), (COIN,), ((),), (np.zeros((2, 2), int),)
        )
    with pytest.raises(DomainError, match="outcome range"):
        ScmSpec(
            (ScmVariable("A", B),), (COIN,), ((),), (np.full((1, 2), 7),)
        )
    with pytest.raises(DomainError, match="unique"):
        ScmSpec(
            (ScmVariable("A", B), ScmVariable("A", B)),
            (UNIT, UNIT),
            ((), ()),
            (np.zeros((1, 1), int), np.zeros((1, 1), int)),
        )


def test_table_from_function_is_row_major_over_listed_parents():
    variables = [
        ScmVariable("P0", ("a", "b")),
        ScmVariable("P1", ("x", "y", "z")),
        ScmVariable("T", tuple(f"{u}{v}" for u in "ab" for v in "xyz")),
    ]
    tab = table_from_function(
        variables, (0, 1), UNIT, lambda pa, n: pa["P0"] + pa["P1"]
    )
    assert tab.shape == (6, 1)
    # flat parent index = i0 * 3 + i1
    assert variables[2].outcomes[tab[0, 0]] == "ax"
    assert variables[2].outcomes[tab[2, 0]] == "az"
    assert variables[2].outcomes[tab[4, 0]] == "by"


# ---------------------------------------------------------- compilation


def test_single_bernoulli_variable():
    s = scm_from_functions(
        [ScmVariable("X", B)], [NoiseTerm(B, (0.7, 0.3))], [()], [lambda pa, n: n]
    )
    cs = compile_scm(s)
    assert validate_causal_space(cs).ok
    assert np.allclose(cs.observational.weights, [0.7, 0.3])
    assert np.array_equal(cs.mechanism[1].matrix, np.eye(2))


def test_xor_fixture_frozen_values():
    cs = compile_scm(xor_scm(0.1))
    # p(X=1, Y=1) = .5 * .9
    assert cs.observational.weights[3] == pytest.approx(0.45, abs=1e-15)
    y1 = rectangle(cs.space, {"Y": ["1"]})
    kx = cs.mechanism[cs.space.mask_of(["X"])]
    assert kx.row_values(y1)[1] == pytest.approx(0.9, abs=1e-15)
    # no back-causation: Y has no effect on any X-event
    x1 = rectangle(cs.space, {"X": ["1"]})
    assert classify_effect(cs, cs.space.mask_of(["Y"]), x1) is EffectClass.NONE


def test_compiled_chain_is_valid_and_time_respecting():
    cs = compile_scm(chain_scm())
    assert validate_causal_space(cs).ok
    slices = [cs.space.mask_of([n]) for n in ("X", "Y", "Z")]
    assert is_time_respecting(cs, slices)
    assert is_time_respecting(cs, [slices[0] | slices[1], slices[2]])
    assert not is_time_respecting(cs, list(reversed(slices)))


# --------------------------------------------------------------- oracle


def test_oracle_empty_do_is_observational():
    s = chain_scm()
    cs = compile_scm(s)
    d = truncated_factorization_oracle(s, {})
    assert np.allclose(d.weights, cs.observational.weights, atol=1e-15)


def test_oracle_unknown_names_rejected():
    with pytest.raises(DomainError):
        truncated_factorization_oracle(chain_scm(), {"Q": "1"})
    with pytest.raises(DomainError):
        truncated_factorization_oracle(chain_scm(), {"X": "nope"})


def test_oracle_xor_do_x():
    d = truncated_factorization_oracle(xor_scm(0.1), {"X": "1"})
    space = d.space
    y = marginal(d, space.mask_of(["Y"]))
    assert np.allclose(y.weights, [0.1, 0.9], atol=1e-15)


def test_oracle_chain_do_mid_keeps_upstream_marginal():
    s = chain_scm()
    cs = compile_scm(s)
    xm = cs.space.mask_of(["X"])
    for label in B:
        d = truncated_factorization_oracle(s, {"Y": label})
        assert np.allclose(
            marginal(d, xm).weights,
            marginal(cs.observational, xm).weights,
            atol=1e-12,
        )


def test_oracle_matches_kernel_path_on_random_models():
    for seed in range(25):
        s = random_scm(seed)
        cs = compile_scm(s)
        assert validate_causal_space(cs).ok, seed
        for j, var in enumerate(s.variables):
            u = cs.space.mask_of([var.name])
            for label in var.outcomes:
                want = truncated_factorization_oracle(s, {var.name: label})
                q = dirac(cs.space, cs.space.atom_from_labels({var.name: label}))
                got = intervene_hard(cs, u, q).observational
                assert np.abs(want.weights - got.weights).max() <= 1e-9, (seed, j, label)


def test_oracle_matches_multi_site_do():
    s = chain_scm()
    cs = compile_scm(s)
    u = cs.space.mask_of(["X", "Z"])
    at = cs.space.atom_from_labels({"X": "1", "Z": "0"})
    want = truncated_factorization_oracle(s, {"X": "1", "Z": "0"})
    got = intervene_hard(cs, u, dirac(cs.space, at)).observational
    assert np.abs(want.weights - got.weights).max() <= 1e-12


def chain6():
    """Six binary variables, each a noisy copy of the one before."""
    names = [f"X{j}" for j in range(6)]
    return scm_from_functions(
        [ScmVariable(name, B) for name in names],
        [COIN] + [flip_noise(0.1 + 0.05 * j) for j in range(1, 6)],
        [()] + [(j - 1,) for j in range(1, 6)],
        [lambda pa, n: n] + [copy_or_flip(names[j - 1]) for j in range(1, 6)],
    )


def random_tables_scm(seed, parents, n_out, n_noise):
    """Given parent sets, draw tables and noise weights from one seeded rng."""
    rng = np.random.default_rng(seed)
    outs = tuple(str(k) for k in range(n_out))
    variables = tuple(ScmVariable(f"X{j}", outs) for j in range(len(parents)))
    noises, tables = [], []
    for ps in parents:
        w = rng.dirichlet(np.ones(n_noise)) + 0.01
        noises.append(NoiseTerm(tuple(f"n{k}" for k in range(n_noise)), tuple(w / w.sum())))
        tables.append(rng.integers(0, n_out, size=(n_out ** len(ps), n_noise)))
    return ScmSpec(variables, tuple(noises), tuple(parents), tuple(tables))


@pytest.mark.parametrize(
    "make",
    [
        chain6,
        lambda: random_tables_scm(3, [(), (0,), (0, 1), (1, 2), (2, 3), (0, 4)], 2, 2),
        lambda: random_tables_scm(5, [(), (0,), (0, 1), (2,)], 3, 3),
    ],
    ids=["chain6", "dag6", "ternary4"],
)
def test_every_kernel_row_matches_oracle(make):
    """Each row is the oracle clamped at the row's atom, bit for bit: both
    multiply the noise weights in variable order and add the products in
    noise-grid order."""
    s = make()
    cs = compile_scm(s)
    space = cs.space
    for mask in range(1 << space.n):
        matrix = cs.mechanism[mask].matrix
        for i in range(matrix.shape[0]):
            want = truncated_factorization_oracle(s, space.labels_of(Atom(mask, i)))
            np.testing.assert_array_equal(matrix[i], want.weights)


def _chain(n):
    return [()] + [(j - 1,) for j in range(1, n)]


def test_compile_counts_its_peak(monkeypatch):
    """The bytes compile_scm asks the size rule about cover what it allocates."""
    asked = []
    check = compilers.check_fits
    monkeypatch.setattr(compilers, "check_fits", lambda nbytes, what: (asked.append(nbytes), check(nbytes, what)))
    s = random_tables_scm(0, _chain(6), 2, 6)  # 6^6 noise atoms
    tracemalloc.start()
    try:
        compile_scm(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asked and peak <= max(asked), (peak, asked)


def test_mechanism_is_stored_as_laws():
    cs = compile_scm(random_tables_scm(1, _chain(9), 2, 2))
    # 2^9 kernels of 2^9 float64 entries each: 8 * 4^9 bytes, where dense rows need 8 * 6^9
    assert sum(k.law.nbytes for k in cs.mechanism.kernels) == 2_097_152


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_models_compile_to_valid_spaces(seed):
    s = random_scm(seed)
    cs = compile_scm(s)
    assert validate_causal_space(cs).ok
    assert np.allclose(
        truncated_factorization_oracle(s, {}).weights,
        cs.observational.weights,
        atol=1e-12,
    )


# --------------------------------------------------------- potential outcomes


def frail_robust_po():
    """Potential outcomes fixed by a latent type; assignment is confounded.

    Robust units realise outcome 1 under both treatments, frail units 0;
    robust units are assigned treatment 1 with probability .8, frail .2.
    """
    j = np.zeros((2, 2, 2, 2))
    j[1, 1, 1, 1] = 0.4
    j[0, 1, 1, 1] = 0.1
    j[1, 0, 0, 0] = 0.1
    j[0, 0, 0, 0] = 0.4
    return PoSpec(
        treatments=B, outcomes=B, joint=j.reshape(-1), covariates=("frail", "robust")
    )


def test_po_rejects_malformed_joint():
    with pytest.raises(DomainError, match="weights"):
        PoSpec(treatments=B, outcomes=B, joint=np.full(5, 0.2))
    with pytest.raises(DomainError, match="nonempty"):
        PoSpec(treatments=(), outcomes=B, joint=np.ones(1))


def test_po_deterministic_unit_effect():
    j = np.zeros((2, 1, 2, 2))
    j[0, 0, 0, 1] = 0.5
    j[1, 0, 0, 1] = 0.5
    po = PoSpec(treatments=B, outcomes=B, joint=j.reshape(-1))
    cs, _ = compile_po(po)
    y1 = rectangle(cs.space, {"outcome": ["1"]})
    kz = cs.mechanism[cs.space.mask_of(["treatment"])]
    assert kz.row_values(y1)[0] == 0.0
    assert kz.row_values(y1)[1] == 1.0
    assert ate(po, "1", "0") == pytest.approx(1.0, abs=1e-15)
    assert ate(po, "1", "1") == 0.0


def test_po_confounded_fixture():
    po = frail_robust_po()
    cs, mask = compile_po(po)
    assert validate_causal_space(cs).ok
    space = cs.space
    # observational law couples realised outcome with the type
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = 0.4
    want[0, 1, 1] = 0.1
    want[1, 0, 0] = 0.1
    want[1, 1, 1] = 0.4
    assert np.array_equal(cs.observational.weights, want.reshape(-1))
    # the treatment row carries the unconditional potential-outcome law,
    # exactly, while conditioning tells a different story
    y1 = rectangle(space, {"outcome": ["1"]})
    kz = cs.mechanism[space.mask_of(["treatment"])]
    jr = po.shaped()
    law_y1 = jr.sum(axis=(0, 1, 2))  # law of the z=1 potential outcome
    assert kz.row_values(y1)[1] == law_y1[1] == 0.5
    observed = condition(cs.observational, space.atom_from_labels({"treatment": "1"}))
    assert y1.probability(observed) == pytest.approx(0.8, abs=1e-12)
    assert abs(kz.row_values(y1)[1] - y1.probability(observed)) > 0.05
    assert ate(po, "1", "0") == pytest.approx(0.0, abs=1e-15)
    # mandate/filler accounting
    assert mask.mandated == (MaskEntry(subset=(0,), scope="outcome-marginal"),)
    scopes = {e.scope for e in mask.filled}
    assert "covariate-factor" in scopes and "observational-conditional" in scopes


def test_po_single_treatment_mandate():
    # one treatment level: the mandated outcome marginal is the plain
    # outcome law, even when outcome and covariate are dependent
    j = np.zeros((1, 2, 2))
    j[0, 0, 0] = 0.6
    j[0, 1, 1] = 0.4
    po = PoSpec(treatments=("z",), outcomes=B, joint=j.reshape(-1), covariates=("a", "b"))
    cs, _ = compile_po(po)
    assert validate_causal_space(cs).ok
    y1 = rectangle(cs.space, {"outcome": ["1"]})
    kz = cs.mechanism[cs.space.mask_of(["treatment"])]
    assert kz.row_values(y1)[0] == pytest.approx(0.4, abs=1e-15)
    assert y1.probability(cs.observational) == pytest.approx(0.4, abs=1e-15)


def test_po_unassigned_treatment_falls_back_to_covariate_marginal():
    j = np.zeros((2, 2, 2, 2))
    j[0, 0, 0, 1] = 0.3   # all units assigned treatment 0
    j[0, 1, 1, 0] = 0.7
    po = PoSpec(treatments=B, outcomes=B, joint=j.reshape(-1), covariates=("a", "b"))
    cs, mask = compile_po(po)
    assert validate_causal_space(cs).ok
    fallback = [e for e in mask.filled if e.scope == "covariate-marginal-fallback"]
    assert fallback and fallback[0].rows == (1,)
    completions = [e for e in mask.filled if e.scope == "product-completion"]
    assert completions


def test_ate_scores():
    j = np.zeros((2, 1, 2, 2))
    j[0, 0, 0, 1] = 0.5
    j[1, 0, 1, 1] = 0.5
    po = PoSpec(treatments=B, outcomes=("lo", "hi"), joint=j.reshape(-1))
    with pytest.raises(DomainError, match="scores"):
        ate(po, "1", "0")
    assert ate(po, "1", "0", scores={"lo": 0.0, "hi": 10.0}) == pytest.approx(5.0)
    with pytest.raises(DomainError, match="treatment"):
        ate(po, "2", "0", scores={"lo": 0.0, "hi": 1.0})
