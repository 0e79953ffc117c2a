"""Effect classification, dormancy, sources, and covariate adjustment."""

import tracemalloc

import numpy as np
import pytest

from causalspaces import subsets
from causalspaces.compilers import NoiseTerm, ScmVariable, compile_scm, scm_from_functions
from causalspaces.core import validate_causal_space
from causalspaces.effects import (
    EffectClass,
    activate_dormant,
    adjustment_estimate,
    classify_effect,
    classify_effect_on_sigma,
    classify_effect_on_subset,
    has_no_effect_given,
    is_global_source,
    is_source,
    is_time_respecting,
    is_trivial_kernel,
)
from causalspaces.errors import ContractError, DomainError
from causalspaces.harness import (
    RandomSpaceConfig,
    KERNEL_STYLES,
    discretized_altitude_temperature,
    dormant_instances,
    ice_cream_shark,
    mutual_information,
    random_causal_space,
    random_scm,
    reversibility_counterexample,
    xor_scm,
)
from causalspaces.measure import (
    NORM_TOL,
    Atom,
    Dist,
    Event,
    bind,
    condition,
    dirac,
    marginal,
    rectangle,
)
from theorem_checks import random_event, suite_space

B = ("0", "1")
COIN = NoiseTerm(B, (0.5, 0.5))


def chain():
    """X -> Y -> Z, each edge a noisy copy."""
    def flip(parent):
        return lambda pa, n: pa[parent] if n == "keep" else ("1" if pa[parent] == "0" else "0")

    return compile_scm(
        scm_from_functions(
            [ScmVariable("X", B), ScmVariable("Y", B), ScmVariable("Z", B)],
            [COIN, NoiseTerm(("keep", "flip"), (0.8, 0.2)),
             NoiseTerm(("keep", "flip"), (0.7, 0.3))],
            [(), (0,), (1,)],
            [lambda pa, n: n, flip("X"), flip("Y")],
        )
    )


def triangle(randomized=False):
    """Confounder C drives both treatment T and outcome Y; T drives Y.

    randomized=True cuts the C -> T edge, making assignment exogenous.
    """
    table = {("1", "1"): 0.9, ("1", "0"): 0.5, ("0", "1"): 0.4, ("0", "0"): 0.1}
    lvls = tuple(str(i) for i in range(10))
    t_noise = COIN if randomized else NoiseTerm(("lo", "hi"), (0.8, 0.2))
    t_fn = (
        (lambda pa, n: n)
        if randomized
        else (lambda pa, n: "1" if (pa["C"] == "1") == (n == "lo") else "0")
    )
    return compile_scm(
        scm_from_functions(
            [ScmVariable("C", B), ScmVariable("T", B), ScmVariable("Y", B)],
            [COIN, t_noise, NoiseTerm(lvls, (0.1,) * 10)],
            [(), () if randomized else (0,), (0, 1)],
            [lambda pa, n: n, t_fn,
             lambda pa, n: "1" if int(n) < 10 * table[(pa["T"], pa["C"])] else "0"],
        )
    )


# -------------------------------------------------------- classification


def test_empty_subset_never_has_an_effect():
    cs = chain()
    assert classify_effect(cs, 0, rectangle(cs.space, {"Z": ["1"]})) is EffectClass.NONE
    assert classify_effect_on_subset(cs, 0, cs.space.full) is EffectClass.NONE


def test_nontrivial_own_event_is_active():
    ic = ice_cream_shark()
    a = rectangle(ic.space, {"icecream": ["high"]})
    assert classify_effect(ic, ic.space.mask_of(["icecream"]), a) is EffectClass.ACTIVE
    assert classify_effect_on_subset(ic, 0b01, 0b01) is EffectClass.ACTIVE


def test_chain_transmits_downstream_only():
    cs = chain()
    x, z = cs.space.mask_of(["X"]), cs.space.mask_of(["Z"])
    assert classify_effect(cs, x, rectangle(cs.space, {"Z": ["1"]})) is EffectClass.ACTIVE
    assert classify_effect_on_subset(cs, x, z) is EffectClass.ACTIVE
    assert classify_effect_on_subset(cs, z, x) is EffectClass.NONE


def test_disconnected_variable_has_no_effect():
    cs = compile_scm(
        scm_from_functions(
            [ScmVariable("X", B), ScmVariable("Y", B), ScmVariable("W", B)],
            [COIN, NoiseTerm(("keep", "flip"), (0.9, 0.1)), COIN],
            [(), (0,), ()],
            [lambda pa, n: n,
             lambda pa, n: pa["X"] if n == "keep" else ("1" if pa["X"] == "0" else "0"),
             lambda pa, n: n],
        )
    )
    w = cs.space.mask_of(["W"])
    y1 = rectangle(cs.space, {"Y": ["1"]})
    assert classify_effect(cs, w, y1) is EffectClass.NONE
    assert classify_effect_on_subset(cs, cs.space.mask_of(["Y"]), w) is EffectClass.NONE


def test_parity_effect_is_dormant_until_activated():
    cs, u, a = dormant_instances(2)[0]
    assert classify_effect(cs, u, a) is EffectClass.DORMANT
    w = activate_dormant(cs, u, a)
    assert w.intervened == cs.space.mask_of(["X1"])
    assert w.activated == u
    assert w.atom.mask == cs.space.full
    assert classify_effect(w.after, u, a) is EffectClass.ACTIVE


def test_activation_witness_is_a_disagreeing_row():
    """X1 = 0 leaves Y a fair coin; X1 = 1 copies X0 and X1 = 2 negates it.

    X0's effect on Y is dormant, and only rows with X1 != 0 expose it, so
    the witness must not pin X1 to 0 (row 0 of the first disagreeing kernel).
    """
    def y(pa, n):
        if pa["X1"] == "0":
            return n
        return pa["X0"] if pa["X1"] == "1" else ("1" if pa["X0"] == "0" else "0")

    cs = compile_scm(
        scm_from_functions(
            [ScmVariable("X0", B), ScmVariable("X1", ("0", "1", "2")), ScmVariable("Y", B)],
            [COIN, NoiseTerm(("0", "1", "2"), (1 / 3, 1 / 3, 1 / 3)), COIN],
            [(), (), (0, 1)],
            [lambda pa, n: n, lambda pa, n: n, y],
        )
    )
    u, a = cs.space.mask_of(["X0"]), rectangle(cs.space, {"Y": ["1"]})
    assert classify_effect(cs, u, a) is EffectClass.DORMANT
    w = activate_dormant(cs, u, a)
    assert w.intervened == cs.space.mask_of(["X1"])
    assert cs.space.labels_of(w.atom)["X1"] != "0"
    assert classify_effect(w.after, u, a) is EffectClass.ACTIVE


def test_activation_requires_dormant_input():
    cs = chain()
    z1 = rectangle(cs.space, {"Z": ["1"]})
    x1 = rectangle(cs.space, {"X": ["1"]})
    # X moves Z (active); Z does not move X (no effect)
    for u, a, verdict in ((["X"], z1, EffectClass.ACTIVE), (["Z"], x1, EffectClass.NONE)):
        u = cs.space.mask_of(u)
        assert classify_effect(cs, u, a) is verdict
        with pytest.raises(ContractError):
            activate_dormant(cs, u, a)


def test_correlation_without_causation():
    ic = ice_cream_shark()
    mi = mutual_information(ic.observational, 0b01, 0b10)
    assert mi == pytest.approx(0.19274475702175753, abs=1e-12)
    assert mi > 0.01
    assert classify_effect_on_subset(ic, 0b01, 0b10) is EffectClass.NONE
    assert classify_effect_on_subset(ic, 0b10, 0b01) is EffectClass.NONE
    sharks_high = rectangle(ic.space, {"sharks": ["high"]})
    assert classify_effect(ic, 0b01, sharks_high) is EffectClass.NONE


def test_cyclic_fixture_is_active_both_ways():
    rw = reversibility_counterexample()
    assert classify_effect_on_subset(rw.cs, rw.u, rw.r) is EffectClass.ACTIVE
    assert classify_effect_on_subset(rw.cs, rw.r, rw.u) is EffectClass.ACTIVE
    assert not is_trivial_kernel(rw.cs, rw.r)


def test_trivial_kernels():
    ic = ice_cream_shark()
    assert is_trivial_kernel(ic, 0b01)
    assert is_trivial_kernel(ic, 0b10)
    assert is_trivial_kernel(ic, 0)
    cs = chain()
    assert not is_trivial_kernel(cs, cs.space.mask_of(["X"]))


def test_sigma_classification_reduces_to_essential_components():
    cs = chain()
    x = cs.space.mask_of(["X"])
    z1 = rectangle(cs.space, {"Z": ["1"]})
    # same event, stated redundantly on the whole space
    fat = Event(cs.space, cs.space.full, z1.indicator() > 0.5)
    assert classify_effect_on_sigma(cs, x, [fat]) is EffectClass.ACTIVE
    assert classify_effect_on_sigma(cs, x, []) is EffectClass.NONE
    both = classify_effect_on_sigma(cs, x, [fat, rectangle(cs.space, {"Y": ["0"]})])
    assert both is classify_effect_on_subset(cs, x, cs.space.mask_of(["Y", "Z"]))


# ---------------------------------------------------- conditional effect


def test_chain_effect_vanishes_given_the_mediator():
    cs = chain()
    x, y = cs.space.mask_of(["X"]), cs.space.mask_of(["Y"])
    z1 = rectangle(cs.space, {"Z": ["1"]})
    assert has_no_effect_given(cs, x, y, z1)
    # given nothing, the conditional notion collapses to the plain one
    assert not has_no_effect_given(cs, x, 0, z1)
    assert has_no_effect_given(cs, x, x, z1)
    ic = ice_cream_shark()
    a = rectangle(ic.space, {"sharks": ["high"]})
    assert has_no_effect_given(ic, 0b01, 0, a) == (
        classify_effect(ic, 0b01, a) is EffectClass.NONE
    )


def _no_effect_given_by_definition(cs, u, v, a, tol=1e-9):
    """Every subset S: the S|V kernel against the one forgetting U outside V."""
    ind = a.indicator()
    for s in subsets.all_masks(cs.space.n):
        big = s | v
        small = big & ~(u & ~v)
        proj = cs.space.atom_projection(big, small)
        diff = cs.mechanism[big].matrix @ ind - (cs.mechanism[small].matrix @ ind)[proj]
        if np.abs(diff).max() > tol:
            return False
    return True


def test_no_effect_given_matches_the_definition():
    seen = set()
    spaces = [compile_scm(random_scm(seed)) for seed in range(8)]
    spaces += [random_causal_space(RandomSpaceConfig(seed, 4)) for seed in range(2)]
    rng = np.random.default_rng(0)
    for cs in spaces:
        sp = cs.space
        for v in subsets.all_masks(sp.n):
            if subsets.size(v) < 2:
                continue
            for u in range(1, sp.full + 1):
                t = int(rng.integers(sp.n))
                name, outcomes = sp.components[t]
                a = rectangle(sp, {name: [outcomes[int(rng.integers(len(outcomes)))]]})
                got = has_no_effect_given(cs, u, v, a)
                assert got == _no_effect_given_by_definition(cs, u, v, a), (u, v)
                seen.add(got)
    assert seen == {True, False}


def test_time_partition_must_be_disjoint():
    cs = chain()
    x = cs.space.mask_of(["X"])
    with pytest.raises(DomainError):
        is_time_respecting(cs, [x, x])


# ---------------------------------------------------------------- sources


def test_altitude_fixture_source_asymmetry():
    at = discretized_altitude_temperature()
    alt, temp = at.space.mask_of(["altitude"]), at.space.mask_of(["temperature"])
    assert is_global_source(at, alt)
    assert not is_global_source(at, temp)
    assert classify_effect_on_subset(at, temp, alt) is EffectClass.NONE


def test_conditional_mechanism_makes_every_subset_a_source():
    cs = random_causal_space(RandomSpaceConfig(seed=11, kernel_style="conditional"))
    for s in subsets.all_masks(cs.space.n):
        assert is_global_source(cs, s), bin(s)


def test_triangle_sources():
    tcs = triangle()
    c, t = tcs.space.mask_of(["C"]), tcs.space.mask_of(["T"])
    y1 = rectangle(tcs.space, {"Y": ["1"]})
    assert is_global_source(tcs, c)
    assert not is_global_source(tcs, t)
    assert is_source(tcs, c | t, y1)
    assert not is_source(tcs, t, y1)


def test_source_check_skips_null_atoms():
    def cause_and_copy(c_noise):
        return compile_scm(
            scm_from_functions(
                [ScmVariable("C", B), ScmVariable("Y", B)],
                [c_noise, NoiseTerm(("keep", "flip"), (0.75, 0.25))],
                [(), (0,)],
                [lambda pa, n: n,
                 lambda pa, n: pa["C"] if n == "keep" else ("1" if pa["C"] == "0" else "0")],
            )
        )

    # C is surely "1"; the kernel row at the impossible C=0 atom is
    # unconstrained and must not affect the verdict
    cs = cause_and_copy(NoiseTerm(("1",), (1.0,)))
    c = cs.space.mask_of(["C"])
    assert is_global_source(cs, c)
    assert is_source(cs, c, rectangle(cs.space, {"Y": ["1"]}))
    # C=0 has mass 1e-10: below tol=1e-12 it is compared, so its row of the
    # conditional must be divided out like any other
    rare = cause_and_copy(NoiseTerm(B, (1e-10, 1.0 - 1e-10)))
    assert is_global_source(rare, c, tol=1e-12)
    assert is_source(rare, c, rectangle(rare.space, {"Y": ["1"]}), tol=1e-12)


def _is_source_by_definition(cs, u, a):
    """is_source from the definition: each positive-mass atom conditioned on alone."""
    p = cs.observational
    masses = marginal(p, u).weights
    k = cs.mechanism[u].row_values(a)
    return all(
        abs(k[i] - a.probability(condition(p, Atom(u, i)))) <= NORM_TOL
        for i in range(len(masses))
        if masses[i] > NORM_TOL
    )


def test_is_source_matches_the_definition_on_the_theorem_pool():
    verdicts = set()
    for seed in range(200):
        cs = suite_space(seed)
        rng = np.random.default_rng(seed)
        events = [random_event(cs.space, rng) for _ in range(3)]
        for u in subsets.all_masks(cs.space.n):
            for a in events:
                got = is_source(cs, u, a)
                assert got == _is_source_by_definition(cs, u, a), (seed, bin(u))
                verdicts.add(got)
    assert verdicts == {True, False}


def test_global_source_is_a_source_of_every_atom_event():
    verdicts = set()
    for seed in range(200):
        cs = suite_space(seed)
        space = cs.space
        atoms = [Event(space, space.full, np.arange(space.n_atoms) == i) for i in range(space.n_atoms)]
        for u in subsets.all_masks(space.n):
            got = is_global_source(cs, u)
            assert got == all(is_source(cs, u, a) for a in atoms), (seed, bin(u))
            verdicts.add(got)
    assert verdicts == {True, False}


def test_global_source_holds_no_dense_table():
    # an 8-variable noisy-copy chain: a (256 x 256) float table would be 512 KB
    flip = NoiseTerm(("keep", "flip"), (0.8, 0.2))
    names = [f"X{j}" for j in range(8)]
    cs = compile_scm(
        scm_from_functions(
            [ScmVariable(x, B) for x in names],
            [COIN] + [flip] * 7,
            [()] + [(j,) for j in range(7)],
            [lambda pa, n: n]
            + [lambda pa, n, x=x: pa[x] if n == "keep" else "01"[pa[x] == "0"] for x in names[:-1]],
        )
    )
    for u, want in ((0b1, True), (0b10, False), (0b1111, True), (0b11110000, False)):
        tracemalloc.start()
        try:
            got = is_global_source(cs, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is want and peak < 64 * 1024, (u, got, peak)


# ------------------------------------------------------------- adjustment


def test_backdoor_adjustment_recovers_the_interventional_value():
    tcs = triangle()
    t, c = tcs.space.mask_of(["T"]), tcs.space.mask_of(["C"])
    q = dirac(tcs.space, tcs.space.atom_from_labels({"T": "1"}))
    y1 = rectangle(tcs.space, {"Y": ["1"]})
    truth = float(bind(q, tcs.mechanism[t]).weights @ y1.indicator())
    assert truth == pytest.approx(0.7, abs=1e-12)

    res = adjustment_estimate(tcs, t, c, q, y1)
    assert res.trusted and res.consistent and res.case == "no-effect"
    assert res.estimate == pytest.approx(truth, abs=1e-9)

    # skipping the confounder yields the biased conditional, and says so
    naive = adjustment_estimate(tcs, t, 0, q, y1)
    assert naive.estimate == pytest.approx(0.82, abs=1e-12)
    assert not naive.trusted and not naive.consistent
    assert any("disagrees" in n for n in naive.notes)
    assert abs(naive.estimate - truth) > 0.1


def test_randomized_assignment_is_a_local_source():
    tcs = triangle(randomized=True)
    t, c = tcs.space.mask_of(["T"]), tcs.space.mask_of(["C"])
    q = dirac(tcs.space, tcs.space.atom_from_labels({"T": "1"}))
    y1 = rectangle(tcs.space, {"Y": ["1"]})
    truth = float(bind(q, tcs.mechanism[t]).weights @ y1.indicator())
    res = adjustment_estimate(tcs, t, c, q, y1)
    assert res.case == "local-source"
    assert res.trusted
    assert res.estimate == pytest.approx(truth, abs=1e-9)


def test_adjusting_over_part_of_the_intervened_subset():
    # with exogenous assignment the degenerate adjustment set V = U works
    rcs = triangle(randomized=True)
    t = rcs.space.mask_of(["T"])
    q = Dist(rcs.space, t, np.array([0.3, 0.7]))
    y1 = rectangle(rcs.space, {"Y": ["1"]})
    truth = float(bind(q, rcs.mechanism[t]).weights @ y1.indicator())
    res = adjustment_estimate(rcs, t, t, q, y1)
    assert res.trusted
    assert res.case in ("local-source", "contained")
    assert res.estimate == pytest.approx(truth, abs=1e-9)
    # under confounding the same V = U is rightly rejected: conditioning on
    # the treatment is not the same as setting it
    tcs = triangle()
    res = adjustment_estimate(tcs, t, t, Dist(tcs.space, t, np.array([0.3, 0.7])), y1)
    assert not res.consistent and not res.trusted


def test_inconsistent_kernels_are_flagged():
    # the cyclic fixture's kernels are nothing like its conditionals
    rw = reversibility_counterexample()
    a = rw.event
    res = adjustment_estimate(rw.cs, rw.u, 0, rw.q_on_u, a)
    truth = float(bind(rw.q_on_u, rw.cs.mechanism[rw.u]).weights @ a.indicator())
    assert not res.consistent and not res.trusted
    assert abs(res.estimate - truth) > 0.1


def _two_variable_scm(x_noise, y_noise, y_fn):
    """X is its noise; Y = y_fn(X, its noise)."""
    return compile_scm(
        scm_from_functions(
            [ScmVariable("X", B), ScmVariable("Y", B)],
            [x_noise, y_noise],
            [(), (0,)],
            [lambda pa, n: n, y_fn],
        )
    )


def test_adjustment_refuses_to_trust_mass_on_null_atoms():
    # Y := X, so do(Y) puts mass on (X, Y) pairs that never occur
    cs = _two_variable_scm(COIN, NoiseTerm(("keep",), (1.0,)), lambda pa, n: pa["X"])
    space = cs.space
    u, v = space.mask_of(["Y"]), space.mask_of(["X"])
    q = Dist(space, u, np.array([0.5, 0.5]))
    y1 = rectangle(space, {"Y": ["1"]})
    assert float(bind(q, cs.mechanism[u]).weights @ y1.indicator()) == pytest.approx(0.5)
    res = adjustment_estimate(cs, u, v, q, y1)
    assert res.estimate == pytest.approx(0.25, abs=1e-12)
    assert (res.case, res.trusted) == ("no-effect", False)
    assert res.notes == (
        "interventional mass sits on observationally null atoms",
        "event conditional undefined on a needed null atom",
    )


def test_adjustment_refuses_a_source_conditional_on_a_null_atom():
    # X is always 0, so the conditional given X = 1 is undefined
    cs = _two_variable_scm(
        NoiseTerm(("0",), (1.0,)), NoiseTerm(("keep", "flip"), (0.8, 0.2)),
        lambda pa, n: pa["X"] if n == "keep" else ("1" if pa["X"] == "0" else "0"),
    )
    space = cs.space
    u = space.mask_of(["X"])
    q = Dist(space, u, np.array([0.5, 0.5]))
    y1 = rectangle(space, {"Y": ["1"]})
    assert float(bind(q, cs.mechanism[u]).weights @ y1.indicator()) == pytest.approx(0.5)
    res = adjustment_estimate(cs, u, 0, q, y1)
    assert res.estimate == pytest.approx(0.1, abs=1e-12)
    assert (res.case, res.trusted) == ("local-source", False)
    assert res.notes == (
        "interventional mass sits on observationally null atoms",
        "conditional over V undefined on a needed null atom",
    )


def test_trusted_estimates_match_the_kernel_path():
    trusted_seen = 0
    for seed in range(120):
        cfg = RandomSpaceConfig(seed=seed, kernel_style=KERNEL_STYLES[seed % 3])
        cs = random_causal_space(cfg)
        rng = np.random.default_rng(seed + 5_000)
        full = cs.space.full
        u = int(rng.integers(1, full + 1))
        v = int(rng.integers(0, full + 1))
        qw = rng.dirichlet(np.ones(cs.space.n_atoms_of(u)))
        q = Dist(cs.space, u, qw)
        a = Event(cs.space, full, rng.random(cs.space.n_atoms) < 0.5)
        res = adjustment_estimate(cs, u, v, q, a)
        truth = float(bind(q, cs.mechanism[u]).weights @ a.indicator())
        assert -1e-9 <= res.estimate <= 1 + 1e-9
        if res.trusted:
            trusted_seen += 1
            assert abs(res.estimate - truth) <= 1e-7, (seed, res)
        elif not res.consistent or res.case is None:
            assert res.notes
    assert trusted_seen >= 10


TOL_ENTRY_POINTS = {
    "validate_causal_space": lambda cs, x, y, tol: validate_causal_space(cs, tol=tol),
    "classify_effect": lambda cs, x, y, tol: classify_effect(cs, x, y, tol),
    "classify_effect_on_subset": lambda cs, x, y, tol: classify_effect_on_subset(cs, x, 0b10, tol),
    "classify_effect_on_sigma": lambda cs, x, y, tol: classify_effect_on_sigma(cs, x, [y], tol),
    "has_no_effect_given": lambda cs, x, y, tol: has_no_effect_given(cs, x, 0, y, tol),
    "is_trivial_kernel": lambda cs, x, y, tol: is_trivial_kernel(cs, x, tol),
    "is_time_respecting": lambda cs, x, y, tol: is_time_respecting(cs, [x, 0b10], tol),
    "is_source": lambda cs, x, y, tol: is_source(cs, x, y, tol),
    "is_global_source": lambda cs, x, y, tol: is_global_source(cs, x, tol),
    "activate_dormant": lambda cs, x, y, tol: activate_dormant(cs, x, y, tol),
    "adjustment_estimate": lambda cs, x, y, tol: adjustment_estimate(
        cs, x, 0, Dist(cs.space, x, [0.5, 0.5]), y, tol
    ),
}


@pytest.mark.parametrize(
    "tol", [float("nan"), float("inf"), -1e-9], ids=["nan", "inf", "negative"]
)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_bad_tol_is_rejected(entry, tol):
    cs = compile_scm(xor_scm())
    x, y = 0b01, rectangle(cs.space, {"Y": ["1"]})
    assert classify_effect(cs, x, y) is EffectClass.ACTIVE
    with pytest.raises(DomainError, match="tol"):
        TOL_ENTRY_POINTS[entry](cs, x, y, tol)
