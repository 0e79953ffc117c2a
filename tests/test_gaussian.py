"""Closed-form Gaussian kernels, checked against Schur algebra and sampling."""

import numpy as np
import pytest

from causalspaces.errors import DomainError, SingularBlockError
from causalspaces.gaussian import (
    Gaussian,
    GaussianKernel,
    GaussianSpace,
    altitude_temperature,
    brownian_grid,
    conditional_gaussian_kernel,
    g_condition,
    g_dirac,
    g_intervene,
    rice_market,
    sample_intervention,
)


def random_space(seed: int, n: int = 4) -> GaussianSpace:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    cov = a @ a.T + 0.1 * np.eye(n)
    return GaussianSpace(tuple(f"x{i}" for i in range(n)), rng.normal(size=n), cov)


def test_measure_validation():
    with pytest.raises(DomainError, match="symmetric"):
        Gaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(DomainError, match="eigenvalue"):
        Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DomainError):
        Gaussian([0.0, 0.0, 0.0], [[1.0]])
    # an eigenvalue at -1e-11 is rounding debris, not a modelling error
    c = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-11]])
    g = Gaussian([0.0, 0.0], c)
    assert np.linalg.eigvalsh(g.cov).min() >= 0.0


@pytest.mark.parametrize(
    "mean, cov",
    [([np.nan], [[1.0]]), ([np.inf], [[1.0]]), ([0.0], [[np.nan]]), ([0.0], [[np.inf]])],
    ids=["nan-mean", "inf-mean", "nan-cov", "inf-cov"],
)
def test_measure_rejects_non_finite_entries(mean, cov):
    with pytest.raises(DomainError, match="non-finite"):
        Gaussian(mean, cov)


def test_measure_rejects_a_covariance_that_overflows():
    # finite entries whose symmetrised mean overflows
    with pytest.raises(DomainError, match="overflows when symmetrised"):
        Gaussian([0.0, 0.0], [[1.5e308, 0.0], [0.0, 1.5e308]])
    # a finite symmetric matrix whose largest eigenvalue, 1.9e308, is beyond float range
    with pytest.raises(DomainError, match="eigenvalue beyond float range"):
        Gaussian(np.zeros(3), 1e307 * np.eye(3) + 6e307 * np.ones((3, 3)))


@pytest.mark.parametrize(
    "source, coeff, offset, noise",
    [
        (0, np.zeros((1, 0)), [np.nan], [[1.0]]),
        (0, np.zeros((1, 0)), [0.0], [[np.inf]]),
        (0b01, [[1.0], [np.nan]], [0.0, 0.0], np.zeros((2, 2))),
    ],
    ids=["nan-offset", "inf-noise", "nan-coeff"],
)
def test_kernel_rejects_non_finite_entries(source, coeff, offset, noise):
    with pytest.raises(DomainError, match="non-finite"):
        GaussianKernel(source, coeff, offset, noise)


def test_intervention_rejects_non_finite_pin():
    with pytest.raises(DomainError, match="non-finite"):
        g_intervene(altitude_temperature(), 0b01, [np.nan])


def test_kernel_determinism_is_enforced():
    with pytest.raises(DomainError, match="deterministic"):
        GaussianKernel(0b01, [[0.9], [0.3]], [0.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(DomainError, match="deterministic"):
        GaussianKernel(0b01, [[1.0], [0.3]], [1e-6, 0.0], np.zeros((2, 2)))
    with pytest.raises(DomainError, match="deterministic"):
        GaussianKernel(0b01, [[1.0], [0.3]], [0.0, 0.0], [[1e-6, 0.0], [0.0, 1.0]])
    k = GaussianKernel(
        0b01, [[1.0 - 1e-13], [0.3]], [1e-13, 0.0], [[1e-13, 0.0], [0.0, 1.0]]
    )
    assert k.coeff[0, 0] == 1.0
    assert k.offset[0] == 0.0
    assert k.noise_cov[0, 0] == 0.0


def test_kernel_shape_errors():
    with pytest.raises(DomainError, match="coeff shape"):
        GaussianKernel(0b01, np.zeros((2, 2)), [0.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(DomainError, match="source mask"):
        GaussianKernel(0b100, np.zeros((2, 1)), [0.0, 0.0], np.zeros((2, 2)))
    k = altitude_temperature().kernel(0b01)
    with pytest.raises(DomainError, match="coordinates"):
        k.push(g_dirac([1.0, 2.0]))


def test_space_resolves_trivial_subsets():
    gs = random_space(0)
    empty = gs.kernel(0).push(Gaussian(np.zeros(0), np.zeros((0, 0))))
    assert np.array_equal(empty.mean, gs.mean)
    assert np.array_equal(empty.cov, gs.cov)
    ident = gs.kernel(gs.full).push(gs.observational())
    assert np.allclose(ident.cov, gs.cov)
    with pytest.raises(DomainError, match="no kernel stored"):
        gs.kernel(0b0101)
    with pytest.raises(DomainError, match="outside"):
        gs.kernel(1 << 9)


def test_space_leaves_its_callers_kernels_unchanged():
    k = altitude_temperature().kernel(0b01)
    stored = {0b01: k}
    gs = GaussianSpace(("altitude", "temperature"), [0.0, 0.0], np.eye(2), stored.get)
    assert gs.kernel(0b01) is k
    gs.kernel(0)
    gs.kernel(0b11)
    with pytest.raises(DomainError, match="no kernel stored"):
        gs.kernel(0b10)
    assert stored == {0b01: k}


def test_space_refuses_a_kernel_of_another_subset_or_size():
    at = altitude_temperature()
    # unchecked, the temperature kernel asked for as altitude's reads altitude
    # as temperature: mean (1000, 1000) for altitude pinned at 1000
    swapped = GaussianSpace(at.names, at.mean, at.cov, lambda mask: at.kernel(mask ^ 0b11))
    with pytest.raises(DomainError, match="source 0b10"):
        g_intervene(swapped, 0b01, [1000.0])
    # unchecked, a 3-coordinate kernel gives a 3-coordinate mean, [5, 5, 5]
    wide = GaussianKernel(0b01, np.ones((3, 1)), np.zeros(3), np.zeros((3, 3)))
    three = GaussianSpace(at.names, at.mean, at.cov, lambda mask: wide)
    with pytest.raises(DomainError, match="over 3 coordinates"):
        g_intervene(three, 0b01, [5.0])


MASKS_OUTSIDE = {
    "condition": lambda at: g_condition(at, 0b100, [1.0]),
    "conditional-kernel": lambda at: conditional_gaussian_kernel(at, 0b110),
    "condition-negative": lambda at: g_condition(at, -1, [1.0]),
    "kernel-negative": lambda at: at.kernel(-1),
    "kernel-source-negative": lambda at: GaussianKernel(-1, np.ones((2, 1)), np.zeros(2), np.zeros((2, 2))),
}


@pytest.mark.parametrize("case", list(MASKS_OUTSIDE))
def test_masks_outside_the_space_are_a_domain_error(case):
    # a negative mask has infinitely many bits, so it must be refused before any loop
    with pytest.raises(DomainError):
        MASKS_OUTSIDE[case](altitude_temperature())


def test_brownian_grid_builds_each_kernel_once():
    bg = brownian_grid(10, 1.0)
    assert bg.kernel(0b1010) is bg.kernel(0b1010)
    assert bg.kernel(0b1010) is not bg.kernel(0b0101)


def test_altitude_fixture_closed_forms():
    at = altitude_temperature()
    do_alt = g_intervene(at, 0b01, [1000.0])
    assert do_alt.mean[1] == 10.0
    assert do_alt.cov[1, 1] == 0.25
    assert do_alt.cov[0, 0] == 0.0
    assert g_intervene(at, 0b01, [1200.0]).mean[1] == 0.0

    # intervening on temperature never moves altitude off its marginal
    for q in ([5.0], Gaussian([0.0], [[2.0]]), [-7.0]):
        p = g_intervene(at, 0b10, q)
        assert p.mean[0] == 1000.0
        assert p.cov[0, 0] == 300.0
        assert p.cov[0, 1] == 0.0


def test_altitude_kernel_is_the_observational_conditional():
    at = altitude_temperature()
    ck = conditional_gaussian_kernel(at, 0b01)
    stored = at.kernel(0b01)
    assert np.allclose(ck.coeff, stored.coeff, atol=1e-12)
    assert np.allclose(ck.offset, stored.offset, atol=1e-12)
    assert np.allclose(ck.noise_cov, stored.noise_cov, atol=1e-12)
    cond = g_condition(at, 0b01, [1000.0])
    assert abs(cond.mean[1] - 10.0) <= 1e-12
    assert abs(cond.cov[1, 1] - 0.25) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_conditional_kernel_reproduces_the_joint(seed):
    gs = random_space(seed)
    for u in (0b0001, 0b0110, 0b1011, 0b1111):
        ck = conditional_gaussian_kernel(gs, u)
        idx = [i for i in range(gs.n) if u >> i & 1]
        back = ck.push(gs.observational().coordinates(idx))
        assert np.abs(back.mean - gs.mean).max() <= 1e-9
        assert np.abs(back.cov - gs.cov).max() <= 1e-9


def test_conditioning_requires_a_nonsingular_block():
    gs = GaussianSpace(
        ("a", "b"), [0.0, 1.0], [[0.0, 0.0], [0.0, 2.0]]
    )
    with pytest.raises(SingularBlockError):
        g_condition(gs, 0b01, [0.0])
    with pytest.raises(SingularBlockError):
        conditional_gaussian_kernel(gs, 0b01)
    # conditioning on nothing is the observational measure
    whole = g_condition(gs, 0, [])
    assert np.array_equal(whole.mean, gs.mean)
    assert np.array_equal(whole.cov, gs.cov)


def test_conditioning_tolerates_singular_off_block_coordinates():
    # a Dirac coordinate outside the conditioned block is fine
    gs = GaussianSpace(
        ("a", "b", "c"),
        [1.0, 0.0, 2.0],
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]],
    )
    cond = g_condition(gs, 0b100, [3.0])
    assert cond.mean[0] == 1.0
    assert cond.cov[0, 0] == 0.0
    assert abs(cond.cov[1, 1] - 0.75) <= 1e-12


def test_rice_market_cycle():
    rm = rice_market()
    supply = g_intervene(rm, rm.full >> 1, [3.0])
    assert np.array_equal(supply.mean, [3.0, 4.5])
    assert supply.cov[1, 1] == 0.25
    demand = g_intervene(rm, 0b10, [6.0])
    assert np.array_equal(demand.mean, [4.0, 6.0])
    assert demand.cov[0, 0] == 0.25

    # the cycle means kernels are genuinely not conditionals of the joint
    cond = g_condition(rm, 0b01, [3.0])
    assert abs(cond.mean[1] - supply.mean[1]) > 0.5


def test_brownian_grid_shapes_and_covariance():
    bg = brownian_grid(2, 1.0)
    assert bg.names == ("W(0.5)", "W(1)")
    assert np.array_equal(bg.cov, [[0.5, 0.5], [0.5, 1.0]])
    with pytest.raises(DomainError):
        brownian_grid(1)
    with pytest.raises(DomainError):
        brownian_grid(10, 0.0)


def test_brownian_variance_paths():
    bg = brownian_grid(100, 2.0)
    t = 2.0 * np.arange(1, 101) / 100
    at_one = 49
    assert t[at_one] == 1.0

    done = g_intervene(bg, 1 << at_one, [0.0])
    want = np.where(t < 1.0, t, t - 1.0)
    want[at_one] = 0.0
    assert np.abs(np.diag(done.cov) - want).max() <= 1e-8
    assert np.abs(done.mean).max() == 0.0

    seen = g_condition(bg, 1 << at_one, [0.0])
    bridge = t * (1.0 - t)
    assert np.abs(np.diag(seen.cov)[:at_one] - bridge[:at_one]).max() <= 1e-8

    # restarting from the pinned value severs past and future
    assert np.abs(done.cov[:at_one, at_one + 1 :]).max() == 0.0


def test_brownian_intervention_is_time_respecting():
    bg = brownian_grid(20, 1.0)
    mid = 9
    for q in ([0.7], Gaussian([0.3], [[0.5]])):
        p = g_intervene(bg, 1 << mid, q)
        assert np.abs(p.mean[:mid]).max() == 0.0
        assert np.abs(p.cov[:mid, :mid] - bg.cov[:mid, :mid]).max() == 0.0
        mean_target = q.mean[0] if isinstance(q, Gaussian) else q[0]
        assert np.allclose(p.mean[mid:], mean_target)


def test_brownian_multi_time_kernel_composes_markov_wise():
    bg = brownian_grid(10, 1.0)
    u = (1 << 2) | (1 << 6)  # times 0.3 and 0.7
    k = bg.kernel(u)
    t = np.arange(1, 11) / 10
    # between the two pinned times the path hangs off the first one
    assert np.array_equal(k.coeff[4], [1.0, 0.0])
    assert k.noise_cov[4, 4] == pytest.approx(t[4] - t[2])
    # after the second it hangs off the second, independently of the gap
    assert np.array_equal(k.coeff[8], [0.0, 1.0])
    assert k.noise_cov[8, 8] == pytest.approx(t[8] - t[6])
    assert k.noise_cov[4, 8] == 0.0
    # before both, the observational law survives untouched
    assert np.array_equal(k.coeff[0], [0.0, 0.0])
    assert k.noise_cov[0, 1] == pytest.approx(0.1)

    p = g_intervene(bg, u, [0.2, -0.4])
    assert p.mean[4] == pytest.approx(0.2)
    assert p.mean[8] == pytest.approx(-0.4)
    assert p.cov[4, 8] == 0.0


def _mc_check(gs, u, q, samples=100_000, seed=11):
    xs = sample_intervention(gs, u, q, samples, seed=seed)
    truth = g_intervene(gs, u, q)
    sd = np.sqrt(np.diag(truth.cov))
    mean_err = np.abs(xs.mean(axis=0) - truth.mean)
    assert (mean_err <= 4.0 * sd / np.sqrt(samples) + 1e-12).all()
    var_err = np.abs(xs.var(axis=0) - np.diag(truth.cov))
    var_se = np.diag(truth.cov) * np.sqrt(2.0 / samples)
    assert (var_err <= 4.0 * var_se + 1e-12).all()


def test_sampler_agrees_with_the_closed_form():
    _mc_check(altitude_temperature(), 0b01, g_dirac([1000.0]))
    _mc_check(rice_market(), 0b10, Gaussian([6.0], [[0.04]]))
    _mc_check(brownian_grid(10, 1.0), 1 << 4, g_dirac([0.3]), seed=23)


def test_sampler_is_deterministic_per_seed():
    at = altitude_temperature()
    a = sample_intervention(at, 0b01, [1000.0], 64, seed=5)
    b = sample_intervention(at, 0b01, [1000.0], 64, seed=5)
    assert np.array_equal(a, b)
    assert (a[:, 0] == 1000.0).all()
    with pytest.raises(DomainError):
        sample_intervention(at, 0b01, [1000.0], 0)


def test_space_validation():
    with pytest.raises(DomainError, match="names"):
        GaussianSpace(("a",), [0.0, 0.0], np.eye(2))
    with pytest.raises(DomainError, match="unique"):
        GaussianSpace(("a", "a"), [0.0, 0.0], np.eye(2))
    gs = random_space(3)
    assert gs.index_of("x2") == 2
    with pytest.raises(DomainError, match="no coordinate"):
        gs.index_of("y")
