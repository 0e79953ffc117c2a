"""What perfbench needs from the package, checked without running it.

perfbench/ is the benchmark harness. Its worker exits non-zero, and the
whole run fails, when a name it patches is gone or when a setup step, a
check or a negative control raises outside an op. These tests import its
modules from the repository checkout (nothing in perfbench/ is changed) and
exercise exactly those touch points on small inputs.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from causalspaces import cli, compilers, core, documents, effects, gaussian, measure

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import models  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def chain3():
    return compilers.compile_scm(models.xor_chain(np.random.default_rng(0), 3))


def test_traced_names_resolve():
    for modname, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for cls in (measure.Kernel, measure.FiniteProductSpace, gaussian.GaussianKernel):
        assert callable(cls.__post_init__), cls


def test_wrapped_kernel_init_builds_both_forms(monkeypatch, chain3):
    tracer = tracing.Tracer()
    monkeypatch.setattr(measure.Kernel, "__post_init__",
                        tracer.wrap(measure.Kernel.__post_init__, "measure.kernel_init"))
    k = chain3.mechanism[0b011]
    assert np.array_equal(measure.Kernel(chain3.space, 0b011, k.matrix).law, k.law)
    assert np.array_equal(measure.Kernel(chain3.space, 0b011, law=k.law).law, k.law)


def test_mechanism_users_and_kernel_reads(chain3):
    for modname in tracing.MECHANISM_USERS:
        assert importlib.import_module(modname).CausalMechanism is core.CausalMechanism, modname
    mech = chain3.mechanism
    assert all(mech.kernels[mask] is mech[mask] for mask in range(1 << chain3.space.n))


def test_projection_cache_holds_arrays(chain3):
    core.validate_causal_space(chain3)
    a = measure.rectangle(chain3.space, {"X2": ["1"]})
    effects.classify_effect(chain3, 1, a)
    effects.classify_effect_on_subset(chain3, 1, 0b110)
    core.intervene_hard(chain3, 0b101, measure.uniform(chain3.space, 0b101))
    assert chain3.space._cache
    assert all(hasattr(v, "nbytes") for v in chain3.space._cache.values())


def test_corrupted_row_control_fires(chain3):
    broken = workloads.corrupted_copy(chain3)
    assert workloads.check_report(core.validate_causal_space(broken)) is not None
    assert workloads.check_report(core.validate_causal_space(chain3)) is None


def test_round_trip_and_intervention_checks_pass(chain3):
    back = documents.document_to_space(json.loads(documents.dump_json(documents.space_to_document(chain3))))
    assert checks.identical_spaces(back, chain3) is None
    u = 0b010
    q = measure.Dist(chain3.space, u, [0.3, 0.7])
    hard = core.intervene_hard(chain3, u, q)
    generic = core.intervene(chain3, core.InterventionSpec(u, q, core.trivial_internal(chain3.space, u, q)))
    assert checks.same_intervention(hard, generic) is None


def test_corrupted_document_fails_cli_validate(chain3, tmp_path):
    doc = documents.space_to_document(chain3)
    doc["kernels"]["0"] = checks.corrupt_row(doc["kernels"]["0"]).tolist()
    path = tmp_path / "bad.space.json"
    documents.write_document(str(path), doc)
    result = CliRunner().invoke(cli.main, ["validate", str(path)])
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert not report["valid"]
    # row 0 of the X0 kernel now sits on X0 = 1: its marginal is (0, 1) instead of (1, 0)
    assert [(v["subset"], v["row"], v["kind"], v["atom"]) for v in report["violations"]] == [
        ("0", 0, "row-marginal-not-point-mass", 0),
        ("0", 0, "row-marginal-not-point-mass", 1),
    ]
