"""The three benchmark workloads.

Each workload is a closed loop with one caller: an op starts only when the
previous one has returned and been checked. One pass over a workload's op
list is its fixed job. ``setup`` generates the seeded inputs (and writes or
compiles whatever the ops need resident), ``warm`` runs one op of each
kind, ``ops`` returns the list for one pass and ``controls`` feeds the
checks deliberately wrong inputs.

- cli-ladder: the document path a CLI user takes, rungs n = 3..8. Loads
  ``documents`` (JSON dump and parse); nothing stays resident, every
  command re-reads its document.
- query-mix: library calls on resident n = 9 spaces. Loads ``core`` and
  ``effects`` on a warm projection cache and skips ``documents``.
- compile-ladder: compile and validate fresh models up to n = 10. Loads
  ``compilers`` and memory from a cold projection cache and skips
  ``documents`` and ``effects``.
"""

from __future__ import annotations

import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C
import models
from causalspaces import cli, compilers, core, documents, effects, gaussian, measure


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    span: str | None = None  # span the benchmark opens around the call when traced


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def event_probability(weights: np.ndarray, n: int, j: int, label: str) -> float:
    """P(X_j = label) for a law on n binary components, row-major."""
    bit = (np.arange(1 << n) >> (n - 1 - j)) & 1
    return float(weights[bit == int(label)].sum())


def call_each_kind(ops: list[Op]) -> None:
    """Warm-up: call the first op of each kind, in order, unchecked.

    An op that raises here raises again in the timed passes, where it is
    counted as failed.
    """
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    for op in seen.values():
        try:
            op.call()
        except Exception:  # noqa: BLE001 - counted when the passes run it
            pass


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="causalspaces")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


def mem_available() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise OSError("MemAvailable missing from /proc/meminfo")


class MemoryShort(RuntimeError):
    """Not enough free memory for a rung; counted as a failed op."""


# ------------------------------------------------------------ cli-ladder


class CliLadder:
    RUNGS = range(3, 9)
    FAMILIES = ("chain", "dag")
    BROWNIAN = dict(steps=100, horizon=2.0, at=1.0)

    def __init__(self, seed: int, workdir: Path, checker: C.Checker):
        self.seed = seed
        self.workdir = workdir
        self.checker = checker
        self._expected: dict = {}
        self.space_dir: Path | None = None
        self._passes = 0

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.specs = {}
        for f, fam in enumerate(self.FAMILIES):
            make = models.xor_chain if fam == "chain" else models.random_dag
            for n in self.RUNGS:
                spec = make(rng_for(self.seed, 1, f, n), n)
                self.specs[fam, n] = spec
                documents.write_document(self._path(fam, n, ".scm.json"), documents.scm_to_document(spec))
        self.brownian_value = float(np.round(rng_for(self.seed, 1, 9).normal(), 6))
        warm = models.xor_chain(rng_for(self.seed, 1, 8), 3)
        self.specs["warm", 3] = warm
        documents.write_document(self._path("warm", 3, ".scm.json"), documents.scm_to_document(warm))

    def warm(self) -> None:
        self._new_space_dir()
        call_each_kind(self._model_ops("warm", 3) + [self._demo_op()])

    def resident_spaces(self):
        return []

    def ops(self) -> list[Op]:
        self._new_space_dir()
        out = []
        for fam in self.FAMILIES:
            for n in self.RUNGS:
                out += self._model_ops(fam, n)
        out.append(self._demo_op())
        return out

    def _new_space_dir(self) -> None:
        """Compile each pass into new files and drop the previous pass's.

        Rewriting a file in place makes ext4 flush it to disk on close, so
        overwriting would time the disk rather than the program.
        """
        old = self.space_dir
        self.space_dir = self.workdir / f"pass{self._passes}"
        self._passes += 1
        self.space_dir.mkdir()
        if old is not None:
            shutil.rmtree(old)

    def _path(self, fam: str, n: int, suffix: str) -> str:
        where = self.space_dir if suffix == ".space.json" else self.workdir
        return str(where / f"{fam}{n}{suffix}")

    def _model_ops(self, fam: str, n: int) -> list[Op]:
        scm = self._path(fam, n, ".scm.json")
        sp = self._path(fam, n, ".space.json")
        last = f"X{n - 1}"
        if fam == "dag":
            # a later variable is never an ancestor of an earlier one
            u, event, given, verdict = last, "X0=1", "X1", "NONE"
        else:
            u, event, given, verdict = "X0", f"{last}=1", f"X{n - 2}", "ACTIVE"
        do = ["do", sp, "--on", "X1", "--dirac", "1", "--query", f"{last}=1"]
        hard = ["do", sp, "--on", "X0,X2", "--dirac", "1,0", "--hard"]
        cls = ["classify", sp, "--u", u, "--event", event]
        return [
            Op("cli.compile", partial(run_cli, ["compile", scm, "--out", sp]),
               partial(self._check_compile, fam, n, sp), "cli.compile"),
            Op("cli.validate", partial(run_cli, ["validate", sp]), self._check_valid, "cli.validate"),
            Op("cli.do", partial(run_cli, do),
               partial(self._check_do, fam, n, {"X1": "1"}, False), "cli.do"),
            Op("cli.do_hard", partial(run_cli, hard),
               partial(self._check_do, fam, n, {"X0": "1", "X2": "0"}, True), "cli.do"),
            Op("cli.classify", partial(run_cli, cls),
               partial(self._check_json, {"classification": verdict}), "cli.classify"),
            Op("cli.classify_given", partial(run_cli, cls + ["--given", given]),
               partial(self._check_json, {"no_effect_given": True}), "cli.classify"),
        ]

    def _demo_op(self) -> Op:
        b = self.BROWNIAN
        args = ["demo", "brownian", "--steps", str(b["steps"]), "--horizon", str(b["horizon"]),
                "--at", str(b["at"]), "--value", repr(self.brownian_value)]
        return Op("cli.demo", partial(run_cli, args), self._check_demo, "cli.demo")

    def _expected_space(self, fam: str, n: int):
        hit = self._expected.get((fam, n))
        if hit is None:
            hit = self._expected[fam, n] = compilers.compile_scm(self.specs[fam, n])
        return hit

    def _check_compile(self, fam, n, sp, result):
        doc, err = C.cli_json(result)
        if err:
            return err
        loaded = documents.document_to_space(documents.read_document(sp))
        return C.first(C.expect(doc, {"out": sp}, "compile output"),
                       C.identical_spaces(loaded, self._expected_space(fam, n)))

    def _check_valid(self, result):
        return self._check_json({"valid": True, "violations": []}, result)

    def _check_json(self, want, result):
        doc, err = C.cli_json(result)
        return err or C.expect(doc, want, "output")

    def _check_do(self, fam, n, clamp, hard, result, control=False):
        """control=True checks against a perturbed oracle, which must fail."""
        doc, err = C.cli_json(result)
        if err:
            return err
        want = self.checker.oracle(self.specs[fam, n], clamp)
        if control:
            want = C.perturbed(want)
        errs = [C.expect(doc.get("hard"), hard, "hard flag"),
                self.checker.near(doc.get("p_do", []), want, "p_do", not control)]
        for expr, got in doc.get("queries", {}).items():
            j = int(expr.split("=")[0][1:])
            errs.append(self.checker.near(got, event_probability(want, n, j, "1"), expr, not control))
        return C.first(*errs)

    def _check_demo(self, result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        b = self.BROWNIAN
        return C.brownian_csv_error(out, b["steps"], b["horizon"], b["at"], self.brownian_value)

    def controls(self) -> list[tuple[str, "str | None"]]:
        doc = documents.read_document(self._path("chain", 3, ".space.json"))
        doc["kernels"]["0"] = C.corrupt_row(doc["kernels"]["0"]).tolist()
        bad = self._path("control", 3, ".space.json")
        documents.write_document(bad, doc)
        sp = self._path("chain", 3, ".space.json")
        result = run_cli(["do", sp, "--on", "X1", "--dirac", "1"])
        return [
            ("corrupted kernel row", self._check_valid(run_cli(["validate", bad]))),
            ("perturbed oracle", self._check_do("chain", 3, {"X1": "1"}, False, result, control=True)),
        ]


# ------------------------------------------------------------- query-mix


class QueryMix:
    N = 9
    FAMILIES = ("chain", "dag", "parity")
    GRID_STEPS = 64

    def __init__(self, seed: int, workdir: Path, checker: C.Checker):
        self.seed = seed
        self.checker = checker
        self._pending = None

    def setup(self) -> None:
        n = self.N
        makers = (models.xor_chain, models.random_dag, models.parity_with_fillers)
        self.specs = {fam: make(rng_for(self.seed, 2, f), n)
                      for f, (fam, make) in enumerate(zip(self.FAMILIES, makers))}
        self.spaces = {fam: compilers.compile_scm(spec) for fam, spec in self.specs.items()}
        self.units = self._stream(rng_for(self.seed, 2, 9))

    def resident_spaces(self):
        return [cs.space for cs in self.spaces.values()]

    def _event(self, fam: str, j: int, label: str) -> measure.Event:
        return measure.rectangle(self.spaces[fam].space, {f"X{j}": [label]})

    def _stream(self, rng: np.random.Generator) -> list[tuple]:
        """The seeded op stream of one pass, as (kind, arguments) units."""
        n = self.N
        lab = lambda: str(int(rng.integers(2)))  # noqa: E731
        ordered = lambda k: sorted(int(x) for x in rng.choice(n, size=k, replace=False))  # noqa: E731
        units = []
        for i, k in enumerate((1, 2, 3, 3, 2, 1)):
            comps = ordered(k)
            if i % 2 == 0:
                q = np.zeros(1 << k)
                q[int(rng.integers(1 << k))] = 1.0
            else:
                q = rng.dirichlet(np.ones(1 << k))
            units.append(("intervene", self.FAMILIES[i % 3], comps, q))
        units += [("validate", self.FAMILIES[i % 3]) for i in range(8)]
        for _ in range(4):
            j, k = ordered(2)
            units.append(("classify", "chain", j, k, lab(), "ACTIVE"))
        for i in range(30):
            j, k = ordered(2)
            units.append(("classify", ("chain", "dag")[i % 2], k, j, lab(), "NONE"))
        units += [("classify", "parity", i % 2, 2, lab(), "DORMANT") for i in range(4)]
        units += [("on_subset", fam, n - 1, (1 << (n - 1)) - 1, "NONE") for fam in self.FAMILIES]
        for _ in range(3):
            j = int(rng.integers(n - 1))
            units.append(("on_subset", "chain", j, 1 << (j + 1), "ACTIVE"))
        for _ in range(20):
            k = int(rng.integers(2, n))
            j = int(rng.integers(k - 1))
            units.append(("given", j, k - 1, k, lab()))
        for _ in range(20):
            k = int(rng.integers(1, n - 1))
            j = int(rng.integers(k + 1, n))
            units.append(("adjust", k, rng.dirichlet(np.ones(2)), j, lab()))
        units += [("activate", i) for i in range(2)]
        pins = models.grid_pins(rng, self.GRID_STEPS, 20)
        units += [("g_intervene", *p) for p in pins[:10]] + [("g_condition", *p) for p in pins[10:]]
        return [units[i] for i in rng.permutation(len(units))]

    def warm(self) -> None:
        call_each_kind(self.ops())

    def ops(self) -> list[Op]:
        # a fresh grid per pass, so every Gaussian op builds its kernel anew
        grid = gaussian.brownian_grid(self.GRID_STEPS, 1.0)
        out = []
        for unit in self.units:
            out += getattr(self, "_op_" + unit[0])(*unit[1:], grid=grid)
        return out

    # one method per unit kind; each returns the unit's ops

    def _op_intervene(self, fam, comps, q, grid):
        cs = self.spaces[fam]
        u = sum(1 << t for t in comps)
        dist = measure.Dist(cs.space, u, q)
        want = partial(self.checker.oracle_mixture, self.specs[fam], comps, q)

        def hard():
            return core.intervene_hard(cs, u, dist)

        def generic():
            return core.intervene(cs, core.InterventionSpec(u, dist, core.trivial_internal(cs.space, u, dist)))

        def check_hard(done):
            self._pending = done
            return self.checker.near(done.observational.weights, want(), "hard p_do")

        def check_generic(done):
            pending, self._pending = self._pending, None
            if pending is None:
                return "no hard result to compare with"
            return C.first(C.same_intervention(pending, done),
                           self.checker.near(done.observational.weights, want(), "generic p_do"))

        return [Op("core.intervene_hard", hard, check_hard), Op("core.intervene", generic, check_generic)]

    def _op_validate(self, fam, grid):
        return [Op("core.validate", partial(core.validate_causal_space, self.spaces[fam]), check_report)]

    def _op_classify(self, fam, u, j, label, verdict, grid):
        call = partial(effects.classify_effect, self.spaces[fam], 1 << u, self._event(fam, j, label))
        return [Op("effects.classify", call, lambda got: C.expect(got.name, verdict, "verdict"))]

    def _op_on_subset(self, fam, u, v, verdict, grid):
        call = partial(effects.classify_effect_on_subset, self.spaces[fam], 1 << u, v)
        return [Op("effects.on_subset", call, lambda got: C.expect(got.name, verdict, "verdict"))]

    def _op_given(self, u, v, j, label, grid):
        call = partial(effects.has_no_effect_given, self.spaces["chain"], 1 << u, 1 << v,
                       self._event("chain", j, label))
        return [Op("effects.given", call, lambda got: C.expect(got, True, "no effect given"))]

    def _op_adjust(self, k, q, j, label, grid):
        cs = self.spaces["chain"]
        dist = measure.Dist(cs.space, 1 << k, q)
        call = partial(effects.adjustment_estimate, cs, 1 << k, 1 << (k - 1), dist,
                       self._event("chain", j, label))

        def check(res):
            want = event_probability(self.checker.oracle_mixture(self.specs["chain"], [k], q), self.N, j, label)
            return C.first(C.expect(res.trusted, True, "trusted"),
                           self.checker.near(res.estimate, want, "adjusted estimate"))

        return [Op("effects.adjust", call, check)]

    def _op_activate(self, i, grid):
        cs = self.spaces["parity"]
        a = self._event("parity", 2, "1")
        call = partial(effects.activate_dormant, cs, 1 << i, a)
        return [Op("effects.activate", call, partial(check_witness, cs, a))]

    def _op_g_intervene(self, mask, values, grid):
        return [self._gaussian_op("gaussian.intervene", gaussian.g_intervene, mask, values, grid, False)]

    def _op_g_condition(self, mask, values, grid):
        return [self._gaussian_op("gaussian.condition", gaussian.g_condition, mask, values, grid, True)]

    def _gaussian_op(self, kind, fn, mask, values, grid, conditioned):
        pins = [t for t in range(self.GRID_STEPS) if mask >> t & 1]
        times = np.arange(1, self.GRID_STEPS + 1) / self.GRID_STEPS
        return Op(kind, partial(fn, grid, mask, values),
                  lambda g: C.closed_form_error(g, times, pins, values, conditioned))

    def controls(self) -> list[tuple[str, "str | None"]]:
        cs = self.spaces["chain"]
        q = np.array([0.0, 1.0])
        done = core.intervene_hard(cs, 1, measure.Dist(cs.space, 1, q))
        want = C.perturbed(self.checker.oracle_mixture(self.specs["chain"], [0], q))
        return [
            ("corrupted kernel row", check_report(core.validate_causal_space(corrupted_copy(cs)))),
            ("perturbed oracle", self.checker.near(done.observational.weights, want, "p_do", record=False)),
        ]


def corrupted_copy(cs):
    """The space with row 0 of its X0 kernel corrupted (see checks.corrupt_row)."""
    kernels = list(cs.mechanism.kernels)
    kernels[1] = measure.Kernel(cs.space, 1, C.corrupt_row(kernels[1].matrix))
    return core.CausalSpace(cs.space, cs.observational, core.CausalMechanism(cs.space, tuple(kernels)))


def check_report(report) -> "str | None":
    if report.ok:
        return None
    return f"{len(report.violations)} axiom violations, first: {report.violations[0].describe()}"


def check_witness(cs, a, w) -> "str | None":
    """Replay the activation witness: pin, re-intervene, re-classify."""
    space = cs.space
    target = int(space.atom_projection(space.full, w.intervened)[w.atom.index])
    after = core.intervene_hard(cs, w.intervened, measure.dirac(space, measure.Atom(w.intervened, target)))
    if effects.classify_effect(after, w.activated, a) is not effects.EffectClass.ACTIVE:
        return "replayed witness does not activate the effect"
    if after.observational.weights.tobytes() != w.after.observational.weights.tobytes():
        return "replayed witness gives another measure"
    return None


# -------------------------------------------------------- compile-ladder


class CompileLadder:
    RUNGS = range(3, 11)
    FAMILIES = ("chain", "dag")
    # Several models per family where compiling is cheap, so that the median
    # and the tail fall inside a cluster of like ops rather than between rungs.
    MODELS = {n: 4 if n <= 8 else 1 for n in RUNGS}
    PO_CALLS = 4
    MEMORY_FACTOR = 2  # the mechanism, plus room for copies while it is built

    def __init__(self, seed: int, workdir: Path, checker: C.Checker):
        self.seed = seed
        self.checker = checker
        self._compiled = None

    def setup(self) -> None:
        self.specs = {}
        for f, fam in enumerate(self.FAMILIES):
            make = models.xor_chain if fam == "chain" else models.random_dag
            for n in self.RUNGS:
                for k in range(self.MODELS[n]):
                    self.specs[fam, n, k] = make(rng_for(self.seed, 3, f, n, k), n)
        self.specs["warm", 3, 0] = models.xor_chain(rng_for(self.seed, 3, 8), 3)
        self.po = [models.po_setup(rng_for(self.seed, 3, 9, i)) for i in range(self.PO_CALLS + 1)]

    def warm(self) -> None:
        call_each_kind(self._model_ops("warm", 3, 0) + [self._po_op(self.po[-1])])

    def resident_spaces(self):
        return []

    def ops(self) -> list[Op]:
        out = []
        for fam in self.FAMILIES:
            for n in self.RUNGS:
                for k in range(self.MODELS[n]):
                    out += self._model_ops(fam, n, k)
        return out + [self._po_op(spec) for spec in self.po[:self.PO_CALLS]]

    def _compile(self, spec):
        n = len(spec.variables)
        need = self.MEMORY_FACTOR * 8 * 6**n
        if need > 1 << 28 and mem_available() < need:
            raise MemoryShort(f"rung n={n} needs {need / 1e6:.0f} MB free")
        self._compiled = compilers.compile_scm(spec)
        return self._compiled

    def _validate(self):
        cs, self._compiled = self._compiled, None
        if cs is None:
            raise LookupError("nothing compiled to validate")
        return core.validate_causal_space(cs)

    def _model_ops(self, fam, n, k):
        spec = self.specs[fam, n, k]
        return [
            Op("compilers.compile_scm", partial(self._compile, spec), partial(self._check_compiled, spec)),
            Op("core.validate", self._validate, check_report),
        ]

    def _check_compiled(self, spec, cs, control=False):
        """control=True checks against a perturbed oracle, which must fail."""
        base = self.checker.oracle(spec, {})
        clamped = self.checker.oracle(spec, {"X0": "1"})
        if control:
            base = C.perturbed(base)
        return C.first(
            C.expect(len(cs.mechanism.kernels), 1 << len(spec.variables), "kernel count"),
            self.checker.near(cs.observational.weights, base, "observational law", not control),
            self.checker.near(cs.mechanism[1].matrix[1], clamped, "do(X0=1) row", not control),
        )

    def _po_op(self, spec):
        return Op("compilers.compile_po", partial(compilers.compile_po, spec), partial(check_po, spec))

    def controls(self) -> list[tuple[str, "str | None"]]:
        spec = self.specs["chain", 3, 0]
        cs = compilers.compile_scm(spec)
        return [
            ("corrupted kernel row", check_report(core.validate_causal_space(corrupted_copy(cs)))),
            ("perturbed oracle", self._check_compiled(spec, cs, control=True)),
        ]


def check_po(spec, result) -> "str | None":
    """Valid space whose treatment rows carry each potential outcome's law."""
    cs, _ = result
    nz, ny, nx = len(spec.treatments), len(spec.outcomes), len(spec.covariates)
    rows = cs.mechanism[1].matrix.reshape(nz, nz, ny, nx).sum(axis=(1, 3))
    laws = C.po_outcome_laws(spec)
    return C.first(check_report(core.validate_causal_space(cs)),
                   *(C.Checker().near(rows[z], laws[z], f"outcome law under z{z}", record=False)
                     for z in range(nz)))


WORKLOADS = {"cli-ladder": CliLadder, "query-mix": QueryMix, "compile-ladder": CompileLadder}
