#!/usr/bin/env python3
"""Print one sha256 per family of spaces that a checkout of the package builds.

    python scripts/mechanism_digest.py [CHECKOUT]

CHECKOUT (default: this repository) is a source tree of the project, for
example a commit exported with `git archive`. The script imports
causalspaces from CHECKOUT/src and the seeded models from
CHECKOUT/perfbench, so running it on two trees and diffing the output shows
which families of mechanisms a change moved, bit for bit.

A space is hashed as its observational weights and, for every kernel, the
contiguous bytes of its law and of its dense matrix. The families:

  compile_scm       perfbench's chain, DAG and parity models at n = 3..10
  intervene_hard    those models at n = 3..9, U in {X0}, {X0,X1}, {X0,X2}
  intervene         the same, generic, through trivial_internal
  trivial_internal  the internal spaces of those interventions
  conditionals      mechanism_from_conditionals on seeded full-support measures
  compile_po        compile_po's spaces and masks on perfbench's po_setup
  fixtures          every harness fixture
  random_space      20 random_causal_space configurations
  validation        the validation report of every space above, and of each
                    random space with one kernel row leaking off its fiber
  effects           on the models at n = 3..9, the verdicts of
                    classify_effect, has_no_effect_given and
                    classify_effect_on_subset for U in {X0}, {X0,X1},
                    {X0,X2}, {last}, and activate_dormant's witness (the
                    intervened subset, atom, activated subset and the bytes
                    of the measure after) wherever an effect is dormant
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

SEED = 2023
INTERVENED = (("X0",), ("X0", "X1"), ("X0", "X2"))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    root = Path(ap.parse_args().checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import models
    from causalspaces import harness
    from causalspaces.compilers import compile_po, compile_scm
    from causalspaces.core import (
        CausalMechanism,
        CausalSpace,
        InterventionSpec,
        intervene,
        intervene_hard,
        mechanism_from_conditionals,
        trivial_internal,
        validate_causal_space,
    )
    from causalspaces.effects import (
        EffectClass,
        activate_dormant,
        classify_effect,
        classify_effect_on_subset,
        has_no_effect_given,
    )
    from causalspaces.measure import Dist, Event, FiniteProductSpace, Kernel

    start = time.perf_counter()
    digests = {name: hashlib.sha256() for name in (
        "compile_scm", "intervene_hard", "intervene", "trivial_internal", "conditionals",
        "compile_po", "fixtures", "random_space", "validation", "effects",
    )}

    def add(family: str, cs) -> None:
        h = digests[family]
        h.update(np.ascontiguousarray(cs.observational.weights).tobytes())
        for k in cs.mechanism.kernels:
            h.update(np.ascontiguousarray(k.law).tobytes())
            h.update(np.ascontiguousarray(k.matrix).tobytes())
        digests["validation"].update(repr(validate_causal_space(cs)).encode())

    def add_effects(cs) -> None:
        h = digests["effects"]
        space, last = cs.space, cs.space.n - 1
        events = [Event(space, 1 << t, [False, True]) for t in (2, last)]
        for u in [space.mask_of(names) for names in INTERVENED] + [1 << last]:
            for a in events:
                effect = classify_effect(cs, u, a)
                h.update(repr((u, a.domain, effect.value, has_no_effect_given(cs, u, 0b10, a))).encode())
                if effect is EffectClass.DORMANT:
                    w = activate_dormant(cs, u, a)
                    h.update(repr((w.intervened, w.atom, w.activated)).encode())
                    h.update(np.ascontiguousarray(w.after.observational.weights).tobytes())
            for v in (1 << last, 0b110, space.full & ~u):
                h.update(repr((u, v, classify_effect_on_subset(cs, u, v).value)).encode())

    makers = (models.xor_chain, models.random_dag, models.parity_with_fillers)
    for f, make in enumerate(makers):
        for n in range(3, 11):
            cs = compile_scm(make(np.random.default_rng([SEED, f, n]), n))
            add("compile_scm", cs)
            if n == 10:
                continue
            add_effects(cs)
            rng = np.random.default_rng([SEED, f, n, 1])
            for names in INTERVENED:
                u = cs.space.mask_of(names)
                q = Dist(cs.space, u, rng.dirichlet(np.ones(cs.space.n_atoms_of(u))))
                add("intervene_hard", intervene_hard(cs, u, q))
                internal = trivial_internal(cs.space, u, q)
                add("trivial_internal", internal)
                add("intervene", intervene(cs, InterventionSpec(u, q, internal)))

    for seed in range(10):
        rng = np.random.default_rng([SEED, 7, seed])
        sizes = rng.integers(1, 4, size=int(rng.integers(1, 5)))
        space = FiniteProductSpace(
            tuple((f"X{t}", tuple(str(i) for i in range(k))) for t, k in enumerate(sizes))
        )
        p = Dist(space, space.full, rng.dirichlet(np.ones(space.n_atoms)))
        add("conditionals", CausalSpace(space, p, mechanism_from_conditionals(space, p)))

    for i in range(10):
        cs, mask = compile_po(models.po_setup(np.random.default_rng([SEED, 9, i])))
        add("compile_po", cs)
        digests["compile_po"].update(repr(mask.to_json_dict()).encode())

    add("fixtures", harness.ice_cream_shark())
    add("fixtures", harness.discretized_altitude_temperature())
    for w in (harness.composition_counterexample(), harness.composition_control(),
              harness.reversibility_counterexample(), harness.reversibility_control()):
        add("fixtures", w.cs)
        digests["fixtures"].update(repr(w).encode())
    for cs, _, _ in harness.dormant_instances():
        add("fixtures", cs)

    for seed in range(20):
        cfg = harness.RandomSpaceConfig(
            seed, n_components=1 + seed % 4, max_outcomes=2 + seed % 2,
            kernel_style=harness.KERNEL_STYLES[seed % 3],
        )
        cs = harness.random_causal_space(cfg)
        add("random_space", cs)
        # row 0 of one kernel leaks a fifth of its mass to the next atom
        s = cs.space.full >> 1 if cs.space.n > 1 else 0
        rows = cs.mechanism[s].matrix
        rows[0] = 0.8 * rows[0] + 0.2 * np.roll(rows[0], 1)
        kernels = list(cs.mechanism.kernels)
        kernels[s] = Kernel(cs.space, s, rows)
        leaky = CausalSpace(cs.space, cs.observational, CausalMechanism(cs.space, tuple(kernels)))
        digests["validation"].update(repr(validate_causal_space(leaky)).encode())

    for name, h in digests.items():
        print(f"{name:<17} {h.hexdigest()}")
    print(f"# {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
