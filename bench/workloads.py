"""Workloads of the levbounds benchmark.

Every workload is a closed loop with a single caller.  A run repeats
*passes*.  A pass is a fixed unit of work whose inputs are built from
``(seed, pass index)``, so one seed always gives the same inputs and no
two passes of a run share inputs.  Inputs are built, and outputs checked,
outside the timed part of a pass.

The benchmark calls ``levbounds`` only through module attributes
(``proportions.c_value``, never a name imported from it), so the traced
run can wrap every call at its import site.

  search   the two budget-2000, 4-restart ``optimize`` calls of acceptance
           criterion 8 (minimize_nu on (2,2) shapes, maximize_kappa on
           (3,2) shapes).  One operation is one job of both calls.
  sweep    one ``full_report`` per point of a jittered 5^4 lattice over
           (r, R4, R5, delta) at the reference shapes.  One operation is
           one ``full_report``; the shape polynomials recur at every one.
  certify  ``levbounds reproduce`` and ``levbounds selfcheck`` in process,
           then 100 draws from acceptance criterion 6's distribution, each
           checked against the finite-difference oracle.  One operation is
           one draw.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
from dataclasses import replace

import numpy as np

from levbounds import cli, optimizer, oracle, proportions, reference
from levbounds.optimizer import SearchSpec
from levbounds.polyalg import MollifierShape, TwistShape
from levbounds.proportions import SectionFiveParams, SectionFourParams

# acceptance criterion 6 tolerances
C_TOL = 1e-5
C1_TOL = 1e-4


def _rel(exact: float, numeric: float) -> float:
    """Relative disagreement, scaled as in acceptance criterion 6."""
    return abs(exact - numeric) / max(abs(exact), 1e-12)


class Workload:
    """A workload builds its inputs and checks its outputs.

    ``PASS_SECONDS`` is roughly the time of one pass at the reference
    speed (see run.py) when the benchmark was defined; run.py derives the
    number of passes from it.  It is fixed, not re-measured, so a faster
    program does the same work in less time.

    ``prelude`` lists ``(label, call)`` pairs run at the start of each
    timed pass, each call returning whether it succeeded; ``op`` is one
    timed operation; ``check`` judges one operation's output outside the
    timed part.
    """

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.margins: list[float] = []   # tolerance / rel_delta of timed oracle checks
        self.warm_up()

    def warm_up(self) -> None:
        """One evaluation at the reference point, before anything is timed."""
        self.reference = proportions.full_report(reference.section_four_reference(),
                                                 reference.section_five_reference())

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k])

    def prelude(self) -> list[tuple[str, object]]:
        return []

    def inputs(self, k: int) -> list:
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, x, y) -> bool:
        raise NotImplementedError


class Search(Workload):
    name = "search"
    PASS_SECONDS = 8.8

    def warm_up(self) -> None:
        super().warm_up()
        self.start = {"minimize_nu": self.reference.nu,
                      "maximize_kappa": self.reference.kappa}

    def inputs(self, k: int) -> list[tuple[SearchSpec, SearchSpec]]:
        """One job per pass: both searches, so every operation holds the
        same work and its latency percentiles are not split between the
        two targets' very different run times."""
        budget = 40 if self.tiny else 2000
        seed_nu, seed_kappa = (int(s) for s in self.rng(k).integers(0, 2**31, 2))
        p4, p5 = self.reference.params4, self.reference.params5
        return [(
            SearchSpec(target="minimize_nu", shape_degrees=(2, 2),
                       scalar_bounds={"r": (0.5, 2.0), "R": (0.3, 1.2)},
                       theta=1.0,
                       initial_point=(-0.158, 0.25, 0.492, 0.075, p4.r, p4.R),
                       budget=budget, seed=seed_nu, restarts=4),
            SearchSpec(target="maximize_kappa", shape_degrees=(3, 2),
                       scalar_bounds={"R": (0.4, 1.2), "delta": (0.4, 1.2)},
                       theta=1.0,
                       initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369, -4.635,
                                      p5.R, p5.delta),
                       budget=budget, seed=seed_kappa, restarts=4),
        )]

    def op(self, specs):
        return tuple(optimizer.optimize(spec) for spec in specs)

    def check(self, specs, results) -> bool:
        return all(self._check_search(s, r) for s, r in zip(specs, results))

    def _check_search(self, spec: SearchSpec, result) -> bool:
        """No regression from the start point, and the best point
        re-evaluates to exactly the reported objective."""
        params = spec.params_from_vector(result.best_point)
        start = self.start[spec.target]
        if spec.target == "minimize_nu":
            again = proportions.nu_bound(proportions.c_value(params), params.R)
            no_regress = result.best_objective <= start + 1e-15
        else:
            again = proportions.kappa_bound(proportions.c1_value(params), params.R)
            no_regress = result.best_objective >= start - 1e-15
        return no_regress and again == result.best_objective


class Sweep(Workload):
    name = "sweep"
    PASS_SECONDS = 2.7
    AXES = (("r", 0.8, 1.6), ("R4", 0.4, 0.9), ("R5", 0.5, 1.0), ("delta", 0.5, 1.0))

    def inputs(self, k: int) -> list[tuple]:
        """A lattice with a fresh random offset on each axis, so (r, R, delta)
        never repeat between passes while the shapes always do.  One point
        per pass is also checked against the finite-difference oracle."""
        rng = self.rng(k)
        n = 2 if self.tiny else 5
        axes = [lo + (np.arange(n) + rng.uniform()) / n * (hi - lo)
                for _, lo, hi in self.AXES]
        p4, p5 = self.reference.params4, self.reference.params5
        points = [(replace(p4, r=float(r), R=float(R4)),
                   replace(p5, R=float(R5), delta=float(delta)))
                  for r, R4, R5, delta in itertools.product(*axes)]
        fd_at = int(rng.integers(len(points)))
        return [(a, b, i == fd_at) for i, (a, b) in enumerate(points)]

    def op(self, x):
        return proportions.full_report(x[0], x[1])

    def check(self, x, rep) -> bool:
        p4, p5, with_oracle = x
        values = (rep.c, rep.nu, rep.c1, rep.kappa,
                  rep.d_uncond, rep.s_uncond, rep.d_grh, rep.s_grh)
        if not all(math.isfinite(v) for v in values) or rep.c <= 0 or rep.c1 <= 0:
            return False
        nu = math.log(rep.c) / (2.0 * p4.R)
        kappa = 1.0 - math.log(rep.c1) / p5.R
        expected = (nu, kappa, 0.5 + kappa / 2 - nu, kappa - 2 * nu, 1 - nu, 1 - 2 * nu)
        got = (rep.nu, rep.kappa, rep.d_uncond, rep.s_uncond, rep.d_grh, rep.s_grh)
        if any(abs(a - b) > 1e-12 for a, b in zip(got, expected)):
            return False
        if not with_oracle:
            return True
        return (_rel(rep.c, oracle.fd_c_value(p4)) <= C_TOL
                and _rel(rep.c1, oracle.fd_c1_value(p5)) <= C1_TOL)


class Certify(Workload):
    name = "certify"
    PASS_SECONDS = 8.2

    def prelude(self) -> list[tuple[str, object]]:
        return [(f"cli.{name}", functools.partial(self._cli, name))
                for name in ("reproduce", "selfcheck")]

    @staticmethod
    def _cli(name: str) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([name]) == 0

    def inputs(self, k: int) -> list[tuple]:
        """Acceptance criterion 6's distribution: fresh shapes, theta and R
        on every draw."""
        rng = self.rng(k)
        draws = []
        for _ in range(3 if self.tiny else 100):
            s1 = MollifierShape.of(list(rng.uniform(-1, 1, 2)))
            s2 = MollifierShape.of(list(rng.uniform(-1, 1, 2)))
            sp = MollifierShape.of(list(rng.uniform(-1, 1, 3)))
            q = TwistShape.of(float(rng.uniform(-1, 1)), list(rng.uniform(-1, 1, 2)))
            theta = float(rng.uniform(0.3, 1.0))
            R4 = float(rng.uniform(0.1, 2.0))
            R5 = float(rng.uniform(0.1, 2.0))
            delta = float(rng.uniform(0.0, 1.2))
            draws.append((SectionFourParams(s1, s2, theta, 1.154, R4),
                          SectionFiveParams(sp, q, theta, R5, delta)))
        return draws

    def op(self, x):
        p4, p5 = x
        return (proportions.c_value(p4), proportions.c1_value(p5),
                oracle.fd_c_value(p4), oracle.fd_c1_value(p5))

    def check(self, x, y) -> bool:
        c, c1, fd_c, fd_c1 = y
        rel_c, rel_c1 = _rel(c, fd_c), _rel(c1, fd_c1)
        self.margins += [C_TOL / max(rel_c, 1e-300), C1_TOL / max(rel_c1, 1e-300)]
        return rel_c <= C_TOL and rel_c1 <= C1_TOL


WORKLOADS = {w.name: w for w in (Search, Sweep, Certify)}
