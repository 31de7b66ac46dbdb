"""Built-in reference parameters and target constants.

These are the published parameter choices the engine reproduces, compiled
in so the reproduce command needs no input files.

One deliberate correction: the first shape coefficient of p2 is +0.492.
The sign-flipped variant (-0.492) that is sometimes quoted yields
c = 1.5303158151789646 and cannot reproduce the reference constant
1.230108 under any argument/derivative convention of the kernel; with
+0.492 the value is 1.2301085737954217, matching every published digit,
and the accompanying (r, R) = (1.154, 0.617) sits at the optimum of the
resulting objective.  The discrepancy is pinned by tests.
"""

from __future__ import annotations

from .polyalg import MollifierShape, TwistShape
from .proportions import SectionFourParams, SectionFiveParams


def section_four_reference() -> SectionFourParams:
    return SectionFourParams(
        p1_shape=MollifierShape.of(["-0.158", "0.25"]),
        p2_shape=MollifierShape.of(["0.492", "0.075"]),
        theta=1.0,
        r=1.154,
        R=0.617,
    )


def section_five_reference() -> SectionFiveParams:
    return SectionFiveParams(
        p_shape=MollifierShape.of(["-0.482", "-0.392", "-0.262"]),
        q_shape=TwistShape.of("-0.673", ["0.369", "-4.635"]),
        theta=1.0,
        R=0.746,
        delta=0.771,
    )


# Published targets, with the comparison tolerance for each row of the
# reproduction table.  d/s rows are lower bounds: computed values may
# exceed them, so those compare one-sided with a small slack.
REFERENCE_CONSTANTS: dict[str, float] = {
    "c": 1.230108,
    "nu": 0.167835,
    "c1": 1.047120,       # back-solved from kappa = 1 - ln(c1)/R
    "kappa": 0.93828,
    "d_uncond": 0.8013,
    "s_uncond": 0.60261,
    "d_grh": 0.83216,
    "s_grh": 0.66433,
}

# kappa for the delta = 1 specialization, quoted for comparison only; no
# polynomials are published for it, so nothing is asserted against it.
REMARK_DELTA1_KAPPA = 0.8429

REL_TOLERANCE = {"c": 5e-4, "c1": 5e-4}
ABS_TOLERANCE = {"kappa": 5e-4}
NU_BAND = (0.1677, 0.1679)           # brackets the printed 0.167835 and the
                                     # self-consistent ln(c)/(2R) = 0.1678302
LOWER_BOUND_SLACK = 1e-3             # d/s rows: computed >= reference - slack
