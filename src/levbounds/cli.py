"""Command-line surface: reproduce, eval, optimize, selfcheck.

Config files are JSON.  Decimal numbers inside shape arrays are kept as
decimal strings all the way into exact rationals (the parser reads JSON
floats as strings), while scalar parameters (theta, r, R, delta) become
binary64.  Exit codes: 0 success, 1 quantitative failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any

from . import reference
from .optimizer import SearchSpec, optimize
from .oracle import crosscheck_report
from .polyalg import (ConstraintViolationError, MollifierShape, Poly, TwistShape,
                      mollifier_shape_from_poly, twist_shape_from_poly)
from .proportions import (SectionFourParams, SectionFiveParams, c1_value, c_value,
                          full_report, grh_bounds, kappa_bound, nu_bound,
                          unconditional_bounds)

MACHINE_FMT = "{key}={value:.17g}"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration; maps to exit code 2."""


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

TOP_LEVEL_FIELDS = ("theta", "section4", "section5", "search", "constants")


def _load_json(path: str) -> dict:
    """The config object, rejecting any top-level key it does not define."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=str)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r}: expected an object")
    unknown = sorted(set(cfg) - set(TOP_LEVEL_FIELDS))
    if unknown:
        raise ConfigError(f"config: unknown field {unknown[0]!r} "
                          f"(allowed: {', '.join(TOP_LEVEL_FIELDS)})")
    return cfg


def _get_float(section: dict, field: str, where: str) -> float:
    try:
        return float(section[field])
    except KeyError:
        raise ConfigError(f"{where}: missing field {field!r}") from None
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{field}: not a number: {section[field]!r}") from None


def _get_fractions(section: dict, field: str, where: str) -> list[Fraction]:
    try:
        raw = section[field]
    except KeyError:
        raise ConfigError(f"{where}: missing field {field!r}") from None
    if not isinstance(raw, list):
        raise ConfigError(f"{where}.{field}: expected an array of decimals")
    try:
        return [Fraction(str(v)) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{field}: entries must be decimals") from None


SECTION_FIELDS = {
    "section4": ("p1_shape", "p1_poly", "p2_shape", "p2_poly", "r", "R"),
    "section5": ("p_shape", "p_poly", "q_linear", "q_sym", "q_poly", "R", "delta"),
    "search": ("target", "bounds", "budget", "restarts", "seed", "vary_shapes"),
    "constants": ("c", "c1", "R4", "R5"),
}


def _section(cfg: dict, where: str) -> dict:
    """The named section, rejecting any key it does not define."""
    sec = cfg.get(where)
    if sec is None:
        raise ConfigError(f"config: missing {where}")
    if not isinstance(sec, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(sec) - set(SECTION_FIELDS[where]))
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r} "
                          f"(allowed: {', '.join(SECTION_FIELDS[where])})")
    return sec


def _get_int(section: dict, field: str, where: str, default: int) -> int:
    """A JSON integer; booleans and decimals (which arrive as strings) fail."""
    value = section.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{field}: expected an integer, got {value!r}")
    return value


def _mollifier(sec: dict, which: str, where: str) -> MollifierShape:
    """A mollifier given as exactly one of {which}_shape or {which}_poly."""
    shape_key, poly_key = f"{which}_shape", f"{which}_poly"
    if shape_key in sec and poly_key in sec:
        raise ConfigError(f"{where}: give {shape_key!r} or {poly_key!r}, not both")
    if poly_key in sec:
        poly = Poly.from_coeffs(_get_fractions(sec, poly_key, where))
        try:
            return mollifier_shape_from_poly(poly)
        except ConstraintViolationError as exc:
            raise ConfigError(f"{where}.{poly_key}: {exc}") from exc
    if shape_key not in sec:
        raise ConfigError(f"{where}: missing field {shape_key!r} (or {poly_key!r})")
    return MollifierShape(tuple(_get_fractions(sec, shape_key, where)))


def _section_four(cfg: dict, theta: float) -> SectionFourParams:
    sec = _section(cfg, "section4")
    p1 = _mollifier(sec, "p1", "section4")
    p2 = _mollifier(sec, "p2", "section4")
    try:
        return SectionFourParams(p1_shape=p1, p2_shape=p2, theta=theta,
                                 r=_get_float(sec, "r", "section4"),
                                 R=_get_float(sec, "R", "section4"))
    except ValueError as exc:
        raise ConfigError(f"section4: {exc}") from exc


def _section_five(cfg: dict, theta: float) -> SectionFiveParams:
    sec = _section(cfg, "section5")
    p = _mollifier(sec, "p", "section5")
    if "q_poly" in sec:
        if "q_linear" in sec or "q_sym" in sec:
            raise ConfigError("section5: give 'q_linear'/'q_sym' or 'q_poly', not both")
        try:
            q = twist_shape_from_poly(
                Poly.from_coeffs(_get_fractions(sec, "q_poly", "section5")))
        except ConstraintViolationError as exc:
            raise ConfigError(f"section5.q_poly: {exc}") from exc
    else:
        if "q_linear" not in sec:
            raise ConfigError("section5: missing field 'q_linear' (or 'q_poly')")
        sym = _get_fractions(sec, "q_sym", "section5") if "q_sym" in sec else []
        q = TwistShape(Fraction(str(sec["q_linear"])), tuple(sym))
    try:
        return SectionFiveParams(p_shape=p, q_shape=q, theta=theta,
                                 R=_get_float(sec, "R", "section5"),
                                 delta=_get_float(sec, "delta", "section5"))
    except ValueError as exc:
        raise ConfigError(f"section5: {exc}") from exc


def _theta(cfg: dict) -> float:
    if "theta" not in cfg:
        return 1.0
    try:
        return float(cfg["theta"])
    except (TypeError, ValueError):
        raise ConfigError(f"theta: not a number: {cfg['theta']!r}") from None


def _search_spec(cfg: dict, seed_override: int | None) -> SearchSpec:
    sec = _section(cfg, "search")
    target = sec.get("target")
    theta = _theta(cfg)
    vary_shapes = sec.get("vary_shapes", True)
    if not isinstance(vary_shapes, bool):
        raise ConfigError(f"search.vary_shapes: expected true or false, "
                          f"got {vary_shapes!r}")
    budget = _get_int(sec, "budget", "search", 2000)
    restarts = _get_int(sec, "restarts", "search", 0)
    seed = _get_int(sec, "seed", "search", 0)
    bounds_raw = sec.get("bounds", {})
    if not isinstance(bounds_raw, dict):
        raise ConfigError("search.bounds: expected an object of [lo, hi] pairs")
    bounds: dict[str, tuple[float, float]] = {}
    for name, pair in bounds_raw.items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"search.bounds.{name}: expected [lo, hi]")
        try:
            bounds[name] = (float(pair[0]), float(pair[1]))
        except (TypeError, ValueError):
            raise ConfigError(f"search.bounds.{name}: not a number: {pair!r}") from None
    if target == "minimize_nu":
        p4 = _section_four(cfg, theta)
        shape_degrees = (len(p4.p1_shape.shape_coeffs), len(p4.p2_shape.shape_coeffs))
        initial = tuple([float(c) for c in p4.p1_shape.shape_coeffs]
                        + [float(c) for c in p4.p2_shape.shape_coeffs]
                        + [p4.r, p4.R])
    elif target == "maximize_kappa":
        p5 = _section_five(cfg, theta)
        shape_degrees = (len(p5.p_shape.shape_coeffs), len(p5.q_shape.sym_coeffs))
        initial = tuple([float(c) for c in p5.p_shape.shape_coeffs]
                        + [float(p5.q_shape.linear_coeff)]
                        + [float(c) for c in p5.q_shape.sym_coeffs]
                        + [p5.R, p5.delta])
    else:
        raise ConfigError(f"search.target: expected 'minimize_nu' or "
                          f"'maximize_kappa', got {target!r}")
    try:
        return SearchSpec(
            target=target,
            shape_degrees=shape_degrees,
            scalar_bounds=bounds,
            theta=theta,
            initial_point=initial,
            budget=budget,
            seed=seed_override if seed_override is not None else seed,
            restarts=restarts,
            vary_shapes=vary_shapes,
        )
    except ValueError as exc:
        raise ConfigError(f"search: {exc}") from exc


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

class Emitter:
    """Writes human or machine lines to stdout, duplicating machine output
    to --out when given."""

    def __init__(self, machine: bool, out_path: str | None):
        self.machine = machine
        self.lines: list[str] = []
        self.out_path = out_path

    def kv(self, key: str, value: float) -> None:
        line = MACHINE_FMT.format(key=key, value=value)
        if self.machine:
            print(line)
        self.lines.append(line)

    def text(self, line: str = "") -> None:
        if not self.machine:
            print(line)

    def flush(self) -> None:
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(self.lines) + "\n")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.config:
        cfg = _load_json(args.config)
        theta = _theta(cfg)
        p4 = _section_four(cfg, theta)
        p5 = _section_five(cfg, theta)
    else:
        p4 = reference.section_four_reference()
        p5 = reference.section_five_reference()
    ref4 = reference.section_four_reference()
    ref5 = reference.section_five_reference()
    comparable = (p4 == ref4 and p5 == ref5)

    report = full_report(p4, p5)
    targets = reference.REFERENCE_CONSTANTS
    rows = [
        ("c", report.c), ("nu", report.nu), ("c1", report.c1),
        ("kappa", report.kappa), ("d_uncond", report.d_uncond),
        ("s_uncond", report.s_uncond), ("d_grh", report.d_grh),
        ("s_grh", report.s_grh),
    ]
    em = Emitter(args.machine, args.out)
    em.text(f"{'quantity':<10} {'computed':>20} {'reference':>12} "
            f"{'|delta|':>12}  verdict")
    all_pass = True
    for key, computed in rows:
        em.kv(key, computed)
        if not comparable:
            em.text(f"{key:<10} {computed:>20.12f} {'n/a':>12} {'n/a':>12}  N/A")
            continue
        target = targets[key]
        delta = abs(computed - target)
        if key in reference.REL_TOLERANCE:
            ok = delta <= reference.REL_TOLERANCE[key] * abs(target)
        elif key in reference.ABS_TOLERANCE:
            ok = delta <= reference.ABS_TOLERANCE[key]
        elif key == "nu":
            lo, hi = reference.NU_BAND
            ok = lo <= computed <= hi
        else:
            ok = computed >= target - reference.LOWER_BOUND_SLACK
        all_pass &= ok
        em.text(f"{key:<10} {computed:>20.12f} {target:>12.6f} {delta:>12.3e}  "
                f"{'PASS' if ok else 'FAIL'}")
    if comparable:
        nu_self = report.nu
        nu_printed = targets["nu"]
        em.text()
        em.text(f"note: nu recomputed from c is {nu_self:.7f}; the quoted "
                f"reference prints {nu_printed:.6f} (gap {abs(nu_self - nu_printed):.1e}, "
                f"rounding of c in the quoted value; both lie in "
                f"[{reference.NU_BAND[0]}, {reference.NU_BAND[1]}]).")
        em.text("note: p2_shape[0] = +0.492; the sign-flipped -0.492 yields "
                "c = 1.5303158 and does not reproduce the reference constant.")
    em.flush()
    return 0 if all_pass or not comparable else 1


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    theta = _theta(cfg)
    em = Emitter(args.machine, args.out)
    if args.which == "c":
        value = c_value(_section_four(cfg, theta))
        em.kv("c", value)
        em.text(f"c = {value:.12f}")
    elif args.which == "c1":
        value = c1_value(_section_five(cfg, theta))
        em.kv("c1", value)
        em.text(f"c1 = {value:.12f}")
    else:
        consts = _section(cfg, "constants") if "constants" in cfg else {}
        if "c" in consts:
            c = _get_float(consts, "c", "constants")
        else:
            c = c_value(_section_four(cfg, theta))
        if "c1" in consts:
            c1 = _get_float(consts, "c1", "constants")
        else:
            c1 = c1_value(_section_five(cfg, theta))
        R4 = (_get_float(consts, "R4", "constants") if "R4" in consts
              else _get_float(cfg.get("section4", {}), "R", "section4"))
        R5 = (_get_float(consts, "R5", "constants") if "R5" in consts
              else _get_float(cfg.get("section5", {}), "R", "section5"))
        nu = nu_bound(c, R4)
        kappa = kappa_bound(c1, R5)
        d, s = unconditional_bounds(kappa, nu)
        d_grh, s_grh = grh_bounds(nu)
        for key, value in (("c", c), ("nu", nu), ("c1", c1), ("kappa", kappa),
                           ("d_uncond", d), ("s_uncond", s),
                           ("d_grh", d_grh), ("s_grh", s_grh)):
            em.kv(key, value)
            em.text(f"{key} = {value:.12f}")
    em.flush()
    return 0


def _shape_fragment(values) -> list[str]:
    return [repr(float(v)) for v in values]


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    spec = _search_spec(cfg, args.seed)
    result = optimize(spec)
    params = spec.params_from_vector(result.best_point)
    em = Emitter(args.machine, args.out)
    em.kv("best_objective", result.best_objective)
    em.kv("evaluations_used", float(result.evaluations_used))
    fragment: dict[str, Any]
    if spec.target == "minimize_nu":
        fragment = {"section4": {
            "p1_shape": _shape_fragment(params.p1_shape.shape_coeffs),
            "p2_shape": _shape_fragment(params.p2_shape.shape_coeffs),
            "r": params.r, "R": params.R}}
    else:
        fragment = {"section5": {
            "p_shape": _shape_fragment(params.p_shape.shape_coeffs),
            "q_linear": repr(float(params.q_shape.linear_coeff)),
            "q_sym": _shape_fragment(params.q_shape.sym_coeffs),
            "R": params.R, "delta": params.delta}}
    em.text(f"target           {spec.target}")
    em.text(f"best objective   {result.best_objective:.12f}")
    em.text(f"evaluations      {result.evaluations_used}")
    em.text(f"improvements     {len(result.trace)} "
            f"(last at evaluation {result.trace[-1][0] if result.trace else 0})")
    em.text("best point (config fragment):")
    em.text(json.dumps(fragment, indent=2))
    if args.machine:
        print(json.dumps(fragment, separators=(",", ":")))
    em.flush()
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    if args.config:
        cfg = _load_json(args.config)
        theta = _theta(cfg)
        p4 = _section_four(cfg, theta)
        p5 = _section_five(cfg, theta)
    else:
        p4 = reference.section_four_reference()
        p5 = reference.section_five_reference()
    report = crosscheck_report(p4, p5)
    em = Emitter(args.machine, args.out)
    for check in report.checks:
        key = check.name.replace(" ", "_")
        em.kv(f"check[{key}].rel_delta", check.rel_delta)
        em.text(f"{'PASS' if check.passed else 'FAIL'}  {check.name:<46} "
                f"rel delta {check.rel_delta:.3e} (tol {check.tolerance:.0e})")
    em.kv("all_passed", 1.0 if report.all_passed else 0.0)
    em.text(f"{sum(ch.passed for ch in report.checks)}/{len(report.checks)} "
            f"checks passed")
    em.flush()
    return 0 if report.all_passed else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levbounds",
        description="Evaluate, verify and search the mollified-moment bound "
                    "constants for distinct/simple zero proportions.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--machine", action="store_true",
                        help="line-oriented key=value output, 17 significant digits")
    common.add_argument("--out", default=None,
                        help="duplicate machine output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", parents=[common],
                       help="recompute the built-in reference table")
    p.add_argument("--config", default=None, help="optional parameter overrides")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("eval", parents=[common], help="evaluate c, c1 or bounds")
    p.add_argument("--which", choices=("c", "c1", "bounds"), required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("optimize", parents=[common], help="run a search")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the search seed")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("selfcheck", parents=[common],
                       help="run the exact-vs-numeric crosschecks")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
