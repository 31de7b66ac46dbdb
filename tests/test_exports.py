"""The package's public names: levbounds.__all__ is the stated surface and
every entry resolves, once; a stale entry breaks `from levbounds import *`.
The references that no command runs live in the tests, and the README's
example runs."""

import re
from pathlib import Path

import levbounds
from levbounds import kernel, optimizer, oracle, polyalg, proportions

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = set("""
    MomentTable moments EvaluationFailureError IllPosedSolveError SearchResult SearchSpec optimize
    CheckResult CrosscheckReport crosscheck_report fd_c1_value fd_c_value quad_integrate01
    ConstraintViolationError MollifierShape Poly TwistShape expand_mollifier poly_derivative
    poly_eval BoundReport ConstantBelowOneError NonFiniteError SectionFiveParams
    SectionFourParams bounds_table c1_core c1_value c_core c_value full_report grh_bounds
    kappa_bound nu_bound unconditional_bounds REFERENCE_CONSTANTS REMARK_DELTA1_KAPPA
    section_five_reference section_four_reference""".split())


def test_the_public_surface_is_stated():
    assert set(levbounds.__all__) == PUBLIC


def test_every_exported_name_resolves():
    missing = [name for name in levbounds.__all__ if not hasattr(levbounds, name)]
    assert not missing


def test_no_duplicate_exports():
    assert len(levbounds.__all__) == len(set(levbounds.__all__))


def test_the_exact_layer_lives_in_polyalg():
    # the float engine reads no exact moments: kernel defines neither name,
    # and none of the engine's modules binds one
    assert levbounds.moments is polyalg.moments
    assert levbounds.MomentTable is polyalg.MomentTable
    for module in (kernel, proportions, optimizer):
        assert not {"moments", "MomentTable"} & set(vars(module)), module.__name__


def test_the_test_references_are_not_in_the_package():
    # read only by the tests (kernel_reference, search_helpers), so no
    # command, the oracle and crosscheck_report included, can call them
    for module, name in ((oracle, "kernel_numeric"), (oracle, "cauchy_derivatives"),
                         (polyalg.MomentTable, "transpose"), (polyalg, "expand_twist"),
                         (optimizer, "grid_scan"), (optimizer, "DimensionTooHighError")):
        assert not hasattr(module, name) and not hasattr(levbounds, name), name


def test_the_readme_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^## Programmatic use\n.*?^```python\n(.*?)^```", readme,
                            re.DOTALL | re.MULTILINE)
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.split()) == 4
