"""Search specs shared by the test modules, and grid_scan, the brute-force
lattice referee of the optimizer over at most three free entries."""

import itertools
from dataclasses import replace

import numpy as np

from levbounds.optimizer import (_SOLVES, SCALAR, SEARCH_FIELDS, SearchResult, SearchSpec,
                                 _integer, _Record)
from levbounds.reference import section_five_reference, section_four_reference


class DimensionTooHighError(ValueError):
    """grid_scan asked to lattice more than 3 free entries."""


def nu_spec(**overrides) -> SearchSpec:
    """A minimize_nu search from the section-4 reference point."""
    p4 = section_four_reference()
    return SearchSpec(**{"target": "minimize_nu", "shape_degrees": (2, 2),
                         "scalar_bounds": {"r": (0.5, 2.0), "R": (0.3, 1.0)}, "theta": 1.0,
                         "initial_point": (-0.158, 0.25, 0.492, 0.075, p4.r, p4.R),
                         "budget": 300, **overrides})


def kappa_spec(**overrides) -> SearchSpec:
    """A maximize_kappa search from the section-5 reference point."""
    p5 = section_five_reference()
    return SearchSpec(**{"target": "maximize_kappa", "shape_degrees": (3, 2),
                         "scalar_bounds": {"R": (0.5, 1.0), "delta": (0.5, 1.0)}, "theta": 1.0,
                         "initial_point": (-0.482, -0.392, -0.262, -0.673, 0.369, -4.635,
                                           p5.R, p5.delta),
                         "budget": 300, **overrides})


def hold_shapes(spec: SearchSpec) -> SearchSpec:
    """spec with every shape entry held at its start by a [v, v] bound."""
    scalars = {name for name, size in SEARCH_FIELDS[spec.target][1] if size == SCALAR}
    held = {name: (v, v) for name, v in zip(spec.vector_names(), spec.initial_point)
            if name not in scalars}
    return replace(spec, scalar_bounds={**spec.scalar_bounds, **held})


def grid_scan(spec: SearchSpec, resolution: int) -> SearchResult:
    """Exhaustive lattice over the free entries, each within its bounds.

    resolution >= 2 places that many points per axis; resolution 1
    degenerates to the bound corners plus the midpoint.
    """
    free = spec.free_indices()
    if len(free) > 3:
        raise DimensionTooHighError(
            f"grid_scan supports at most 3 free entries, got {len(free)}")
    names = spec.vector_names()
    unbounded = [names[i] for i in free if i not in spec.bounds_by_index]
    if unbounded:
        raise ValueError(f"grid_scan needs bounds on every free entry, "
                         f"got none on {', '.join(unbounded)}")
    if not _integer(resolution) or resolution < 1:
        raise ValueError(f"resolution must be an integer >= 1, got {resolution!r}")

    axes = [np.array([lo, 0.5 * (lo + hi), hi]) if resolution == 1
            else np.linspace(lo, hi, resolution)
            for lo, hi in (spec.bounds_by_index[i] for i in free)]

    record = _Record(_SOLVES[spec.target](spec))
    base = np.array(spec.initial_point, dtype=float)
    for point in itertools.product(*axes):  # last axis fastest; one point if none
        v = base.copy()
        v[list(free)] = point
        record(v)
    return record.result("every lattice point failed to evaluate")
