"""Search specs shared by the test modules."""

from dataclasses import replace

from levbounds.optimizer import SCALAR, SEARCH_FIELDS, SearchSpec


def hold_shapes(spec: SearchSpec) -> SearchSpec:
    """spec with every shape entry held at its start by a [v, v] bound."""
    scalars = {name for name, size in SEARCH_FIELDS[spec.target][1] if size == SCALAR}
    held = {name: (v, v) for name, v in zip(spec.vector_names(), spec.initial_point)
            if name not in scalars}
    return replace(spec, scalar_bounds={**spec.scalar_bounds, **held})
