"""Fixtures shared by the test modules."""

import pytest

from levbounds import optimizer
from levbounds.optimizer import IllPosedSolveError


@pytest.fixture
def fail_solves_above(monkeypatch):
    """fail_solves_above(R_max) makes every search step at R > R_max fail
    with IllPosedSolveError and returns the list that collects those R."""

    def install(R_max: float) -> list[float]:
        failed = []

        def failing(solve):
            def solve_or_fail(self, R, state):
                if R > R_max:
                    failed.append(R)
                    raise IllPosedSolveError(f"no solve above R = {R_max}")
                return solve(self, R, state)
            return solve_or_fail

        for cls in optimizer._SOLVES.values():
            monkeypatch.setattr(cls, "solve", failing(cls.solve))
        return failed

    return install
