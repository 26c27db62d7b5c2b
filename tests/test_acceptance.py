"""Acceptance gate: the nine numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as
they are produced; each test asserts its criterion at the stated
tolerance.
"""

import dataclasses

import pytest

from curvelab import verify

_workspace = verify.Workspace()


@pytest.mark.parametrize(
    "criterion",
    verify.CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, 10)],
)
def test_acceptance(criterion):
    result = criterion(_workspace)
    print(result.line())
    assert result.passed, result.line()


def test_all_suites_cover_every_criterion():
    covered = set()
    for name, nums in verify.SUITES.items():
        if name != "all":
            covered.update(nums)
    assert covered == set(verify.SUITES["all"])


class NormalShifted:
    """A frame source whose positions move by k*N(s), so g(alpha, N)
    gains k at every sample; the rest comes from ``base``."""

    def __init__(self, base, k):
        self.base = base
        self.k = k

    def __getattr__(self, name):
        return getattr(self.base, name)

    def frame(self, s):
        f = self.base.frame(s)
        return dataclasses.replace(f, position=f.position + self.k * f.N)


def test_criterion_3_fails_on_a_negative_residual():
    ws = verify.Workspace()
    shifted = NormalShifted(_workspace.constructed(1.0), -1e-3)
    ws.constructed = lambda a: shifted
    result = verify.criterion_3(ws)
    assert not result.passed
    assert "max |g(alpha,N)| 1.000e-03" in result.detail
