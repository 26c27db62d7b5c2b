"""Acceptance gate: the nine numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as
they are produced; each test asserts its criterion at the stated
tolerance.
"""

import functools
import json
import math
import pathlib
import random

import pytest

from curvelab import cli, curves, frenet, jets, rectifying, verify
from curvelab.errors import CurveLabError

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


LEDGER = json.loads((pathlib.Path(__file__).parent
                     / "residual_ledger.json").read_text())


def test_residual_ledger():
    # every printed residual stays within a factor of its recorded figure,
    # and a figure recorded as 0.0 within its roundoff floor; a figure
    # below its entry is printed (pytest -s), so the entry can be lowered
    floors = LEDGER["zero_floors"]
    over = []
    for result in verify.run_suite("all", _workspace):
        entries = LEDGER["figures"].get(str(result.number), {})
        assert set(result.figures) == set(entries), result.number
        for name, got in result.figures.items():
            want = entries[name]
            bound = (LEDGER["factor"] * abs(want) if want
                     else floors[str(result.number)][name])
            if not abs(got) <= bound:
                over.append(f"criterion {result.number} {name}: {got!r} > "
                            f"{bound!r} (ledger {want!r})")
            elif abs(got) < abs(want):
                print(f"criterion {result.number} {name}: {got!r} is below "
                      f"its ledger entry {want!r}")
    assert not over, "; ".join(over)


def test_all_suites_cover_every_criterion():
    covered = set()
    for name, nums in verify.SUITES.items():
        if name != "all":
            covered.update(nums)
    assert covered == set(verify.SUITES["all"])


def test_criterion_2_builds_each_centre_frame_once(monkeypatch):
    ws = verify.Workspace()
    sources = [ws.source("lorentz_helix"), ws.constructed(3.0)]
    steps = (frenet.ODE_H, 2e-2, 1e-2, 5e-3)
    # reference: every frame built afresh
    want = []
    for src in sources:
        s = 0.5 * sum(src.s_range)
        frame = functools.partial(frenet.frenet_apparatus, src.spec, src.map)
        r = [max(frenet.frenet_ode_residual(src.spec, src.map, frame(s), h))
             for h in steps]
        want.append((r[0], [r[1] / r[2], r[2] / r[3]]))
    calls = []
    real = frenet.frenet_apparatus
    monkeypatch.setattr(frenet, "frenet_apparatus",
                        lambda spec, amap, s: calls.append(s)
                        or real(spec, amap, s))
    assert [verify._ode_numbers(src.spec, src.map, 0.5 * sum(src.s_range))
            for src in sources] == want
    # per curve: the centre frame once, and its two neighbours at each step
    assert len(calls) == len(sources) * (1 + 2 * len(steps))
    calls.clear()
    verify.criterion_2(ws)
    assert len(calls) == len(sources) * (1 + 2 * len(steps))


def test_criterion_7_extracts_each_sample_once(monkeypatch):
    calls = {"frame": 0, "t_of_s": 0, "rank": 0}

    def counted(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper
    monkeypatch.setattr(frenet, "frenet_apparatus",
                        counted("frame", frenet.frenet_apparatus))
    monkeypatch.setattr(frenet.ArclengthMap, "t_of_s",
                        counted("t_of_s", frenet.ArclengthMap.t_of_s))
    monkeypatch.setattr(frenet, "_derivative_rank",
                        counted("rank", frenet._derivative_rank))
    result = verify.criterion_7(verify.Workspace())
    assert result.passed, result.line()
    assert calls == {"frame": 100, "t_of_s": 100, "rank": 100}


def test_criterion_7_fails_when_the_planar_curve_gets_full_rank(
        monkeypatch):
    # full rank sends the planar frame past the planar check, into an
    # error of its own or a frame
    monkeypatch.setattr(frenet, "_derivative_rank", lambda a: 4)
    try:
        result = verify.criterion_7(verify.Workspace())
    except CurveLabError:
        return
    assert not result.passed


@pytest.mark.parametrize("mutant", [
    lambda rows, n: (rows + ["0.5,row"], n),
    lambda rows, n: (rows, n - 1),
], ids=["emits_a_row", "counts_one_sample_fewer"])
def test_criterion_7_fails_on_a_wrong_csv_path(monkeypatch, mutant):
    real = cli.frenet_rows
    monkeypatch.setattr(cli, "frenet_rows",
                        lambda spec, amap, n: mutant(*real(spec, amap, n)))
    assert not verify.criterion_7(verify.Workspace()).passed


def test_criterion_8_evaluates_each_stencil_node_once(monkeypatch):
    # reference: the same points, every stencil node evaluated afresh
    rng = random.Random(0)
    margin = 3 * max(verify._FD_STEPS.values())
    static_ids = [cid for cid in curves.catalog_ids() if ":" not in cid]
    want = 0.0
    for cid in static_ids:
        spec = curves.make_spec(cid)
        lo, hi = spec.domain
        for _ in range(50):
            t = rng.uniform(lo + margin, hi - margin)
            cj = curves.eval_curve(spec, t)
            for k, h in verify._FD_STEPS.items():
                w, half = verify._FD_STENCILS[k]
                vals = [[c[0] for c in curves.eval_curve(spec, t + o * h)]
                        for o in range(-half, half + 1)]
                approx = [math.fsum(c * v[i] for c, v in zip(w, vals))
                          / h ** k for i in range(4)]
                exact = [c[k] * jets._FACT[k] for c in cj]
                want = max(want, math.hypot(*(a - e for a, e
                                              in zip(approx, exact)))
                           / max(math.hypot(*exact), 1e-12))
    calls = {"eval_curve": [], "point": []}
    for name, log in calls.items():
        monkeypatch.setattr(curves, name, lambda spec, t, real=getattr(
            curves, name), log=log: log.append(t) or real(spec, t))
    assert verify.fd_oracle_error() == want
    # one jet evaluation per point for the exact derivatives; the nodes
    # t + o * 1e-2 and t + o * 8e-3 for o in -3..3 share o = 0
    points = len(static_ids) * 50
    assert len(calls["eval_curve"]) == points
    assert len(calls["point"]) == points * 13


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
        return f._replace(position=f.position + self.k * f.N)


def test_criterion_3_fails_on_a_negative_residual():
    ws = verify.Workspace()
    shifted = NormalShifted(_workspace.constructed(1.0), -1e-3)
    ws.constructed = lambda a: shifted
    result = verify.criterion_3(ws)
    assert not result.passed
    assert "max |g(alpha,N)| 1.000e-03" in result.detail


def test_criterion_4_passes_at_tolerances_equal_to_its_residuals(
        monkeypatch):
    # the report's verdict admits a residual equal to its tolerance, and
    # criterion 4 judges by that verdict
    src = _workspace.constructed(1.0)
    rep = rectifying.theorem33_report(src, list(src.grid_samples(50)),
                                      verify.REPORT_TOL)
    b = rep.binormal_components
    measured = rectifying.ReportTolerances(
        distance_lead=abs(rep.distance_quadratic["lead"] - 1.0),
        tangential_slope=abs(rep.tangential_linear["slope"] - 1.0),
        normal_constancy=rep.normal_constancy["max_deviation"],
        binormal_residual=max(b["residual_b1"], b["residual_b2"]),
        thm31_rms=rep.thm31.rms_residual,
        drift=rep.constant_vector_drift)
    monkeypatch.setattr(verify, "REPORT_TOL", measured)
    assert verify.criterion_4(_workspace).passed
