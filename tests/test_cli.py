"""Command-line contract: exit codes, CSV/JSON shapes, round trips."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvelab import cli, curves, frenet, rectifying
from curvelab.errors import OutOfDomain
from curvelab.lorentz import Vec4


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_helix_frenet_evaluates_the_curve_three_times_per_row(monkeypatch):
    # the helix's arclength is exact, so building its map evaluates
    # nothing, and a row evaluates the curve once for each of its frames
    # at s - h, s and s + h
    calls = []
    real = curves.eval_curve
    monkeypatch.setattr(curves, "eval_curve",
                        lambda spec, t: calls.append(t) or real(spec, t))
    frenet.arclength_map(curves.make_spec("lorentz_helix"))
    assert calls == []
    code, text = run(["frenet", "--curve", "lorentz_helix", "--samples", "20"])
    rows = text.splitlines()[1:-1]
    assert code == 0 and len(rows) == 20
    assert len(calls) == 3 * len(rows)


def test_classify_spacelike():
    code, text = run(["classify", "--curve", "hyperbolic_geodesic",
                      "--at", "0"])
    assert code == 0
    assert "spacelike" in text


# helices whose velocity's squares overflow or underflow: (Bq)^2 - (Ap)^2
# at any scale has the sign of |B| - |A|
@pytest.mark.parametrize("A, B, want", [
    ("1e160", "2e160", "spacelike"), ("1e160", "5e159", "timelike"),
    ("1e-170", "2e-170", "spacelike")], ids=["huge", "huge_timelike", "tiny"])
def test_classify_a_helix_at_any_scale(A, B, want):
    code, text = run(["classify", "--curve", "lorentz_helix", "--param",
                      f"A={A}", "--param", f"B={B}", "--at", "1"])
    assert (code, text) == (0, f"t=1.0: {want}\n")


def test_classify_out_of_domain_exits_2(capsys):
    code, _ = run(["classify", "--curve", "hyperbolic_geodesic",
                   "--at", "99"])
    assert code == 2
    assert "OutOfDomain" in capsys.readouterr().err


def test_classify_pole_exits_2(capsys):
    # a paper_example domain straddling the sine pole is rejected by name
    code, _ = run(["classify", "--curve", "paper_example",
                   "--domain", "3.0", "3.3", "--at", "3.1"])
    assert code == 2
    assert "PoleEncountered" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "--curve", "hyperbolic_geodesic", "--domain", "0", "800",
     "--at", "750"],
    ["frenet", "--curve", "lorentz_helix", "--param", "p=1000",
     "--param", "q=2000", "--samples", "5"],
    ["classify", "--curve", "lorentz_helix", "--param", "A=1e308",
     "--param", "B=1e308", "--at", "2"],
    ["construct", "--curve", "hyperbolic_geodesic", "--a", "1e308",
     "--t0", "-1.5", "--samples", "3"],
    ["classify", "--curve", "lorentz_helix", "--param", "p=0",
     "--param", "q=1e300", "--param", "A=0", "--domain", "0", "1e10",
     "--at", "1e10"],
    ["frenet", "--curve", "paper_example", "--param", "a=1e308",
     "--samples", "3"],
    ["frenet", "--curve", "lorentz_helix", "--param", "B=1e200",
     "--param", "q=1e200", "--samples", "3"],
    ["rectify-check", "--curve", "lorentz_helix", "--param", "B=1e200",
     "--param", "q=1e200"],
], ids=["classify", "frenet", "classify_product", "construct_product",
        "classify_sine_argument", "frenet_velocity", "frenet_helix_speed",
        "rectify_check_helix_speed"])
def test_a_coordinate_that_overflows_exits_2(argv, capsys):
    # sinh past ~710.5 overflows floating point, and so does A * cosh(pt)
    # with A near the largest float, or a / cosh(u + t0) * cosh(u) with t0
    # < 0, or the argument q t of the helix's sine, or the velocity of
    # paper_example at a = 1e308, or the helix's factor Bq = 1e400: a typed
    # error, not a traceback with the "property failed" code, an inf in the
    # CSV or a velocity called non-spacelike
    code, _ = run(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "PoleEncountered" in err and "overflows floating point" in err


def _kappas(text):
    """kappa1, kappa2, kappa3 and eps of each row of a frenet CSV."""
    return [[float(x) for x in line.split(",")[21:25]]
            for line in text.splitlines()[1:-1]]


def test_a_fast_helix_gives_the_unit_helix_curvatures():
    # the default helix with t scaled by 1e-45, at speed about 1.7e45:
    # reverting its arclength jet took the seventh power of the speed,
    # which overflows; the chain rule in t squares it only
    code, text = run(["frenet", "--curve", "lorentz_helix", "--samples", "3",
                      "--param", "p=1e45", "--param", "q=1e45",
                      "--domain", "0", "3e-45"])
    _, unit = run(["frenet", "--curve", "lorentz_helix", "--samples", "3"])
    assert code == 0 and text.endswith("# degenerate_samples=0\n")
    for got, want in zip(_kappas(text), _kappas(unit), strict=True):
        assert all(math.isclose(x, y, rel_tol=1e-13)
                   for x, y in zip(got, want)), (got, want)


def test_a_speed_too_small_to_square_exits_2(capsys):
    # kappa1 of a helix of scale 1e-160 is about 1e160, whose square leaves
    # floating point: a typed error, not a NaN in a Vec4
    code, _ = run(["frenet", "--curve", "lorentz_helix", "--samples", "3",
                   "--param", "A=1e-160", "--param", "B=2e-160"])
    assert code == 2
    err = capsys.readouterr().err
    assert "DivisionNearZero" in err and "leaves floating point" in err


def test_a_velocity_too_large_to_square_exits_2(capsys):
    # clelia's velocity at t = 356.28 is finite and spacelike, its
    # components near 3e154, but their squares overflow: g is NaN, which
    # says nothing of the velocity's causal character
    code, _ = run(["frenet", "--curve", "hyperbolic_clelia",
                   "--domain", "0.25", "400", "--samples", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "DivisionNearZero" in err and "leaves floating point" in err


@pytest.mark.parametrize("command", ["frenet", "rectify-check"])
def test_a_spacelike_helix_whose_speed_squares_past_floating_point_exits_2(
        command, capsys):
    # the speed sqrt(3) * 1e160 is a float and classify calls the helix
    # spacelike, but (Bq)^2 - (Ap)^2 = 3e320 is not: the arclength map has
    # no speed to divide by, and does not call the helix non-spacelike
    code, _ = run([command, "--curve", "lorentz_helix", "--param", "A=1e160",
                   "--param", "B=2e160"])
    assert code == 2
    err = capsys.readouterr().err
    assert "DivisionNearZero" in err and "leaves floating point" in err


def test_an_unexpected_exception_exits_70(monkeypatch, capsys):
    # an arithmetic slip in the kernel is a fault of the program, not the
    # verdict "not rectifying" that exit 1 means
    def kernel(a, s):
        return 1.0 / 0.0
    monkeypatch.setattr(frenet, "_frame_from_position_jets", kernel)
    code, _ = run(["frenet", "--curve", "lorentz_helix", "--samples", "3"])
    assert code == cli.EXIT_SOFTWARE == 70
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "ZeroDivisionError" in err


@pytest.mark.parametrize("argv, accepted", [
    (["frenet", "--curve", "lorentz_helix", "--param", "Z=3"], "A, p, B, q"),
    (["classify", "--curve", "hyperbolic_geodesic", "--param", "a=1",
      "--at", "0"], "none"),
    (["synthesize", "--profile", "constant", "--param", "kk1=5"],
     "k1, k2, k3"),
    (["synthesize", "--profile", "cosh_over_s", "--param", "k1=5"], "none"),
], ids=["frenet", "classify", "constant", "cosh_over_s"])
def test_unknown_parameter_exits_64(argv, accepted, capsys):
    code, text = run(argv)
    assert code == 64 and text == ""
    assert f"(accepted: {accepted})" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--curve", "lorentz_helix", "--param", "p=3"],
    ["--domain", "0.0", "1.0"],
], ids=["curve_param", "domain"])
def test_synthesis_check_rejects_curve_flags(tmp_path, capsys, extra):
    path = tmp_path / "syn.csv"
    code, _ = run(["synthesize", "--ds", "2e-2", "--samples", "11",
                   "-o", str(path)])
    assert code == 0
    code, text = run(["rectify-check", "--from-synthesis", str(path),
                      "--samples", "11", *extra])
    assert code == 64 and text == ""
    assert extra[0] in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config_id", "config_construct"])
def test_synthesize_rejects_a_curve(tmp_path, capsys, source):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"id": "lorentz_helix"}' if source == "config_id"
                   else '{"construct": {"a": 1.0}}')
    curve = (["--curve", "lorentz_helix"] if source == "flag"
             else ["--config", str(cfg)])
    code, text = run(["synthesize", *curve, "--ds", "2e-2",
                      "--samples", "3"])
    assert code == 64 and text == ""
    assert "not a curve" in capsys.readouterr().err


def test_unknown_curve_exits_64():
    code, _ = run(["classify", "--curve", "nope", "--at", "0"])
    assert code == 64


def test_missing_subcommand_exits_64():
    code, _ = run([])
    assert code == 64


def test_frenet_csv_shape(tmp_path):
    path = tmp_path / "helix.csv"
    code, _ = run(["frenet", "--curve", "lorentz_helix", "--samples", "20",
                   "-o", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == cli.FRENET_HEADER
    assert lines[-1] == "# degenerate_samples=0"
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 20
    assert all(len(r) == 26 for r in rows)
    kappa1 = [float(r[21]) for r in rows]
    assert max(kappa1) - min(kappa1) < 1e-8


def test_frenet_csv_round_trips_exact_floats(tmp_path):
    path = tmp_path / "helix.csv"
    run(["frenet", "--curve", "lorentz_helix", "--samples", "5",
         "-o", str(path)])
    for line in path.read_text().splitlines()[1:-1]:
        for tok in line.split(","):
            v = float(tok)
            if tok not in ("-1", "1"):          # the eps column
                assert repr(v) == tok


def test_frenet_degenerate_curve(tmp_path):
    path = tmp_path / "flat.csv"
    code, _ = run(["frenet", "--curve", "paper_example", "--samples", "12",
                   "-o", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines == [cli.FRENET_HEADER, "# degenerate_samples=12"]


def test_frenet_on_a_curve_shorter_than_two_ode_steps(tmp_path):
    # covered arclength 5.2e-3: the residual steps shrink to the samples'
    # 1% padding, so s - h of the first sample is 0, not below it
    path = tmp_path / "short.csv"
    code, _ = run(["frenet", "--curve", "lorentz_helix", "--param", "A=1e-3",
                   "--param", "B=2e-3", "--samples", "3", "-o", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == cli.FRENET_HEADER
    assert lines[-1] == "# degenerate_samples=0"
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 3
    assert all(math.isfinite(float(r[-1])) for r in rows)


def test_frenet_on_a_wide_clelia_domain(tmp_path):
    # arclength near 2e6: the adaptive-Simpson map this replaced met its
    # absolute tolerance nowhere near t = 14.88 and exited 2
    path = tmp_path / "wide.csv"
    code, _ = run(["frenet", "--curve", "hyperbolic_clelia", "--domain",
                   "0.25", "15", "--samples", "5", "-o", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == cli.FRENET_HEADER
    assert lines[-1] == "# degenerate_samples=0"
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 5
    assert all(math.isfinite(float(x)) for r in rows for x in r)


def test_frenet_one_sample_exits_64():
    code, _ = run(["frenet", "--curve", "lorentz_helix", "--samples", "1"])
    assert code == 64


def test_rectify_check_helix_fails(tmp_path):
    path = tmp_path / "rep.json"
    code, _ = run(["rectify-check", "--curve", "lorentz_helix",
                   "--samples", "40", "-o", str(path)])
    assert code == 1
    rep = json.loads(path.read_text())
    assert rep["verdict"] is False
    assert rep["thm31"]["rms_residual"] > 1e-2
    assert set(rep) == {"curve", "samples", "thm31", "thm33",
                        "constant_vector_drift", "verdict", "tolerances",
                        "warnings"}


def test_rectify_check_constructed_via_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "id": "hyperbolic_clelia",
        "construct": {"a": 1.0, "t0": 0.3, "domain": [0.35, 1.2]},
    }))
    path = tmp_path / "rep.json"
    code, _ = run(["rectify-check", "--config", str(cfg), "--samples", "50",
                   "-o", str(path)])
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["verdict"] is True
    assert rep["warnings"]


def test_rectify_check_malformed_config_exits_64(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _ = run(["rectify-check", "--config", str(cfg)])
    assert code == 64


@pytest.mark.parametrize("command, text", [
    ("frenet", '{"id": "lorentz_helix", "domain": 5}'),
    ("frenet", '{"id": "lorentz_helix", "domain": ["a", 1]}'),
    ("frenet", '{"id": "lorentz_helix", "params": [1]}'),
    ("frenet", '{"id": "lorentz_helix", "domain": [0, NaN]}'),
    ("frenet", '{"id": ["lorentz_helix"]}'),
    ("synthesize", '{"domain": 5}'),
    ("synthesize", '{"params": {"k1": "x"}}'),
    ("frenet", '{"id": "hyperbolic_clelia", '
               '"construct": {"a": 2, "domain": [0.4, 1.0, 1.1]}}'),
    ("frenet", '{"id": "hyperbolic_clelia", '
               '"construct": {"a": 2, "domain": [1.0]}}'),
], ids=["domain_int", "domain_str", "params_list", "domain_nan", "id_list",
        "synthesize_domain_int", "synthesize_params_str",
        "construct_domain_three", "construct_domain_one"])
def test_malformed_config_field_exits_64(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _ = run([command, "--config", str(cfg), "--samples", "3"])
    assert code == 64
    err = capsys.readouterr().err
    assert "usage error" in err
    if "construct" in text:
        assert '"construct.domain" must be two finite numbers' in err


def test_construct_reproduces_example_coordinates(tmp_path):
    # phase -pi/2 puts the radius-law maximum at arclength pi/2, where the
    # constructed point coincides with the sphere point itself
    path = tmp_path / "cons.csv"
    code, text = run(["construct", "--curve", "hyperbolic_geodesic",
                      "--a", "1", "--t0", repr(-math.pi / 2),
                      "--construct-domain", "0.1", "1.9",
                      "--samples", "11", "-o", str(path)])
    assert code == 0
    assert "registered: " in text
    lines = path.read_text().splitlines()
    assert lines[0] == cli.POSITION_HEADER
    rows = {float(r.split(",")[0]): [float(v) for v in r.split(",")[1:]]
            for r in lines[1:]}
    u = math.pi / 2
    nearest = min(rows, key=lambda s: abs(s - u))
    # the grid does not hit pi/2 exactly; evaluate the registered id directly
    reg_id = text.split("registered: ")[1].strip()
    from curvelab import curves
    cj = curves.eval_curve(curves.make_spec(reg_id), u)
    p = Vec4(*(c[0] for c in cj))
    assert math.isclose(p.components[0], math.cosh(u), rel_tol=1e-12)
    assert abs(p.components[1]) < 1e-12
    assert math.isclose(p.components[2], math.sinh(u), rel_tol=1e-12)
    assert abs(rows[nearest][0] - math.cosh(nearest)) < 0.05


def test_construct_zero_scale_exits_64():
    code, _ = run(["construct", "--curve", "hyperbolic_geodesic", "--a", "0"])
    assert code == 64


def test_construct_non_sphere_input_exits_2(capsys):
    code, _ = run(["construct", "--curve", "lorentz_helix", "--a", "1"])
    assert code == 2
    assert "NotOnHyperbolicSphere" in capsys.readouterr().err


def test_construct_overflowing_radius_law_exits_2(capsys):
    code, _ = run(["construct", "--curve", "hyperbolic_clelia", "--a", "1",
                   "--t0", "800", "--construct-domain", "0.35", "1.2",
                   "--samples", "3"])
    assert code == 2
    assert "NonSpacelikeVelocity" in capsys.readouterr().err


def test_synthesize_negative_ds_exits_64():
    code, _ = run(["synthesize", "--ds", "-0.1"])
    assert code == 64


@pytest.mark.parametrize("tol", ["nan", "0"])
def test_synthesize_bad_drift_tol_exits_64(tol):
    code, _ = run(["synthesize", "--drift-tol", tol])
    assert code == 64


@pytest.mark.parametrize("ds", ["1e-13", "1e-300"])
def test_synthesize_refuses_too_many_steps(capsys, ds):
    # 2e13 and 2e300 steps over the default range 0.5-2.5: refused before
    # the first step, where the table would have run out of memory
    code, _ = run(["synthesize", "--ds", ds])
    assert code == 64
    assert "RK4 steps, more than 10000000" in capsys.readouterr().err


@pytest.mark.parametrize("domain", [("2.5", "0.5"), ("0.5", "0.5")],
                         ids=["reversed", "empty"])
def test_synthesize_reversed_or_empty_domain_exits_2(tmp_path, capsys,
                                                     domain):
    # rejected as a curve's domain is, before a one-row file is written
    path = tmp_path / "x.csv"
    code, text = run(["synthesize", "--profile", "cosh_over_s", "--domain",
                      *domain, "--samples", "5", "-o", str(path)])
    assert code == 2
    assert text == "" and not path.exists()
    assert (f"OutOfDomain: domain must be a nonempty interval, got "
            f"({float(domain[0])}, {float(domain[1])})"
            in capsys.readouterr().err)


_NAN_CONFIG = "<nan config>"


@pytest.mark.parametrize("argv", [
    ["construct", "--curve", "hyperbolic_clelia", "--a", "nan"],
    ["construct", "--curve", "hyperbolic_clelia", "--a", "1", "--t0", "nan"],
    ["rectify-check", "--curve", "lorentz_helix", "--c", "nan"],
    ["synthesize", "--ds", "nan"],
    ["synthesize", "--domain", "0.5", "nan"],
    ["classify", "--curve", "hyperbolic_clelia", "--at", "nan"],
    ["classify", "--config", _NAN_CONFIG, "--at", "0.5"],
], ids=["a", "t0", "c", "ds", "domain", "at", "config_construct_a"])
def test_non_finite_number_exits_64(tmp_path, argv):
    # Python's json reads NaN, so a config file can carry one too
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"id": "hyperbolic_clelia", "construct": {"a": NaN}}')
    code, _ = run([str(cfg) if a == _NAN_CONFIG else a for a in argv])
    assert code == 64


def test_nan_curve_parameter_exits_64_without_hanging():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "curvelab.cli", "frenet", "--curve",
         "lorentz_helix", "--param", "p=nan", "--samples", "3"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert "finite" in proc.stderr


def test_synthesize_and_check_round_trip(tmp_path):
    path = tmp_path / "syn.csv"
    code, text = run(["synthesize", "--profile", "cosh_over_s",
                      "--samples", "21", "-o", str(path)])
    assert code == 0
    assert "max_gram_drift=" in text
    lines = path.read_text().splitlines()
    assert lines[0] == cli.SYNTH_HEADER

    rep_path = tmp_path / "rep.json"
    code, _ = run(["rectify-check", "--from-synthesis", str(path),
                   "--c", "0", "--samples", "21", "-o", str(rep_path)])
    assert code == 0
    assert json.loads(rep_path.read_text())["verdict"] is True


def test_synthesis_check_without_c_takes_c_from_the_curvatures(tmp_path):
    # the positions are about the synthesis origin, so g(alpha, T) - s
    # says nothing of c; the curvatures and the torsion angle do
    path = tmp_path / "syn.csv"
    run(["synthesize", "--profile", "cosh_over_s", "--samples", "21",
         "-o", str(path)])
    rep_path = tmp_path / "rep.json"
    code, _ = run(["rectify-check", "--from-synthesis", str(path),
                   "--samples", "21", "-o", str(rep_path)])
    rep = json.loads(rep_path.read_text())
    assert code == 0
    assert rep["verdict"] is True
    assert abs(rep["thm31"]["c"]) < 1e-12        # the profile's c is 0


@pytest.mark.parametrize("c_flag, reads", [([], 802), (["--c", "0"], 802)],
                         ids=["free_c", "given_c"])
def test_synthesis_check_reads_each_row_twice(tmp_path, monkeypatch,
                                              c_flag, reads):
    # one gather serves the c solve, the fit and the shift, which is built
    # from the fit's first frame; the battery on the shifted table is the
    # second read of each row
    path = tmp_path / "syn.csv"
    run(["synthesize", "--profile", "cosh_over_s", "--samples", "401",
         "-o", str(path)])
    calls = []
    frame = cli.CsvFrameSource.frame
    monkeypatch.setattr(cli.CsvFrameSource, "frame",
                        lambda self, s: calls.append(s) or frame(self, s))
    code, _ = run(["rectify-check", "--from-synthesis", str(path),
                   *c_flag, "--samples", "401"])
    assert code == 0
    assert len(calls) == reads


@pytest.mark.parametrize("c", [None, 0.0], ids=["free_c", "given_c"])
def test_recentring_shifts_by_minus_the_witness(tmp_path, synthesis_lines, c):
    # the shift is built from the fit's first frame and torsion angle: the
    # same bits as the witness of a fresh read at the first sample
    path = tmp_path / "syn.csv"
    path.write_text("\n".join(synthesis_lines) + "\n")
    src = cli.CsvFrameSource(str(path))
    samples = src.grid_samples(21)
    shifted, fit = rectifying.recentred(src, samples, c)
    if c is None:
        c, _ = rectifying.thm31_min_rms_over_c(src, samples)
    assert fit == rectifying.fit_theorem31(src, samples, c=c)
    shift = -rectifying.constant_vector_X(src, samples[0], fit)
    assert shifted.base is src
    assert [x.hex() for x in shifted.shift] == [x.hex() for x in shift]


def test_synthesize_drift_ratio(tmp_path):
    def drift(ds):
        _, text = run(["synthesize", "--profile", "constant",
                       "--domain", "0", "2", "--ds", ds, "--drift-tol", "1",
                       "--samples", "3", "-o", str(tmp_path / "d.csv")])
        return float(text.split("max_gram_drift=")[1].split()[0])

    assert drift("0.2") / drift("0.1") > 10.0


def test_synthesize_drift_abort_writes_partial(tmp_path):
    path = tmp_path / "partial.csv"
    code, text = run(["synthesize", "--profile", "constant",
                      "--domain", "0", "2", "--ds", "0.2",
                      "--drift-tol", "1e-9",
                      "--samples", "5", "-o", str(path)])
    assert code == 1
    assert "error" in text
    lines = path.read_text().splitlines()
    assert lines[0] == cli.SYNTH_HEADER
    assert len(lines) > 1
    # the partial file, comment line included, reads back as a frame source
    assert len(cli.CsvFrameSource(str(path)).s) == len(lines) - 2


def test_synthesize_non_finite_curvature_exits_64(capsys):
    code, _ = run(["synthesize", "--profile", "constant", "--param", "k1=nan"])
    assert code == 64
    assert "finite" in capsys.readouterr().err


def test_synthesize_overflow_writes_finite_partial(tmp_path):
    # the first step overflows; the partial file keeps only finite states
    path = tmp_path / "partial.csv"
    code, text = run(["synthesize", "--profile", "constant",
                      "--param", "k1=1e200", "--ds", "0.5", "--samples", "3",
                      "-o", str(path)])
    assert code == 1
    assert "error: Gram drift" in text
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]
            if not line.startswith("#")]
    assert rows
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_synthesis_csv_reads_back_as_the_same_table(tmp_path):
    path = tmp_path / "syn.csv"
    code, _ = run(["synthesize", "--profile", "cosh_over_s",
                   "--domain", "0.5", "1.0", "--ds", "1e-2",
                   "--samples", "11", "-o", str(path)])
    assert code == 0
    curve = frenet.synthesize_curve(frenet.rectifying_profile((0.5, 1.0)),
                                    ds=1e-2)
    src = cli.CsvFrameSource(str(path))
    assert isinstance(src, frenet.SynthesizedCurve)
    for name in ("s_range", "_index", "grid_samples"):
        assert name not in vars(cli.CsvFrameSource)
    written = [float(s) for s in curve.grid_samples(11)]
    assert list(src.s) == written
    assert src.s_range == (written[0], written[-1])
    assert list(src.grid_samples(11)) == written
    for s in written:
        a, b = curve.frame(s), src.frame(s)
        for v in ("position", "T", "N", "B1", "B2"):
            assert getattr(a, v).components == getattr(b, v).components
        assert ((a.s, a.kappa1, a.kappa2, a.kappa3, a.eps)
                == (b.s, b.kappa1, b.kappa2, b.kappa3, b.eps))
        assert curve.kappa3_integral(s) == src.kappa3_integral(s)
    with pytest.raises(OutOfDomain):
        src.frame(0.5 * (written[0] + written[1]))


def _assert_plain_frame(f: frenet.FrenetData) -> None:
    for name in f._fields:
        value = getattr(f, name)
        if name == "eps":
            assert type(value) is int
        elif isinstance(value, tuple):
            assert type(value) is Vec4, name
            assert [type(x) for x in value] == [float] * 4, name
        else:
            assert type(value) is float, name


def test_every_frame_source_gives_plain_floats(tmp_path):
    # no numpy scalar leaves the frame layer, table rows included
    path = tmp_path / "syn.csv"
    code, _ = run(["synthesize", "--domain", "0.5", "1.0", "--ds", "1e-2",
                   "--samples", "11", "-o", str(path)])
    assert code == 0
    jet = frenet.JetFrameSource(curves.make_spec("lorentz_helix"))
    table = frenet.synthesize_curve(frenet.rectifying_profile((0.5, 1.0)),
                                    ds=1e-2)
    csv = cli.CsvFrameSource(str(path))
    shifted = frenet.TranslatedSource(csv, Vec4(0.25, -0.5, 1.0, 2.0))
    for src in (jet, table, csv, shifted):
        samples = (src.base if src is shifted else src).grid_samples(4)
        assert [type(s) for s in samples] == [float] * 4
        for s in samples:
            _assert_plain_frame(src.frame(s))
            assert type(src.kappa3_integral(s)) is float


@pytest.fixture(scope="module")
def synthesis_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "syn.csv"
    code, _ = run(["synthesize", "--ds", "2e-3", "--samples", "21",
                   "-o", str(path)])
    assert code == 0
    return path.read_text().splitlines()


def _set_cell(col, value):
    def edit(lines):
        cells = lines[3].split(",")
        cells[col] = value
        lines[3] = ",".join(cells)
    return edit


def _drop_last_cell(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]


def _repeat_s(lines):
    lines[3] = lines[2].split(",")[0] + "," + lines[3].split(",", 1)[1]


def _add_comments(lines):
    lines[1:1] = ["# a comment", ""]


@pytest.mark.parametrize("edit, code, message", [
    (_drop_last_cell, 64, "line 4: 25 fields"),
    (_set_cell(5, "abc"), 64, "line 4: could not convert"),
    (_set_cell(5, "nan"), 64, "line 4: non-finite"),
    (_set_cell(24, "3"), 64, "line 4: eps must be 1 or -1"),
    (_set_cell(21, "-1.5"), 64, "line 4: curvatures must be positive"),
    (_set_cell(22, "0"), 64, "line 4: curvatures must be positive"),
    (_set_cell(23, "-0.0"), 64, "line 4: curvatures must be positive"),
    (_repeat_s, 64, "line 4: s does not increase"),
    (_add_comments, 0, ""),
], ids=["short_row", "non_numeric", "nan", "eps_3", "kappa1_negative",
        "kappa2_zero", "kappa3_zero", "s_repeated", "comments_accepted"])
def test_rectify_check_validates_synthesis_csv(tmp_path, capsys,
                                               synthesis_lines, edit, code,
                                               message):
    lines = list(synthesis_lines)
    edit(lines)
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    got, _ = run(["rectify-check", "--from-synthesis", str(path),
                  "--c", "0", "--samples", "21"])
    assert got == code
    if message:
        assert f"{path} {message}" in capsys.readouterr().err


def _t_int_plus_800(lines):
    # cosh t of a torsion angle past 710 leaves floating point
    out = []
    for line in lines:
        if line and line[0] not in "s#":
            head, t_int = line.rsplit(",", 1)
            line = f"{head},{float(t_int) + 800.0!r}"
        out.append(line)
    return out


# the files an exit case names, each made from the synthesis CSV's lines
_EXIT_FILES = {
    "list.json": lambda lines: ["[1]"],
    "no_a.json": lambda lines: [
        '{"id": "hyperbolic_clelia", "construct": {"t0": 0.3}}'],
    "a_zero.json": lambda lines: [
        '{"id": "hyperbolic_clelia", "construct": {"a": 0}}'],
    "header.csv": lambda lines: ["s,x", *lines[1:]],
    "one_row.csv": lambda lines: lines[:2],
    "t_int_800.csv": _t_int_plus_800,
}


@pytest.mark.parametrize("argv, code, fragment", [
    (["frenet", "--curve", "lorentz_helix", "--domain", "abc", "1"], 64,
     "invalid float value"),
    (["frenet", "--curve", "lorentz_helix", "--samples", "x"], 64,
     "invalid int value"),
    (["frenet", "--config", "list.json"], 64, "must hold a JSON object"),
    (["frenet", "--curve", "lorentz_helix", "--param", "A"], 64,
     "wants NAME=VALUE"),
    (["frenet", "--curve", "lorentz_helix", "--param", "A=x"], 64,
     "is not a number"),
    (["frenet"], 64, "no curve id given"),
    (["frenet", "--config", "no_a.json"], 64, 'needs at least "a"'),
    (["frenet", "--config", "a_zero.json"], 64, "bad construct block"),
    (["rectify-check", "--from-synthesis", "header.csv"], 64,
     "is not a synthesis CSV"),
    (["rectify-check", "--from-synthesis", "one_row.csv"], 64,
     "fewer than 2 samples"),
    (["rectify-check", "--curve", "lorentz_helix", "--samples", "5"], 64,
     "at least 8"),
    (["synthesize", "--eps", "2"], 64, "--eps must be 1 or -1"),
    (["synthesize", "--profile", "nope"], 64,
     "usage error: unknown profile 'nope' (profiles: constant, "
     "cosh_over_s)\n"),
    (["synthesize", "--domain", "0", "1"], 64, "needs s > 0"),
    (["frenet", "--curve", "paper_example", "--param", "a=0"], 64,
     "requires a != 0"),
    (["frenet", "--curve", "paper_example", "--domain", "0.5", "4"], 2,
     "PoleEncountered: domain spans a full period"),
    (["construct", "--curve", "hyperbolic_clelia", "--a", "2",
      "--construct-domain", "0.35", "99"], 2,
     "OutOfDomain: construction domain (0.35, 99.0) outside arclength range"),
    (["rectify-check", "--from-synthesis", "missing.csv"], 2,
     "error: [Errno 2] No such file or directory: 'missing.csv'"),
    (["rectify-check", "--from-synthesis", "t_int_800.csv", "--samples",
      "21"], 2, "IllConditionedFit: cosh/sinh of the torsion angle overflows"),
    (["rectify-check", "--from-synthesis", "t_int_800.csv", "--samples",
      "21", "--c", "0"], 2,
     "IllConditionedFit: cosh/sinh of the torsion angle overflows"),
], ids=["domain_not_float", "samples_not_int", "config_not_object",
        "param_without_value", "param_not_number", "no_curve",
        "construct_without_a", "construct_a_zero", "synthesis_header",
        "synthesis_one_row", "check_five_samples", "synthesize_eps_2",
        "unknown_profile", "profile_at_s_0", "paper_example_a_0",
        "pole_period", "construct_outside_arclength", "missing_csv",
        "t_int_overflow_free_c", "t_int_overflow_c0"])
def test_every_exit_states_its_cause(tmp_path, monkeypatch, capsys,
                                     synthesis_lines, argv, code, fragment):
    monkeypatch.chdir(tmp_path)
    for name in set(argv) & set(_EXIT_FILES):
        (tmp_path / name).write_text(
            "\n".join(_EXIT_FILES[name](synthesis_lines)) + "\n")
    got, _ = run(argv)
    assert got == code
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("scale, c_flag", [
    (1e305, []), (1e305, ["--c", "0"]), (1e-200, []),
], ids=["huge_free_c", "huge_c0", "tiny_free_c"])
def test_a_fit_floating_point_cannot_carry_exits_2(tmp_path, capsys,
                                                   synthesis_lines, scale,
                                                   c_flag):
    # every kappa1 scaled: the CSV is valid, but a fit's products overflow
    # or its Householder v.v underflows to 0
    lines = list(synthesis_lines)
    for i, line in enumerate(lines):
        if line and line[0] not in "s#":
            cells = line.split(",")
            cells[21] = repr(float(cells[21]) * scale)
            lines[i] = ",".join(cells)
    path = tmp_path / "scaled.csv"
    path.write_text("\n".join(lines) + "\n")
    code, text = run(["rectify-check", "--from-synthesis", str(path),
                      "--samples", "21", *c_flag])
    assert (code, text) == (2, "")
    assert "IllConditionedFit" in capsys.readouterr().err


@pytest.mark.parametrize("c_flag", [[], ["--c", "0"]], ids=["free_c", "c0"])
def test_ill_conditioned_fit_states_its_condition_and_range(
        tmp_path, capsys, synthesis_lines, c_flag):
    # torsion angles 280, 282, ..., 320 span 40 radians, yet cosh t and
    # sinh t agree to roundoff there: the message reports the condition
    # number and the range, not a range that is too small
    lines = list(synthesis_lines)
    rows = [i for i, line in enumerate(lines)
            if line and line[0] not in "s#"]
    for k, i in enumerate(rows):
        lines[i] = f"{lines[i].rsplit(',', 1)[0]},{280.0 + 2.0 * k!r}"
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    code, _ = run(["rectify-check", "--from-synthesis", str(path),
                   "--samples", str(len(rows)), *c_flag])
    assert code == 2
    err = capsys.readouterr().err
    assert "IllConditionedFit" in err and "condition number" in err
    assert "t from 280.0 to 320.0" in err
    assert "too small" not in err


def test_tol_flag_sets_every_tolerance(tmp_path):
    path = tmp_path / "rep.json"
    run(["rectify-check", "--curve", "lorentz_helix", "--samples", "8",
         "--tol", "1e-3", "-o", str(path)])
    tols = json.loads(path.read_text())["tolerances"]
    assert len(tols) == 6
    assert set(tols.values()) == {1e-3}


def test_eps_change_among_the_samples_exits_2(capsys):
    code, _ = run(["rectify-check", "--curve", "hyperbolic_clelia",
                   "--samples", "20"])
    assert code == 2
    assert "DegenerateFrame: eps changes from 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_bad_tol_rejected_before_set_up(tmp_path, capsys, tol):
    # the CSV does not exist: reading it first would exit 2, not 64
    code, _ = run(["rectify-check", "--from-synthesis",
                   str(tmp_path / "missing.csv"), "--tol", tol])
    assert code == 64
    assert "--tol must be positive" in capsys.readouterr().err


def test_verify_unknown_suite_exits_64():
    code, _ = run(["verify", "bogus"])
    assert code == 64


def test_verify_lorentz_suite_passes():
    code, text = run(["verify", "lorentz"])
    assert code == 0
    assert "criterion 1" in text and "criterion 8" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("argv", [
    ["frenet", "--curve", "lorentz_helix"],
    ["rectify-check", "--curve", "lorentz_helix"],
    ["construct", "--curve", "hyperbolic_clelia", "--a", "1"],
    ["synthesize"],
], ids=["frenet", "rectify-check", "construct", "synthesize"])
def test_samples_above_the_limit_exit_64(tmp_path, capsys, argv):
    # refused before a sample grid is built: a larger count once ran until
    # killed, building its grid
    out = tmp_path / "out.csv"
    code, text = run([*argv, "--samples", "100001", "-o", str(out)])
    assert code == 64 and text == "" and not out.exists()
    assert "100001 is more than 100000 samples" in capsys.readouterr().err


def test_sample_count_limit_is_one_hundred_thousand():
    # MAX_SAMPLES at its literal value: 10**5 samples pass, one more does not
    assert cli._sample_count("100000") == 100000
    with pytest.raises(argparse.ArgumentTypeError,
                       match="100001 is more than 100000 samples"):
        cli._sample_count("100001")


@pytest.mark.parametrize("text, field", [
    ('{"id": "lorentz_helix", "params": {"p": true}}', "params"),
    ('{"id": "lorentz_helix", "domain": [false, true]}', "domain"),
    ('{"id": "hyperbolic_clelia", "construct": {"a": true}}',
     "construct.a"),
    ('{"id": "hyperbolic_clelia", "construct": {"a": 1, "t0": false}}',
     "construct.t0"),
    ('{"id": "hyperbolic_clelia", '
     '"construct": {"a": 1, "domain": [0.35, true]}}', "construct.domain"),
], ids=["params", "domain", "construct_a", "construct_t0",
        "construct_domain"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, text, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _ = run(["classify", "--config", str(cfg), "--at", "0.5"])
    assert code == 64
    assert f'"{field}" must ' in capsys.readouterr().err
