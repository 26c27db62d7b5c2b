"""Golden CLI outputs: a fixed set of fast invocations, compared byte for byte.

The invocations run through ``cli.main`` in one fresh interpreter, so the
id a ``construct`` registers does not depend on which tests ran before.
The synthesis CSV is written and read back under a relative path, so the
``"curve"`` field of the round-trip report names the same file on every
run.  Every fixture is compared, and each one that differs is reported
with a short unified diff.  To regenerate the fixtures after a deliberate
output change:

    PYTHONPATH=src python tests/test_golden_cli.py tests/golden
"""

import difflib
import io
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parent / "src"

SYNTH_CSV = "synthesize.csv"

# name -> (argv, expected exit code)
CASES = {
    "helix_frenet": (["frenet", "--curve", "lorentz_helix",
                      "--samples", "50"], 0),
    "helix_rectify_check": (["rectify-check", "--curve", "lorentz_helix"], 1),
    "construct": (["construct", "--curve", "hyperbolic_clelia", "--a", "2",
                   "--t0", "0.4", "--construct-domain", "0.35", "1.2",
                   "--samples", "20"], 0),
    "classify": (["classify", "--curve", "hyperbolic_clelia",
                  "--at", "0.3", "--at", "1.7"], 0),
    "synthesize": (["synthesize", "--profile", "cosh_over_s", "--ds", "2e-3",
                    "--samples", "21", "-o", SYNTH_CSV], 0),
    "synthesis_rectify_check": (["rectify-check", "--from-synthesis",
                                 SYNTH_CSV, "--c", "0", "--samples", "21"], 0),
    "synthesis_rectify_check_free_c": (["rectify-check", "--from-synthesis",
                                        SYNTH_CSV, "--samples", "21"], 0),
    "verify_frenet": (["verify", "frenet"], 0),
    "verify_lorentz": (["verify", "lorentz"], 0),
    "verify_rectifying": (["verify", "rectifying"], 0),
    "synthesize_constant_eps_minus": (["synthesize", "--profile", "constant",
                                       "--param", "k1=2", "--param", "k2=0.5",
                                       "--param", "k3=1.5", "--eps", "-1",
                                       "--ds", "0.01", "--samples", "4"], 0),
    "synthesize_drift_abort": (["synthesize", "--profile", "cosh_over_s",
                                "--ds", "0.05", "--drift-tol", "1e-9",
                                "--samples", "6"], 1),
}

OUTPUTS = [f"{name}.out" for name in CASES] + [SYNTH_CSV]


def produce(outdir: Path) -> dict[str, int]:
    """Run every case in order inside ``outdir``; return the exit codes."""
    from curvelab import cli

    os.chdir(outdir)
    codes = {}
    for name, (argv, _) in CASES.items():
        out = io.StringIO()
        codes[name] = cli.main(argv, out=out)
        (outdir / f"{name}.out").write_text(out.getvalue())
    return codes


def test_golden_cli_outputs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = dict(line.split("=") for line in proc.stdout.split())
    assert codes == {name: str(code) for name, (_, code) in CASES.items()}
    reports = [_difference(fname, (GOLDEN / fname).read_bytes(),
                           (tmp_path / fname).read_bytes())
               for fname in OUTPUTS]
    reports = [r for r in reports if r]
    assert not reports, "\n\n".join(reports)


def _difference(fname: str, want: bytes, got: bytes,
                max_lines: int = 20) -> str:
    """'' when the bytes are equal, else a report with a short unified diff."""
    if got == want:
        return ""
    diff = list(difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        f"tests/golden/{fname}", f"produced/{fname}", lineterm=""))
    if len(diff) > max_lines:
        diff = diff[:max_lines] + [f"... {len(diff) - max_lines} more lines"]
    if not diff:              # same lines: line endings or a final newline
        diff = [f"same lines, different bytes ({len(want)} vs {len(got)})"]
    return f"{fname} differs from tests/golden/{fname}:\n" + "\n".join(diff)


def test_difference_report_is_byte_strict():
    assert _difference("x.out", b"a\nb\n", b"a\nb\n") == ""
    for got in (b"a\nc\n", b"a\nb", b"a\r\nb\n", b"a\nb\n\n"):
        assert _difference("x.out", b"a\nb\n", got).startswith(
            "x.out differs from tests/golden/x.out:")
    long = _difference("x.out", b"", "".join(f"{i}\n" for i in range(50))
                       .encode())
    assert long.endswith("more lines") and len(long.splitlines()) == 22


if __name__ == "__main__":
    target = Path(sys.argv[1]).resolve()
    target.mkdir(parents=True, exist_ok=True)
    for name, code in produce(target).items():
        print(f"{name}={code}")
