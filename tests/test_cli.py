"""End-to-end tests of the command line driver (in-process)."""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phimin.cli import (
    _DEFAULTS,
    GRID_NODES,
    SIZE_LIMITS,
    main,
    profile_from_spec,
    profile_to_spec,
)
from phimin.profiles import ProfileError


def read_report(out_dir):
    with open(out_dir / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    """(header comment dict, column names, data matrix)."""
    meta = {}
    colnames = ""
    skip = 0
    for line in path.read_text().splitlines():
        skip += 1
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, val = body.split("=", 1)
                meta[key.strip()] = val.strip()
            continue
        colnames = line.strip()
        break
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return meta, colnames, data


_SCIENTIFIC = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}")


def assert_scientific(tokens):
    """Every float token has 17 significant digits in lowercase
    scientific notation."""
    for tok in tokens:
        assert _SCIENTIFIC.fullmatch(tok), tok


@pytest.fixture(scope="module")
def reaper_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reaper")
    code = main(["profile", "--out", str(out), "--param", "x_max=1.45"])
    assert code == 0
    return out


def test_profile_matches_closed_form(reaper_run):
    meta, colnames, data = read_csv(reaper_run / "curve.csv")
    assert colnames == "s,x,z,theta"
    assert meta["artifact"] == "profile_curve"
    assert meta["profile"].startswith("linear slope=")
    x, z = data[:, 1], data[:, 2]
    assert np.max(np.abs(z + np.log(np.cos(x)))) < 1e-8
    report = read_report(reaper_run)
    assert float(report["report"]["first_integral_drift"]) < 1e-7
    assert meta["config_sha256"] == report["config_sha256"]


def test_lambda_half_width(tmp_path):
    assert main(["lambda", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)["report"]
    assert abs(float(report["lambda"]) - np.pi / 2) < 1e-6
    assert report["finite"] is True


def test_verify_accepts_good_curve(reaper_run, tmp_path):
    code = main(["verify", str(reaper_run / "curve.csv"),
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["passed"] is True
    assert doc["kind"] == "profile_curve"


def test_verify_rejects_corrupted_curve(reaper_run, tmp_path):
    lines = (reaper_run / "curve.csv").read_text().splitlines()
    row = len(lines) // 2
    parts = lines[row].split(",")
    parts[2] = format(float(parts[2]) + 0.05, ".16e")
    lines[row] = ",".join(parts)
    bad = tmp_path / "corrupt.csv"
    bad.write_text("\n".join(lines) + "\n")

    code = main(["verify", str(bad), "--out", str(tmp_path)])
    assert code == 2
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["passed"] is False
    assert float(doc["max_residual"]) > 10 * float(doc["threshold"])


def test_determinism_byte_identical(tmp_path):
    for fmt in ("csv", "obj", "ply"):
        args = ["tilt", "--format", fmt, "--param", "n_samples=201",
                "--param", "n_rulings=9"]
        a, b = tmp_path / fmt / "a", tmp_path / fmt / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nu0 = 0.1\nx_max = 0.8\nn_samples = 101\n")
    out = tmp_path / "out"
    code = main(["profile", "--config", str(cfg),
                 "--param", "x_max=0.9", "--out", str(out)])
    assert code == 0
    resolved = read_report(out)["config"]
    assert resolved["u0"] == "0.1"
    assert resolved["x_max"] == "0.9"


def test_validation_failures_exit_one(tmp_path):
    out = str(tmp_path)
    assert main(["profile", "--param", "bogus=1", "--out", out]) == 1
    assert main(["profile", "--param", "x_max=-1", "--out", out]) == 1
    assert main(["tilt", "--preset", "bowl-exp-weight", "--out", out]) == 1
    assert main(["profile", "--preset", "no-such-preset", "--out", out]) == 1
    assert main(["verify", "--out", out]) == 1
    assert main(["profile", "--config", str(tmp_path / "nope.cfg"),
                 "--out", out]) == 1
    assert main(["weierstrass", "--grid", "10", "--out", out]) == 1
    assert main(["weierstrass", "--grid", "2x5", "--out", out]) == 1
    assert main(["profile", "--no-such-flag"]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["error"]["exit_code"] == 1


def test_sizes_above_their_limits_exit_one(tmp_path):
    # rejected while the configuration is resolved, before any allocation
    for args in (["profile", "--param", "n_samples=100000000000"],
                 ["bowl", "--param", "n_theta=1000000000"],
                 ["tilt", "--param", "n_rulings=1000000000"],
                 ["calabi-to-l3", "--grid", "100000x100000"]):
        out = tmp_path / args[0]
        assert main(args + ["--out", str(out)]) == 1
        doc = json.loads((out / "error.json").read_text())
        assert doc["error"]["exit_code"] == 1
        assert "must be <=" in doc["error"]["message"] or \
            "at most" in doc["error"]["message"]


def test_bad_config_line_reported(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a bare line\n")
    assert main(["profile", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1


def test_arithmetic_error_exit_two(tmp_path):
    # the bowl's launch series overflows Python floats for this slope
    code = main(["bowl", "--out", str(tmp_path),
                 "--param", "profile=linear slope=1e308"])
    assert code == 2
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["error"]["type"] == "OverflowError"
    assert doc["error"]["exit_code"] == 2


def test_custom_weight_dual_header(tmp_path):
    code = main(["calabi-to-l3", "--out", str(tmp_path), "--grid", "31x31",
                 "--param", "profile=custom dphi=z+1 domain=-1,3",
                 "--param", "patch=bowl", "--param", "z0=0",
                 "--param", "s_max=1", "--param", "halfwidth=0.3"])
    assert code == 0
    meta, _, _ = read_csv(tmp_path / "lorentz.csv")
    assert meta["profile"] == "dual-of custom dphi=z+1 domain=-1,3"
    assert "theta_base" in meta
    assert main(["verify", str(tmp_path / "lorentz.csv"),
                 "--out", str(tmp_path / "v")]) == 0


def test_custom_weight_round_trip_verifies(tmp_path):
    # the way back recovers the source weight, which has no spec of its
    # own; roundtrip.csv is labelled with the spec in the dual-of header
    assert main(["calabi-to-l3", "--out", str(tmp_path / "l3"),
                 "--grid", "61x61",
                 "--param", "profile=custom dphi=z+1 domain=-1,inf",
                 "--param", "patch=bowl", "--param", "z0=0",
                 "--param", "s_max=1", "--param", "halfwidth=0.3"]) == 0
    assert main(["calabi-to-r3", str(tmp_path / "l3" / "lorentz.csv"),
                 "--out", str(tmp_path / "r3")]) == 0
    meta, _, _ = read_csv(tmp_path / "r3" / "roundtrip.csv")
    assert meta["profile"] == "custom dphi=z+1 domain=-1,inf"
    assert main(["verify", str(tmp_path / "r3" / "roundtrip.csv"),
                 "--out", str(tmp_path / "v")]) == 0


def test_numerical_failure_exit_two(tmp_path):
    # k = 2 contradicts the linear weight behind the rotational field, so
    # the two integration routes disagree and the run must fail loudly
    code = main(["weierstrass", "--out", str(tmp_path), "--param", "k=2",
                 "--grid", "61x41", "--param", "s_max=4",
                 "--param", "s_hi=3"])
    assert code == 2
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["error"]["type"] == "NumericalError"
    assert doc["error"]["exit_code"] == 2


def test_mesh_formats(tmp_path):
    base = ["tilt", "--param", "n_samples=101", "--param", "n_rulings=5"]
    obj_dir = tmp_path / "obj"
    assert main(base + ["--out", str(obj_dir), "--format", "obj"]) == 0
    text = (obj_dir / "tilted.obj").read_text()
    assert text.startswith("# artifact = mesh")
    assert "config_sha256" in text and "\nv " in text
    rows = [line.split() for line in text.splitlines()
            if line.startswith(("v ", "vn "))]
    assert len(rows) == 2 * 201 * 5
    assert_scientific(tok for row in rows for tok in row[1:])

    ply_dir = tmp_path / "ply"
    assert main(base + ["--out", str(ply_dir), "--format", "ply"]) == 0
    text = (ply_dir / "tilted.ply").read_text()
    assert text.startswith("ply\n") and "comment config_sha256" in text
    head, body = text.split("end_header\n")
    assert "property double x" in head and "property float" not in head
    vertex_rows = body.splitlines()[:201 * 5]
    assert all(len(row.split()) == 6 for row in vertex_rows)
    assert_scientific(tok for row in vertex_rows for tok in row.split())

    csv_dir = tmp_path / "csv"
    assert main(base + ["--out", str(csv_dir), "--format", "csv"]) == 0
    meta, colnames, data = read_csv(csv_dir / "tilted.csv")
    assert colnames == "x,y,z,nx,ny,nz"
    # the solver mirrors the curve to negative x, so 101 requested samples
    # become 201 graph nodes
    assert data.shape == (201 * 5, 6)
    assert (csv_dir / "tilted_faces.csv").exists()


def test_calabi_round_trip_via_artifacts(tmp_path):
    first = tmp_path / "fwd"
    code = main(["calabi-to-l3", "--out", str(first), "--grid", "81x81",
                 "--param", "half_x=1.0", "--param", "half_y=1.0",
                 "--param", "x_max=1.2"])
    assert code == 0
    fwd = read_report(first)["report"]
    assert fwd["dual_kind"] == "log"
    assert float(fwd["residual_max"]) < 0.05

    meta, _, _ = read_csv(first / "lorentz.csv")
    assert meta["signature"] == "lorentzian"
    assert "origin_hint" in meta

    second = tmp_path / "back"
    code = main(["calabi-to-r3", str(first / "lorentz.csv"),
                 "--out", str(second)])
    assert code == 0
    back = read_report(second)["report"]
    assert back["recovered_kind"] == "linear"
    # source spacing is 2/80; the round trip must land within a few cells
    assert float(back["roundtrip_sup_difference"]) < 0.1

    code = main(["verify", str(first / "lorentz.csv"),
                 "--out", str(tmp_path / "v")])
    assert code == 0


def test_weierstrass_field_artifact_verifies(tmp_path):
    out = tmp_path / "w"
    code = main(["weierstrass", "--out", str(out), "--grid", "81x61",
                 "--param", "s_max=4", "--param", "s_hi=3"])
    assert code == 0
    report = read_report(out)["report"]
    assert float(report["pde_residual_max"]) < 1e-3
    assert float(report["gauss_map_defect"]) < 1e-2
    assert (out / "surface.obj").exists()

    code = main(["verify", str(out / "field.csv"),
                 "--out", str(tmp_path / "v")])
    assert code == 0


def test_bjorling_command(tmp_path):
    from phimin.weierstrass import BjorlingData, bjorling_to_json

    theta0 = 0.9
    beta = np.zeros((3, 5))
    normal = np.zeros((3, 5))
    beta[0, 1] = 2.0
    beta[1, 2] = 2.0
    beta[2, 0] = 1.0
    normal[0, 1] = -np.sin(theta0)
    normal[1, 2] = -np.sin(theta0)
    normal[2, 0] = np.cos(theta0)
    data = BjorlingData(curve_kind="fourier", beta=beta, normal=normal,
                        degree=8, period=4 * np.pi)
    data_path = tmp_path / "circle.json"
    data_path.write_text(bjorling_to_json(data, 1.0))

    out = tmp_path / "out"
    code = main(["bjorling", str(data_path), "--out", str(out),
                 "--param", "halfwidth=0.1", "--grid", "101x21"])
    assert code == 0
    report = read_report(out)["report"]
    assert float(report["certificate"]) < 1e-4
    assert report["branch"] == "primary"
    assert (out / "field.csv").exists()


def test_preset_smoke(tmp_path):
    out = tmp_path / "gallery"
    code = main(["tilt", "--preset", "tilted-grim-reaper",
                 "--out", str(out)])
    assert code == 0
    report = read_report(out)["report"]
    assert abs(float(report["angle"]) - np.pi / 4) < 1e-12
    # constant-slope weights keep the equation after tilting
    assert float(report["residual_tilted"]) < 5e-3


def test_profile_spec_round_trip():
    for spec in ("linear slope=2", "log alpha=-1",
                 "series L=1 b=0.5 c=0.25,0.125",
                 "custom dphi=exp(-1/z) domain=0.01,inf growth_alpha=0"):
        prof = profile_from_spec(spec)
        again = profile_from_spec(profile_to_spec(prof))
        zs = np.linspace(1.0, 3.0, 7)
        np.testing.assert_allclose(again.dphi(zs), prof.dphi(zs), rtol=1e-12)
    with pytest.raises(ProfileError):
        profile_from_spec("quintic a=1")
    with pytest.raises(ProfileError):
        profile_from_spec("custom domain=0,inf")


def test_benchmark_tracer_installs():
    # the benchmark's traced pass wraps phimin functions by name; a rename
    # on this side would break it
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "from tracing import Tracer; Tracer().install()")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "bench"), str(root / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- exit-code contract under hostile configurations --------------------------

# allowed sizes stay small, so every drawn run is quick and light
_SMALL = {"profile": {"n_samples": "41"},
          "bowl": {"n_samples": "41", "n_theta": "8"},
          "catenoid": {"n_samples": "41", "n_theta": "8"},
          "tilt": {"n_samples": "41", "n_rulings": "3"},
          "calabi-to-l3": {"grid": "9x9"},
          "weierstrass": {"grid": "9x9"},
          "bjorling": {"grid": "9x9"}}
_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "0",
                            "-1", "1e-320", "", "x"]) | st.floats().map(repr)
_PATHS = st.sampled_from(["", "nan", "missing.csv", __file__])
_PROFILES = st.sampled_from([
    "linear slope=nan", "linear slope=inf", "linear slope=1e308",
    "linear slope=-1e308", "linear slope=0", "log alpha=nan",
    "log alpha=1e308", "series L=nan b=1 c=1", "series L=1e308",
    "custom dphi=z domain=nan,1", "custom dphi=z domain=inf,-inf",
    "custom dphi=1/z domain=0,inf", "custom dphi=exp(1e308*z) domain=0,1",
    "custom dphi=sqrt(-1-z**2) domain=0,1",
    "quintic a=1", ""])


def _values(key):
    if key in SIZE_LIMITS:
        # above the limit, rejected before anything is allocated, or small
        return st.sampled_from([str(SIZE_LIMITS[key] + 1), "10" * 20,
                                "3", "0", "-1", "nan", "1e308"])
    if key == "grid":
        return st.sampled_from([f"{GRID_NODES + 1}x1", f"3x{GRID_NODES}",
                                "100000x100000", "3x3", "2x9", "nanxinf",
                                "9"])
    if key == "profile":
        return _PROFILES
    if key in ("input", "source", "data"):
        return _PATHS
    if key in ("r_window", "base", "anchor"):
        return st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join)
    return _NUMBERS


@st.composite
def _hostile_runs(draw):
    command = draw(st.sampled_from(sorted(_DEFAULTS)))
    params = dict(_SMALL.get(command, {}))
    keys = sorted(set(_DEFAULTS[command]) | {"tol", "format", "seed"})
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                             unique=True)):
        params[key] = draw(_values(key))
    return command, params


@pytest.mark.filterwarnings("ignore")  # the numerics may warn on such input
@settings(max_examples=100, deadline=2000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=_hostile_runs())
def test_hostile_configurations_keep_the_exit_code_contract(run):
    # exit 0, 1 or 2, error.json on every failure, never an escaped exception
    command, params = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--out", tmp]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        code = main(argv)
        assert code in (0, 1, 2)
        if code:
            doc = json.loads((Path(tmp) / "error.json").read_text())
            assert doc["error"]["exit_code"] == code
