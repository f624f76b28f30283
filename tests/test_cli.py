"""End-to-end tests of the command line driver (in-process)."""

import builtins
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phimin import cli
from phimin.cli import (
    _DEFAULTS,
    GRID_NODES,
    SIZE_LIMITS,
    main,
    profile_from_spec,
    profile_to_spec,
)
from phimin.profiles import ProfileError
from phimin.surfaces import grid_rows, write_table


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
    # the path tolerance is tol; path_tol is not a weierstrass key
    assert main(["weierstrass", "--param", "path_tol=1", "--out", out]) == 1
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


def test_hand_made_lorentzian_patch_names_its_dual(tmp_path):
    # u = -log(cosh 2x)/2 solves the Lorentzian graph equation of the
    # linear slope=2 weight; its way back has no spec of its own and is
    # named the way calabi-to-l3 names a dual, with the pin that made it
    g = np.linspace(-0.6, 0.6, 61)
    u = np.broadcast_to(-0.5 * np.log(np.cosh(2.0 * g))[:, None], (61, 61))
    shape, rows = grid_rows(g, g, u)
    path = tmp_path / "lorentz.csv"
    write_table(path, ["artifact = graph_patch", "signature = lorentzian",
                       "profile = linear slope=2", shape], "x,y,u", rows)
    assert main(["verify", str(path), "--out", str(tmp_path / "vl")]) == 0
    assert main(["calabi-to-r3", str(path), "--out", str(tmp_path / "r3")]) == 0
    meta, _, _ = read_csv(tmp_path / "r3" / "roundtrip.csv")
    assert meta["profile"] == "dual-of linear slope=2"
    assert meta["theta_base"] == "natural"
    assert main(["verify", str(tmp_path / "r3" / "roundtrip.csv"),
                 "--out", str(tmp_path / "vr")]) == 0


_SERIES_CHAIN = ["--grid", "61x61", "--param", "profile=series L=1 b=0.5",
                 "--param", "patch=bowl", "--param", "z0=0.5",
                 "--param", "s_max=1.5", "--param", "halfwidth=0.3"]


@pytest.fixture(scope="module")
def series_chain(tmp_path_factory):
    out = tmp_path_factory.mktemp("series")
    assert main(["calabi-to-l3", "--out", str(out / "l3"),
                 *_SERIES_CHAIN]) == 0
    return out


def test_series_weight_round_trip_verifies(series_chain):
    # a series weight has no closed-form primitive: the header records where
    # the quadrature primitive that made the patch vanishes (the lowest
    # source height, z0), and both ways read it back with that primitive
    lorentz = series_chain / "l3" / "lorentz.csv"
    meta, _, _ = read_csv(lorentz)
    assert meta["theta_base"] == "5.0000000000000000e-01"
    assert main(["verify", str(lorentz),
                 "--out", str(series_chain / "v")]) == 0
    assert main(["calabi-to-r3", str(lorentz),
                 "--out", str(series_chain / "r3")]) == 0
    back = read_report(series_chain / "r3")["report"]
    assert float(back["roundtrip_sup_difference"]) <= 10 * 0.01
    assert main(["verify", str(series_chain / "r3" / "roundtrip.csv"),
                 "--out", str(series_chain / "vr")]) == 0


def test_natural_base_without_a_closed_form_is_refused(series_chain,
                                                       tmp_path):
    # "natural" names a closed-form primitive, which a series weight lacks:
    # such a header is refused, not read with a primitive pinned elsewhere
    text = (series_chain / "l3" / "lorentz.csv").read_text()
    old = re.sub(r"# theta_base = .*", "# theta_base = natural", text)
    assert old != text
    path = tmp_path / "lorentz.csv"
    path.write_text(old)
    for command in ("verify", "calabi-to-r3"):
        out = tmp_path / command
        assert main([command, str(path), "--out", str(out)]) == 1
        message = json.loads((out / "error.json").read_text())["error"][
            "message"]
        assert "series" in message and "theta_base" in message


def test_verify_refuses_rows_narrower_than_the_columns(reaper_run,
                                                        tmp_path):
    lines = (reaper_run / "curve.csv").read_text().splitlines()
    body = [line.rsplit(",", 1)[0] if not line.startswith("#")
            and line != "s,x,z,theta" else line for line in lines]
    path = tmp_path / "narrow.csv"
    path.write_text("\n".join(body) + "\n")
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 1
    doc = json.loads((tmp_path / "v" / "error.json").read_text())
    assert doc["error"]["exit_code"] == 1
    assert "3 values" in doc["error"]["message"]


def test_verify_refuses_a_patch_off_its_grid(tmp_path):
    # the x and y columns must be the grid the first rows and columns span
    assert main(["calabi-to-l3", "--preset", "lorentz-soliton-pair",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "source.csv").read_text().splitlines(keepends=True)
    head = lines.index("x,y,u\n") + 1
    swapped = list(lines)
    swapped[head + 5000], swapped[head + 7000] = (swapped[head + 7000],
                                                  swapped[head + 5000])
    moved = list(lines)
    moved[head + 9000] = "9.0" + moved[head + 9000][
        moved[head + 9000].index(","):]
    for name, text, row in (("swapped", swapped, 5000),
                            ("moved", moved, 9000)):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(text))
        out = tmp_path / f"verify-{name}"
        assert main(["verify", str(path), "--out", str(out)]) == 1
        message = json.loads((out / "error.json").read_text())["error"][
            "message"]
        assert f"data row {row} (from 0)" in message


def test_verify_reads_a_patch_artifact_once(tmp_path, monkeypatch):
    assert main(["calabi-to-l3", "--out", str(tmp_path), "--grid", "31x31",
                 "--param", "profile=custom dphi=z+1 domain=-1,3",
                 "--param", "patch=bowl", "--param", "z0=0",
                 "--param", "s_max=1", "--param", "halfwidth=0.3"]) == 0
    path = tmp_path / "lorentz.csv"
    # the body parsed from the lines already read, bit for bit as from file
    assert cli.read_table(path)[2].tobytes() == read_csv(path)[2].tobytes()
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)
    for module in (builtins, io):
        monkeypatch.setattr(module, "open", counting_open)
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 0
    assert opened.count(str(path)) == 1


def test_verify_reads_a_gauss_field_once(tmp_path, monkeypatch):
    assert main(["weierstrass", "--out", str(tmp_path), "--grid", "61x41",
                 "--param", "s_max=4", "--param", "s_hi=3"]) == 0
    path = tmp_path / "field.csv"
    # the field built from the table verify holds, bit for bit as from file
    meta, _, raw = read_csv(path)
    nu, nv = (int(t) for t in meta["shape"].split())
    field = cli.gauss_field_from_table(path, cli.read_table(path))
    assert field.k_param == float(meta["k"])
    assert field.u.tobytes() == raw[::nv, 0].tobytes()
    assert field.v.tobytes() == raw[:nv, 1].tobytes()
    assert field.G.tobytes() == (raw[:, 2] + 1j * raw[:, 3]).reshape(
        nu, nv).tobytes()
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)
    for module in (builtins, io):
        monkeypatch.setattr(module, "open", counting_open)
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 0
    assert opened.count(str(path)) == 1
    opened.clear()
    assert main(["weierstrass", str(path), "--out", str(tmp_path / "w"),
                 "--format", "csv"]) == 0
    assert opened.count(str(path)) == 1


def test_catenoid_refuses_branches_that_fail_verify(tmp_path):
    # s_max/x0 = 4e-13 loses the axis term in the steps; the curves the
    # solver accepts would fail verify (residuals 6.5e-2 and 0.56)
    assert main(["catenoid", "--out", str(tmp_path / "wide"),
                 "--param", "x0=1e13"]) == 2
    doc = json.loads((tmp_path / "wide" / "error.json").read_text())
    message = doc["error"]["message"]
    assert "right branch" in message and "1.0000000000000000e-03" in message
    assert not (tmp_path / "wide" / "curve_right.csv").exists()
    # the stock preset passes the check and keeps its report keys
    assert main(["catenoid", "--preset", "catenoid-exp-weight",
                 "--format", "csv", "--out", str(tmp_path / "preset")]) == 0
    assert sorted(read_report(tmp_path / "preset")["report"]) == [
        "left_meta", "min_axis_distance", "right_meta", "self_intersections"]


def test_bowl_refuses_a_curve_that_fails_verify(tmp_path):
    # dphi(z0)/2 = 1000 makes the series launch at s = 1e-3 invalid: the
    # solver's curve launches at slope 383 and fails verify at 576
    assert main(["bowl", "--out", str(tmp_path / "steep"),
                 "--param", "profile=linear slope=2000",
                 "--param", "z0=1", "--param", "s_max=4"]) == 2
    doc = json.loads((tmp_path / "steep" / "error.json").read_text())
    assert doc["error"]["exit_code"] == 2
    assert "curve has profile ODE residual" in doc["error"]["message"]
    assert not (tmp_path / "steep" / "curve.csv").exists()
    # rate * s_max above 5e3 selects the stiff integrator, whose curve
    # passes the same check
    out = tmp_path / "stiff"
    assert main(["bowl", "--out", str(out), "--format", "csv",
                 "--param", "profile=custom dphi=exp(z)",
                 "--param", "z0=1", "--param", "s_max=8"]) == 0
    assert read_report(out)["report"]["meta"]["method"] == "LSODA"
    assert main(["verify", str(out / "curve.csv"),
                 "--out", str(tmp_path / "v")]) == 0


@pytest.mark.parametrize("x0, cause", [
    ("1e10", "never turned back up; extend s_max"),
    ("1e12", "never turned back up; extend s_max"),
    ("1e14", "too wide to bend within s_max"),
    ("1e16", "too wide to bend within s_max")])
def test_too_wide_a_neck_is_named_as_the_cause(tmp_path, x0, cause):
    # s_max/x0 falls below tol from x0 = 4e10 on; the left branch runs out
    # of s_max first, and wider necks trip checks (the retraced neck, self
    # intersections) that would otherwise blame the circle or the tolerance
    assert main(["catenoid", "--out", str(tmp_path),
                 "--param", f"x0={x0}"]) == 2
    doc = json.loads((tmp_path / "error.json").read_text())
    assert cause in doc["error"]["message"]


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


# -- exit-code contract under hostile file contents ---------------------------

# a well-formed artifact of each kind, then up to three of its aspects
# replaced by drawn values
_ARTIFACTS = {
    "curve": ("s,x,z,theta", {"curve_kind": "catenary_graph",
                              "profile": "linear slope=1"}),
    "patch": ("x,y,u", {"signature": "lorentzian", "profile": "log alpha=-1",
                        "shape": "{n} {m}"}),
    "field": ("u,v,re_g,im_g", {"k": "1", "shape": "{n} {m}"}),
}
_ASPECTS = {
    "columns": ["s,x,z,theta", "x,y,u", "u,v,re_g,im_g", "x,y,z,nx,ny,nz",
                "i,j,k", "a,b", ""],
    "width": [1, 2, 3, 4, 5],
    "extra_rows": [-1, 1, 2],
    "fill": ["zeros", "nan", "huge"],
    "shape": ["{m} {n}", "{n}", "0 0", "-1 -9", "a b", "1e9 1e9", ""],
    "k": ["2", "-1", "0", "nan", "inf", "x", ""],
    "signature": ["euclidean", "spacelike", ""],
    "profile": ["linear slope=1", "series L=1 b=0.5", "dual-of linear slope=1",
                "dual-of linear slope=2", "dual-of series L=1 b=0.5",
                "dual-of custom dphi=z+1 domain=-1,3", "custom dphi=z",
                "unserialized", "quintic a=1", ""],
    "theta_base": ["natural", "0", "0.5", "-5", "nan", "1e308", "x", ""],
    "curve_kind": ["bowl_graph", "catenoid_left", "x", ""],
    "origin_hint": ["0 0", "nan 1", "1"],
}
_FILLS = {"smooth": lambda x, y: 0.5 * x * x + 0.2 * y * y + 0.1,
          "zeros": lambda x, y: 0.0 * x, "nan": lambda x, y: x + math.nan,
          "huge": lambda x, y: x + 1e308}
# Fourier data of a horizontal circle with its bowl-like normal
_CIRCLE = {"curve_kind": "fourier", "k": 1.0, "degree": 8,
           "period": 4 * math.pi,
           "beta": [[0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0]],
           "normal": [[0.0, -math.sin(0.9), 0.0], [0.0, 0.0, -math.sin(0.9)],
                      [math.cos(0.9), 0.0, 0.0]]}
_ROWS = st.sampled_from([[[0.0] * 65] * 3, [[1.0]], [], [[0.0, 1.0]] * 2,
                         [[1.0, None, 0.0]] * 3, [[1.0, [2.0]]] * 3, "x",
                         {"a": 1}, None, 3])
_ENTRIES = {
    "curve_kind": st.sampled_from(["taylor", "x", 1, None]),
    "k": st.sampled_from([2.0, 0, -1, [1], "1", None, True, math.nan, 1e308]),
    "degree": st.sampled_from([2, 12, 33, 10 ** 5, 1.5, -1, "12", None, [12],
                               1e300, math.inf]),
    "beta": _ROWS, "normal": _ROWS,
    "period": st.sampled_from([0, -1, math.nan, "x"])}


def _artifact_text(draw, kind: str) -> str:
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    columns, header = _ARTIFACTS[kind]
    aspects = {"columns": columns, "width": len(columns.split(",")),
               "extra_rows": 0, "fill": "smooth", **header}
    for key in draw(st.lists(st.sampled_from(sorted(_ASPECTS)), unique=True,
                             max_size=3)):
        aspects[key] = draw(st.sampled_from(_ASPECTS[key]))
    rows = n * m + aspects.pop("extra_rows")
    x = np.resize(np.repeat(np.linspace(-0.3, 0.3, n), m), rows)
    y = np.resize(np.tile(np.linspace(-0.3, 0.3, m), n), rows)
    table = np.column_stack([x, y] + [_FILLS[aspects.pop("fill")](x, y)] * 4)
    lines = [f"# {key} = {str(value).format(n=n, m=m)}"
             for key, value in aspects.items()
             if key not in ("columns", "width")]
    lines.append(aspects["columns"])
    lines += [",".join(repr(float(v)) for v in row)
              for row in table[:, :aspects["width"]]]
    return "\n".join(lines) + "\n"


def _hostile_file(draw, command: str) -> str:
    if command != "bjorling":
        kind = draw(st.sampled_from(sorted(_ARTIFACTS))) \
            if command == "verify" else \
            {"calabi-to-r3": "patch", "weierstrass": "field"}[command]
        return _artifact_text(draw, kind)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(
            ["3", "null", "[]", '"x"', "true", "{", "[1, 2]"]))
    doc = dict(_CIRCLE)
    for key in draw(st.lists(st.sampled_from(sorted(_ENTRIES)), unique=True,
                             max_size=3)):
        if draw(st.booleans()):
            doc.pop(key)
        else:
            doc[key] = draw(_ENTRIES[key])
    return json.dumps(doc)


@pytest.mark.filterwarnings("ignore")  # the numerics may warn on such input
@pytest.mark.parametrize("command",
                         ["verify", "calabi-to-r3", "weierstrass", "bjorling"])
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_file_contents_keep_the_exit_code_contract(command, data):
    # exit 0, 1 or 2, never an escaped exception; error.json on every
    # failure, except a residual above its threshold, which verify reports
    # in verify.json
    text = _hostile_file(data.draw, command)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "input", Path(tmp) / "out"
        path.write_text(text)
        argv = [command, str(path), "--out", str(out)]
        if command in ("weierstrass", "bjorling"):
            argv += ["--grid", "9x9", "--format", "csv"]
        code = main(argv)
        assert code in (0, 1, 2)
        if code and (out / "verify.json").exists():
            assert code == 2
            assert json.loads((out / "verify.json").read_text())[
                "passed"] is False
        elif code:
            doc = json.loads((out / "error.json").read_text())
            assert doc["error"]["exit_code"] == code


def test_cauchy_data_above_their_bounds_exit_one(tmp_path):
    # checked before any series work: a degree of 10**5 never returned
    from phimin.weierstrass import MAX_DEGREE, MAX_TERMS
    pad = [0.0] * (MAX_TERMS + 1 - 3)
    wide = [row + pad for row in _CIRCLE["beta"]]
    for name, change, says in (
            ("above", {"degree": MAX_DEGREE + 1}, f"2..{MAX_DEGREE}, got "
                                                  f"{MAX_DEGREE + 1}"),
            ("huge", {"degree": 10 ** 5}, "got 100000"),
            ("wide", {"beta": wide}, f"n_terms <= {MAX_TERMS}, got (3, "
                                     f"{MAX_TERMS + 1})")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**_CIRCLE, **change}))
        assert main(["bjorling", str(path), "--out", str(tmp_path / name),
                     "--grid", "9x9"]) == 1
        doc = json.loads((tmp_path / name / "error.json").read_text())
        assert says in doc["error"]["message"]
