"""End-to-end tests of the command line driver (in-process)."""

import argparse
import builtins
import importlib
import inspect
import io
import json
import math
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import phimin
from phimin import cli
from phimin.cli import (
    COMMANDS,
    main,
    profile_from_spec,
    profile_to_spec,
)
from phimin.errors import NumericalError
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


def test_lambda_of_a_quadrature_weight_past_its_reach(tmp_path):
    # phi of 1.5/z by quadrature reaches 1e12 from its anchor; the
    # half-width's tail reads dphi, not phi past that reach
    assert main(["lambda", "--out", str(tmp_path), "--param",
                 "profile=custom dphi=1.5/z domain=0,inf",
                 "--param", "u0=1"]) == 0
    report = read_report(tmp_path)["report"]
    assert abs(float(report["lambda"]) - 2.42865064788758) <= 1e-10


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


def test_duality_chain_byte_identical(tmp_path):
    # both transforms of the chain, each with its Newton resampling, run
    # twice into the same place (calabi-to-r3 records its input's path)
    out = tmp_path / "l3"
    runs = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        assert main(["calabi-to-l3", "--preset", "lorentz-winglike-pair",
                     "--grid", "41x41", "--out", str(out)]) == 0
        assert main(["calabi-to-r3", str(out / "lorentz.csv"),
                     "--out", str(out / "back")]) == 0
        runs.append({p.relative_to(out).as_posix(): p.read_bytes()
                     for p in out.rglob("*") if p.is_file()})
    assert sorted(runs[0]) == ["back/report.json", "back/roundtrip.csv",
                               "lorentz.csv", "report.json", "source.csv"]
    for name, data in runs[0].items():
        assert runs[1][name] == data, name


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
    # each acceptance check derives its own bound: no command takes a path
    # or certificate tolerance, and the half-width's panels work to
    # rounding, so lambda takes no tol either
    for command, key in (("weierstrass", "path_tol"), ("weierstrass", "tol"),
                         ("calabi-to-l3", "path_tol"),
                         ("calabi-to-r3", "path_tol"), ("bjorling", "tol"),
                         ("lambda", "tol")):
        assert main([command, "--param", f"{key}=1", "--out", out]) == 1
    assert main(["profile", "--no-such-flag", "--out", out]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["error"]["exit_code"] == 1


_MESH_COMMANDS = ("bowl", "catenoid", "tilt", "weierstrass", "bjorling")


def test_idle_keys_are_refused(tmp_path):
    # a config key exists only where it changes a result: no command takes
    # a seed, and only the commands that write a mesh take a format, so
    # the others offer no --format flag
    for command in sorted(COMMANDS):
        assert ("format" in COMMANDS[command].keys) == \
            (command in _MESH_COMMANDS), command
        idle = [("seed", ["--param", "seed=1"],
                 f"unknown config keys for {command}: seed ")]
        if command not in _MESH_COMMANDS:
            # (a command with a positional argument takes csv as its path)
            idle.append(("format", ["--format", "csv"],
                         "unrecognized arguments: --format"))
        for key, argv, says in idle:
            out = tmp_path / command / key
            assert main([command, *argv, "--out", str(out)]) == 1, key
            message = json.loads((out / "error.json").read_text()
                                 )["error"]["message"]
            assert message.startswith(says), message
    circle = str(_circle_data(tmp_path))
    small = {"bowl": ["--param", "n_samples=41", "--param", "n_theta=8"],
             "catenoid": ["--param", "n_samples=201", "--param", "n_theta=8"],
             "tilt": ["--param", "n_samples=41", "--param", "n_rulings=3"],
             "weierstrass": ["--grid", "41x31"],
             "bjorling": [circle, "--param", "halfwidth=0.1",
                          "--grid", "101x21"]}
    for command in _MESH_COMMANDS:
        out = tmp_path / command / "csv"
        assert main([command, *small[command], "--format", "csv",
                     "--out", str(out)]) == 0, command
        assert read_report(out)["config"]["format"] == "csv"
        assert any(p.name.endswith("_faces.csv") for p in out.iterdir())


def test_help_offers_exactly_the_flags_a_command_owns(capsys):
    # --format, --tol and --grid set the keys of the same names, and
    # --preset picks one of the command's own presets
    for command, record in COMMANDS.items():
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        options = set(re.findall(r"^  (?:-h, )?(--[a-z]+)", text, re.M))
        owned = {f"--{key}" for key in ("format", "tol", "grid")
                 if key in record.keys}
        if record.presets:
            owned.add("--preset")
            assert "{" + ",".join(sorted(record.presets)) + "}" in text
        assert options == {"--help", "--config", "--param", "--out",
                           *owned}, command


def test_usage_errors_write_error_json(tmp_path):
    # argparse refusals keep the contract: exit 1 and error.json in the
    # --out directory, with the command when argv names one
    for name, argv, command, says in (
            ("bogus", ["profile", "--bogus", "1"], "profile",
             "unrecognized arguments: --bogus 1"),
            ("format", ["calabi-to-l3", "--format", "ply"], "calabi-to-l3",
             "unrecognized arguments: --format ply"),
            ("grid", ["verify", "--grid", "5x5"], "verify",
             "unrecognized arguments: --grid"),  # 5x5 reads as the input
            ("tol", ["lambda", "--tol", "1e-3"], "lambda",
             "unrecognized arguments: --tol 1e-3"),
            ("preset", ["tilt", "--preset", "bowl-exp-weight"], "tilt",
             "argument --preset: invalid choice: 'bowl-exp-weight'"),
            ("command", ["no-such-command"], "",
             "argument command: invalid choice: 'no-such-command'")):
        out = tmp_path / name
        for flag in (["--out", str(out)], [f"--out={out}"]):
            assert main(argv + flag) == 1, name
            doc = json.loads((out / "error.json").read_text())
            assert doc["command"] == command
            assert doc["config_sha256"] == ""
            assert doc["error"]["type"] == "ValueError"
            assert doc["error"]["exit_code"] == 1
            assert doc["error"]["message"].startswith(says), name
            shutil.rmtree(out)


def test_keys_a_branch_does_not_read_are_checked(tmp_path):
    # every key is parsed by its type before any work, whichever branch of
    # the handler runs: the reaper patch reads no halfwidth, and a field
    # read from a file no s_lo
    from phimin.weierstrass import rotational_gauss_field, save_gauss_field
    curve = cli.solve_bowl(profile_from_spec("linear slope=1"), 0.5, 4.0)
    field = tmp_path / "field.csv"
    save_gauss_field(rotational_gauss_field(curve, (1.0, 3.0), n_u=9,
                                            v_halfwidth=1.0, n_v=9), field)
    for name, argv, key in (
            ("l3", ["calabi-to-l3", "--grid", "41x41", "--param",
                    "halfwidth=x"], "halfwidth"),
            ("w", ["weierstrass", str(field), "--param", "s_lo=x"], "s_lo")):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 1, name
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        doc = json.loads((out / "error.json").read_text())
        assert doc["error"]["message"] == \
            f"config key {key!r} needs a number, got 'x'"


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


def test_an_internal_fault_exits_two_with_error_json(tmp_path,
                                                    monkeypatch):
    # an exception outside the mapped families still keeps the contract
    def fault(cfg):
        raise IndexError("index 7 is out of bounds for axis 0 with size 7")
    monkeypatch.setitem(cli.COMMANDS, "profile",
                        cli.COMMANDS["profile"]._replace(handler=fault))
    assert main(["profile", "--out", str(tmp_path)]) == 2
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["error"] == {
        "type": "IndexError", "exit_code": 2,
        "message": "index 7 is out of bounds for axis 0 with size 7"}


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


def test_verify_refuses_a_mesh_export_by_its_column_line(tmp_path):
    # the column line decides; the body is never parsed
    for columns in ("x,y,z,nx,ny,nz", "i,j,k"):
        path = tmp_path / "mesh.csv"
        path.write_text(f"# artifact = mesh\n{columns}\n1,2,x\n\x00;;\n")
        out = tmp_path / f"v-{len(columns)}"
        assert main(["verify", str(path), "--out", str(out)]) == 1
        message = json.loads((out / "error.json").read_text())["error"][
            "message"]
        assert "is a mesh export" in message


def test_verify_closes_a_mesh_export_it_refuses(tmp_path, monkeypatch):
    # the table is refused by its column line before its body is parsed,
    # and its file is closed then, not left to the collector (a handle
    # left open fails the suite through its ResourceWarning)
    assert main(["weierstrass", "--out", str(tmp_path / "w"), "--grid",
                 "61x41", "--param", "s_max=4", "--param", "s_hi=3",
                 "--format", "csv"]) == 0
    path = tmp_path / "w" / "surface.csv"
    handles, real_open = [], builtins.open

    def keeping_open(file, *args, **kwargs):
        handles.append(real_open(file, *args, **kwargs))
        return handles[-1]
    for module in (builtins, io):
        monkeypatch.setattr(module, "open", keeping_open)
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 1
    message = json.loads((tmp_path / "v" / "error.json").read_text())[
        "error"]["message"]
    assert "is a mesh export" in message
    refused = [fh for fh in handles if fh.name == str(path)]
    assert len(refused) == 1 and refused[0].closed


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
    # c1 = dphi(z0)/2 = 1000 bends the bowl within 1/c1 = 1e-3 of the axis,
    # which 1201 samples over s_max = 4 (steps of 3.3e-3) cannot resolve:
    # the curve fails verify at 576, though the launch shrinks to 1e-6
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


def test_steep_bowl_launches_within_its_axis_scale(tmp_path):
    # c1 = dphi(z0)/2 = 100: the series hands over to the ODE at
    # s = 1e-3 / c1, and the curve verifies (launched at s = 1e-3 it failed
    # at 4.7e-3)
    out = tmp_path / "steep"
    assert main(["bowl", "--out", str(out),
                 "--param", "profile=linear slope=200", "--param", "z0=1",
                 "--param", "s_max=1", "--param", "n_samples=20000",
                 "--param", "n_theta=3"]) == 0
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
    # a stored field whose k (3) contradicts its G (the linear bowl's):
    # the two integration routes disagree and the run must fail loudly
    from phimin.weierstrass import (GaussField, rotational_gauss_field,
                                    save_gauss_field)
    curve = cli.solve_bowl(profile_from_spec("linear slope=1"), 0.5, 4.0)
    f = rotational_gauss_field(curve, (1.0, 3.0), n_u=61, v_halfwidth=1.0,
                               n_v=41)
    path = tmp_path / "field.csv"
    save_gauss_field(GaussField(f.u, f.v, f.G, k_param=3.0), path)
    out = tmp_path / "out"
    assert main(["weierstrass", str(path), "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"]["type"] == "NumericalError"
    assert doc["error"]["exit_code"] == 2
    assert "path dependence" in doc["error"]["message"]


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


def test_weierstrass_refuses_a_field_whose_k_belongs_to_no_weight(tmp_path):
    # k is the weight's family index, and only the linear and log weights
    # have one: a series or custom weight is a configuration error, refused
    # before anything is written
    for name, weight in (("series", "series L=1 b=1"),
                         ("custom", "custom dphi=1")):
        out = tmp_path / name
        assert main(["weierstrass", "--grid", "81x61", "--param",
                     f"profile={weight}", "--out", str(out)]) == 1, name
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["type"] == "ValueError" and error["exit_code"] == 1
        assert "linear and log weights" in error["message"], name
        assert f"{name} weight" in error["message"], name


def test_weierstrass_refuses_a_linear_slope_other_than_one(tmp_path):
    # k = 1 is the index of the weight z alone: the field of a bowl of
    # slope 2 would be rebuilt as a surface of slope 1 (radii 0.264-3.502
    # against the sampled 0.875-2.037), so it is refused, not written
    out = tmp_path / "w"
    assert main(["weierstrass", "--param", "profile=linear slope=2",
                 "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "ValueError" and error["exit_code"] == 1
    assert "slope 1 (k = 1), not the slope 2" in error["message"]


def test_weierstrass_derives_k_from_a_log_weight(tmp_path):
    # alpha log z has k = 1 + 2/alpha: log alpha=1 builds the k = 3 field
    out = tmp_path / "w"
    assert main(["weierstrass", "--grid", "81x61",
                 "--param", "profile=log alpha=1", "--param", "s_max=4",
                 "--param", "s_hi=3", "--format", "csv",
                 "--out", str(out)]) == 0
    doc = read_report(out)
    assert "k" not in doc["config"]
    assert float(doc["report"]["k"]) == 3.0
    assert float(doc["report"]["pde_residual_max"]) < 1e-3
    meta, _, _ = read_csv(out / "field.csv")
    assert float(meta["k"]) == 3.0
    assert main(["verify", str(out / "field.csv"),
                 "--out", str(tmp_path / "v")]) == 0
    # k is no key of its own
    bad = tmp_path / "k"
    assert main(["weierstrass", "--param", "k=3", "--out", str(bad)]) == 1
    assert sorted(p.name for p in bad.iterdir()) == ["error.json"]
    message = json.loads((bad / "error.json").read_text())["error"]["message"]
    assert message.startswith("unknown config keys for weierstrass: k ")


@pytest.mark.parametrize("expr", ["1+", "(z"])
def test_malformed_weight_expression_exits_one(tmp_path, expr):
    # a configuration error, not an internal fault
    out = tmp_path / "bad"
    assert main(["profile", "--param", f"profile=custom dphi={expr}",
                 "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["exit_code"] == 1
    assert "malformed profile expression" in error["message"]


def test_decreasing_custom_weight_is_read_off_its_dphi(tmp_path):
    # dphi = -1 makes a decreasing weight: profile solves and verifies its
    # catenary, while lambda, which needs an increasing weight, refuses it
    out = tmp_path / "p"
    assert main(["profile", "--param", "profile=custom dphi=-1",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out / "curve.csv"),
                 "--out", str(tmp_path / "v")]) == 0
    lam = tmp_path / "lambda"
    assert main(["lambda", "--param", "profile=custom dphi=-1",
                 "--out", str(lam)]) == 1
    message = json.loads((lam / "error.json").read_text())["error"]["message"]
    assert "strictly increasing" in message


def _circle_data(tmp_path) -> Path:
    """Cauchy data of a horizontal circle with its bowl-like normal."""
    theta0 = 0.9
    beta = np.zeros((3, 5))
    normal = np.zeros((3, 5))
    beta[0, 1] = 2.0
    beta[1, 2] = 2.0
    beta[2, 0] = 1.0
    normal[0, 1] = -np.sin(theta0)
    normal[1, 2] = -np.sin(theta0)
    normal[2, 0] = np.cos(theta0)
    data_path = tmp_path / "circle.json"
    data_path.write_text(json.dumps({
        "curve_kind": "fourier", "k": 1.0, "degree": 8, "period": 4 * np.pi,
        "beta": beta.tolist(), "normal": normal.tolist()}))
    return data_path


def test_bjorling_command(tmp_path):
    data_path = _circle_data(tmp_path)
    out = tmp_path / "out"
    code = main(["bjorling", str(data_path), "--out", str(out),
                 "--param", "halfwidth=0.1", "--grid", "101x21"])
    assert code == 0
    report = read_report(out)["report"]
    assert float(report["certificate"]) < 1e-4
    assert report["branch"] == "primary"
    assert (out / "field.csv").exists()

    # a strip too wide for the series fails its certificate (about 2e-3
    # against the field bound 1e-3) before anything is written, and the
    # bound cannot be raised: a field verify rejects is never written
    wide = ["bjorling", str(data_path), "--grid", "11x5",
            "--param", "halfwidth=0.5"]
    out = tmp_path / "wide"
    assert main(wide + ["--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    out = tmp_path / "wide_tol"
    assert main(wide + ["--param", "reconstruct=false", "--tol", "1",
                        "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    # a field the certificate accepts but whose reconstruction fails its
    # path check is integrated before it is written, so it leaves no file
    out = tmp_path / "coarse"
    assert main(["bjorling", str(data_path), "--grid", "21x5", "--param",
                 "halfwidth=0.2", "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert "path dependence" in message


def test_keys_are_validated_before_any_artifact_is_written(tmp_path):
    data_path = _circle_data(tmp_path)
    for name, argv in (
            ("bowl", ["bowl", "--param", "r_window=1"]),
            ("weierstrass", ["weierstrass", "--grid", "41x31",
                             "--param", "anchor=1,2"]),
            ("bjorling", ["bjorling", str(data_path), "--param",
                          "halfwidth=0.1", "--param", "reconstruct=maybe"])):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 1, name
        assert sorted(p.name for p in out.iterdir()) == ["error.json"], name


@pytest.mark.parametrize("key, arity, slot", [
    ("base", 2, 0), ("base", 2, 1),
    ("anchor", 3, 0), ("anchor", 3, 1), ("anchor", 3, 2)])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
def test_base_and_anchor_take_finite_numbers(tmp_path, key, arity, slot,
                                             value):
    # a NaN anchor filled surface.csv with nan, and a NaN base was
    # reported as a path dependence; each is refused as the key it is
    parts = ["0.5"] * arity
    parts[slot] = value
    out = tmp_path / "w"
    assert main(["weierstrass", "--grid", "41x31", "--param",
                 f"{key}={','.join(parts)}", "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    doc = json.loads((out / "error.json").read_text())["error"]
    assert doc["exit_code"] == 1 and f"config key {key!r}" in doc["message"]


def test_weierstrass_refused_base_leaves_only_the_error(tmp_path):
    # base is checked inside the integration, so the built field is written
    # only once the integration succeeds
    out = tmp_path / "w"
    assert main(["weierstrass", "--grid", "41x31", "--param", "base=100,0",
                 "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert "outside the sampled rectangle" in message


def test_a_failing_calabi_to_l3_leaves_only_the_error(tmp_path):
    # the source patch is written with the transformed one, after the
    # transform: a fold-over leaves no source.csv behind
    out = tmp_path / "l3"
    assert main(["calabi-to-l3", "--preset", "lorentz-soliton-pair",
                 "--grid", "9x9", "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert "folds over" in message


def test_a_failing_calabi_to_r3_leaves_only_the_error(reaper_run, tmp_path):
    # the round trip is written after its comparison with the source: a
    # source that is no graph patch leaves no roundtrip.csv behind
    fwd = tmp_path / "fwd"
    assert main(["calabi-to-l3", "--grid", "31x31", "--param", "half_x=1.0",
                 "--param", "half_y=1.0", "--param", "x_max=1.2",
                 "--out", str(fwd)]) == 0
    out = tmp_path / "r3"
    assert main(["calabi-to-r3", str(fwd / "lorentz.csv"), "--param",
                 f"source={reaper_run / 'curve.csv'}", "--out",
                 str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert "not a graph patch artifact" in message


_FORWARD = ["calabi-to-l3", "--grid", "31x31", "--param", "half_x=1.0",
            "--param", "half_y=1.0", "--param", "x_max=1.2"]


@pytest.mark.parametrize("fault, argv", [
    ("first_integral_drift", ["profile", "--param", "n_samples=101"]),
    ("mean_curvature_residual", ["bowl", "--param", "s_max=1",
                                 "--param", "n_theta=9"]),
    ("mean_curvature_residual", ["tilt", "--param", "n_samples=101",
                                 "--param", "n_rulings=5"]),
    ("revolve", ["catenoid", "--param", "n_theta=9"]),
    ("to_lorentz", ["calabi-to-l3", "--grid", "21x21"]),
    ("_patch_sup_difference", ["calabi-to-r3", "{forward}/lorentz.csv"]),
    ("integrate_representation", ["weierstrass", "--grid", "41x31"]),
    ("integrate_representation", ["bjorling", "{circle}", "--param",
                                  "halfwidth=0.1", "--grid", "101x21"]),
], ids=["profile", "bowl", "tilt", "catenoid", "calabi-to-l3",
        "calabi-to-r3", "weierstrass", "bjorling"])
def test_a_failing_command_leaves_only_the_error(tmp_path, monkeypatch,
                                                 fault, argv):
    # every writing command fails at a computation it runs once its files
    # are ready to write: the files are written after the last check, so
    # the run leaves error.json alone
    forward = tmp_path / "forward"
    if argv[0] == "calabi-to-r3":
        assert main(_FORWARD + ["--out", str(forward)]) == 0
    argv = [a.format(forward=forward, circle=_circle_data(tmp_path))
            for a in argv]

    def injected(*args, **kwargs):
        raise NumericalError(f"injected fault in {fault}")
    monkeypatch.setattr(cli, fault, injected)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert message == f"injected fault in {fault}"


def test_a_failing_writer_leaves_only_the_error(tmp_path, monkeypatch):
    # the second mesh file fails to write after the curves and the first
    # mesh are written: _finish removes them, so the run leaves error.json
    # alone (it left all three beside it)
    calls, save_obj = [], cli.save_obj

    def save(mesh, path, comments=()):
        calls.append(path.name)
        if len(calls) == 2:
            raise OSError(f"injected fault writing {path.name}")
        save_obj(mesh, path, comments)
    monkeypatch.setattr(cli, "save_obj", save)
    out = tmp_path / "out"
    assert main(["catenoid", "--param", "n_samples=201", "--param",
                 "n_theta=8", "--out", str(out)]) == 1
    assert calls == ["catenoid_right.obj", "catenoid_left.obj"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert message == "injected fault writing catenoid_left.obj"


def test_a_named_command_builds_its_parser_alone(capsys):
    # argv[0] names the one subparser to build; the help it prints is the
    # one the parser of every command prints for it
    def subcommands(parser):
        return [name for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
                for name in action.choices]
    assert subcommands(cli._build_parser()) == list(COMMANDS)
    for command in COMMANDS:
        alone = cli._build_parser(command)
        assert subcommands(alone) == [command]
        texts = []
        for parser in (alone, cli._build_parser()):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args([command, "--help"])
            assert exit_.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1], command
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in COMMANDS)


@pytest.mark.parametrize("weight, u0, code", [
    ("log alpha=1", "1", 1), ("series L=1 b=1", "0.5", 1),
    ("linear slope=2", "0", 0)])
def test_tilt_refuses_a_weight_whose_dphi_varies(tmp_path, weight, u0, code):
    # the tilt maps solutions to solutions only for a constant dphi: these
    # log and series tilts exited 0 with residual_tilted 1.3e+01 and 6.7e-01
    out = tmp_path / "tilt"
    assert main(["tilt", "--param", f"profile={weight}", "--param",
                 f"u0={u0}", "--param", "x_max=0.5", "--out", str(out)]) \
        == code
    if code:
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        message = json.loads(
            (out / "error.json").read_text())["error"]["message"]
        assert "dphi is constant" in message
    else:
        assert float(read_report(out)["report"]["residual_tilted"]) < 1e-5
    # the identity tilt of the same catenary is the extruded cylinder
    assert main(["tilt", "--param", f"profile={weight}", "--param",
                 f"u0={u0}", "--param", "x_max=0.5", "--param", "angle=0",
                 "--out", str(tmp_path / "flat")]) == 0


def test_tilt_at_angle_zero_builds_no_second_mesh(tmp_path, monkeypatch):
    # the extruded mesh's residual does not depend on the angle; at angle 0
    # the tilted mesh is the extruded one, and its residual is reported
    # for both, bit for bit
    args = ["tilt", "--preset", "grim-reaper-cylinder", "--out"]
    assert main(args + [str(tmp_path / "tilted"), "--param", "angle=0.5"]) \
        == 0

    def refuse(*args):
        raise AssertionError("a second mesh was built at angle 0")
    monkeypatch.setattr(cli, "extrude_cylinder", refuse)
    assert main(args + [str(tmp_path / "flat")]) == 0
    flat = read_report(tmp_path / "flat")["report"]
    assert flat["residual_flat"] == flat["residual_tilted"] \
        == read_report(tmp_path / "tilted")["report"]["residual_flat"]


def test_tilt_refuses_fewer_than_three_rulings(tmp_path):
    # two rulings leave no interior vertex: the mesh residual was all NaN,
    # and the command exited 0 with residual_tilted "nan"
    assert COMMANDS["tilt"].keys["n_rulings"].minimum == 3
    out = tmp_path / "two"
    assert main(["tilt", "--param", "n_rulings=2", "--param", "n_samples=3",
                 "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert json.loads((out / "error.json").read_text())["error"][
        "message"] == "config key 'n_rulings' must be >= 3, got 2"


@pytest.mark.parametrize("columns, argv, artifact", [
    ("s,x,z,theta", ["bowl", "--param", "s_max=1", "--param", "n_theta=9"],
     "curve.csv"),
    ("u,v,re_g,im_g", ["weierstrass", "--grid", "41x31", "--format", "csv"],
     "field.csv")], ids=["curve", "field"])
def test_each_gate_applies_the_bound_verify_applies(tmp_path, monkeypatch,
                                                    columns, argv, artifact):
    # a command's pre-write gate and verify read one bound per kind: below
    # the artifact's residual, it refuses both the file and the write
    assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
    path = str(tmp_path / "ok" / artifact)
    assert main(["verify", path, "--out", str(tmp_path / "v")]) == 0
    doc = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert float(doc["threshold"]) == cli._VERIFIED[columns].bound
    bound = 0.5 * float(doc["max_residual"])
    monkeypatch.setitem(cli._VERIFIED, columns,
                        cli._VERIFIED[columns]._replace(bound=bound))
    assert main(["verify", path, "--out", str(tmp_path / "v2")]) == 2
    doc = json.loads((tmp_path / "v2" / "verify.json").read_text())
    assert doc["threshold"] == cli._fmt(bound)
    out = tmp_path / "refused"
    assert main(argv + ["--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert f"verify threshold {cli._fmt(bound)}" in message


def test_domain_errors_print_plain_floats(tmp_path):
    out = tmp_path / "c"
    assert main(["calabi-to-l3", "--grid", "41x41",
                 "--param", "profile=log alpha=1", "--param", "patch=reaper",
                 "--out", str(out)]) == 1
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert message == "initial height 0.0 outside profile domain (0.0, inf)"
    assert "np." not in message


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


# the public names of phimin's modules that no command reaches, and why
# each stays; any other such name goes
_UNREACHED = {
    "surfaces.graph_mean_curvature":
        "wrapped by name by bench/tracing.py (ROADMAP item 3)",
    "surfaces.graph_gauss_curvature":
        "wrapped by name by bench/tracing.py (ROADMAP item 3)",
    "surfaces.SurfaceMesh.faces":
        "the topology digest of bench/tracing.py (ROADMAP item 3)",
    "surfaces.second_fundamental_norm":
        "the gallery's shape-operator diagnostic (ROADMAP item 3)",
    "surfaces.SurfaceMesh.normals":
        "the whole normals, read by that diagnostic; commands ask for rows",
    "calabi.GridSplines.at":
        "the resampling Newton's fallback for a block whose own guess "
        "disagrees with the whole-array rule; no workload seed reaches it",
}


def _public_code():
    """Name by code object of every public function, method and property
    defined in a phimin module."""
    names = {}
    for info in pkgutil.iter_modules(phimin.__path__):
        module = importlib.import_module(f"phimin.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") \
                    or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) \
                else [("", obj)]
            for attr, value in members:
                if attr.startswith("_"):
                    continue
                fn = value.fget if isinstance(value, property) \
                    else getattr(value, "__func__", value)
                if inspect.isfunction(fn):
                    names[fn.__code__] = ".".join(
                        filter(None, (info.name, name, attr)))
    return names


def test_every_public_function_is_reached_by_a_command(tmp_path):
    # a public function, method or property of a phimin module that no
    # command reaches goes, unless _UNREACHED says why it stays
    wanted = _public_code()
    assert {getattr(phimin, name).__code__ for name in phimin.__all__
            if inspect.isfunction(getattr(phimin, name))} <= wanted.keys()
    assert set(_UNREACHED) <= set(wanted.values())
    circle = str(_circle_data(tmp_path))
    line = tmp_path / "line.json"  # Taylor data: the reaper's axis
    line.write_text(json.dumps({"curve_kind": "taylor", "k": 1.0,
                                "beta": [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                                "normal": [[0.0, 0.0], [0.0, 0.0],
                                           [1.0, 0.0]]}))
    out = [tmp_path / str(k) for k in range(15)]  # where each run writes
    runs = (["lambda"],
            ["bowl", "--param", "profile=custom dphi=exp(-1/z) "
             "domain=0.01,inf growth_alpha=0 asymptote=0,1", "--param", "z0=1",
             "--param", "s_max=8", "--param", "n_samples=201",
             "--param", "n_theta=8", "--param", "r_window=2,5"],
            ["calabi-to-l3", "--param", "profile=series L=1 b=0.5",
             "--param", "patch=bowl", "--grid", "21x21"],
            ["calabi-to-r3", str(out[2] / "lorentz.csv")],
            ["weierstrass", "--grid", "41x31"],
            ["bjorling", circle, "--param", "halfwidth=0.1",
             "--grid", "101x21"],
            ["profile", "--param", "n_samples=41"],
            ["tilt", "--param", "n_samples=41", "--param", "n_rulings=5",
             "--format", "ply"],
            ["catenoid", "--param", "n_samples=101", "--param", "n_theta=8",
             "--param", "s_max=2", "--format", "csv"],
            ["weierstrass", str(out[4] / "field.csv"), "--format", "csv"],
            ["bjorling", str(line), "--grid", "21x21", "--format", "ply"],
            ["calabi-to-l3", "--grid", "31x31", "--param", "x_max=1",
             "--param", "half_x=0.8", "--param", "half_y=0.8"],
            ["verify", str(out[6] / "curve.csv")],
            ["verify", str(out[11] / "source.csv")],
            ["verify", str(out[4] / "field.csv")])
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
    sys.setprofile(hook)
    try:
        codes = [main(argv + ["--out", str(out[k])])
                 for k, argv in enumerate(runs)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    unreached = {wanted[c] for c in wanted.keys() - entered}
    assert sorted(unreached - set(_UNREACHED)) == []


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

# the exception families cli.main maps to each failing exit code; any other
# type in error.json is an internal fault, which exits 2 too but fails here
_MAPPED = {1: (ValueError, OSError),
           2: (NumericalError, ArithmeticError, np.linalg.LinAlgError)}


def _mapped_types(code):
    """Names of the exception types of code ``code``'s families."""
    names, families = set(), list(_MAPPED[code])
    while families:
        family = families.pop()
        names.add(family.__name__)
        families += family.__subclasses__()
    return names


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


def _values(spec):
    """Hostile text for a key of the table, by its type and domain."""
    if spec.type == "integer":
        # above the limit, rejected before anything is allocated, the
        # minimum, just below it, or smaller
        return st.sampled_from([str(spec.limit + 1), "10" * 20,
                                str(spec.minimum), str(spec.minimum - 1),
                                "0", "-1", "nan", "1e308"])
    if spec.type == "grid":
        return st.sampled_from([f"{spec.limit + 1}x1", f"3x{spec.limit}",
                                "100000x100000", "3x3", "2x9", "nanxinf",
                                "9"])
    if spec.type == "weight":
        return _PROFILES
    if spec.type == "path":
        return _PATHS
    if spec.type == "tuple":
        return st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join)
    return _NUMBERS


@st.composite
def _hostile_runs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    params = dict(_SMALL.get(command, {}))
    keys = COMMANDS[command].keys
    for key in draw(st.lists(st.sampled_from(sorted(keys)), min_size=1,
                             max_size=3, unique=True)):
        params[key] = draw(_values(keys[key]))
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
            assert doc["error"]["type"] in _mapped_types(code)


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
            assert doc["error"]["type"] in _mapped_types(code)


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
