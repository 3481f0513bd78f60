"""Tests for the command-line front end and the SVG renderer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confocal
from confocal.cli import SCHEMAS, _first_violation, load_config, main, run
from confocal.errors import ConfigError, EmptyScene, InvalidParameters
from confocal.geometry import euclidean
from confocal.svgout import Scene, render_svg


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


IVORY_CFG = {"a": [4.0, 1.0], "lam_e": [0.2, -0.5], "lam_h": [1.5, 2.5]}


def test_ivory_check_run(tmp_path):
    cfg = load_config("ivory-check", _write(tmp_path, "c.json", IVORY_CFG))
    report = run("ivory-check", cfg, tmp_path / "out")
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert names == {"diagonal_length_spread", "diagonal_caustic_agreement"}
    for c in report["checks"]:
        assert c["value"] < c["tolerance"]
    assert (tmp_path / "out" / "diagonals.csv").exists()
    assert (tmp_path / "out" / "quadrilateral.svg").exists()
    assert (tmp_path / "out" / "report.json").exists()


def test_exit_codes(tmp_path):
    cfg_path = _write(tmp_path, "c.json", IVORY_CFG)
    assert main(["ivory-check", "--config", cfg_path,
                 "--out", str(tmp_path / "o1")]) == 0
    # impossible tolerance: checks fail, exit 1, report still written
    assert main(["ivory-check", "--config", cfg_path,
                 "--out", str(tmp_path / "o2"), "--tolerance", "1e-30"]) == 1
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert not report["passed"]


def test_config_validation(tmp_path):
    bad = dict(IVORY_CFG, extra_key=1)
    assert main(["ivory-check", "--config", _write(tmp_path, "b.json", bad),
                 "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError):
        load_config("ivory-check", _write(tmp_path, "b2.json", bad))
    with pytest.raises(ConfigError):
        load_config("ivory-check", str(tmp_path / "missing.json"))


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schema_is_valid(command):
    # load_config validates against the schemas without checking them
    jsonschema.Draft202012Validator.check_schema(SCHEMAS[command])


@pytest.mark.parametrize("bad", [
    dict(IVORY_CFG, extra_key=1),
    {"a": [4.0, 1.0], "lam_e": [0.2, -0.5]},
    dict(IVORY_CFG, a=[4.0]),
    dict(IVORY_CFG, lam_h="wide", seed=-1),
])
def test_config_error_message_matches_validate(tmp_path, bad):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, SCHEMAS["ivory-check"])
    with pytest.raises(ConfigError) as got:
        load_config("ivory-check", _write(tmp_path, "b.json", bad))
    assert str(got.value) == f"config rejected: {want.value.message}"


# values of every JSON type, most of which break any one schema
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                  st.floats(allow_infinity=False), st.text(max_size=2),
                  st.lists(st.integers(0, 1), max_size=2),
                  st.dictionaries(st.text(max_size=1), st.none(), max_size=1))


def _valid(schema):
    """Instances of `schema`, with and without its optional keys."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "integer":
        return st.integers(1, 4) | st.just(2.0) if "minimum" in schema else st.integers()
    if kind == "number":
        if "exclusiveMinimum" in schema:
            return st.floats(1e-3, 3.0)
        return st.floats(-3.0, 3.0) | st.integers(-2, 2)
    if kind == "array":
        lo = schema.get("minItems", 0)
        return st.lists(_valid(schema["items"]), min_size=lo,
                        max_size=schema.get("maxItems", lo + 2))
    props, required = schema["properties"], schema["required"]
    return st.fixed_dictionaries(
        {k: _valid(props[k]) for k in required},
        optional={k: _valid(v) for k, v in props.items() if k not in required})


def _nodes(x, path=()):
    yield path
    children = x.items() if isinstance(x, dict) else (
        enumerate(x) if isinstance(x, list) else ())
    for k, v in children:
        yield from _nodes(v, path + (k,))


def _break(data, cfg):
    """cfg with a value replaced by junk, a key or item removed, or a key
    or item added, at a node drawn from the whole tree (the root too)."""
    path = data.draw(st.sampled_from(list(_nodes(cfg))))
    op = data.draw(st.sampled_from(["junk", "drop", "add"]))
    if op == "junk" and not path:
        return data.draw(_JUNK)
    parent = cfg
    for k in path[:-1]:
        parent = parent[k]
    if op == "junk":
        parent[path[-1]] = data.draw(_JUNK)
    elif op == "drop" and path:
        del parent[path[-1]]
    else:
        node = parent[path[-1]] if path else cfg
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(["extra", "seed", "format", "name"]))] = data.draw(_JUNK)
        elif isinstance(node, list):
            node.append(data.draw(_JUNK))
    return cfg


@pytest.mark.parametrize("command", sorted(SCHEMAS))
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_validation_matches_jsonschema_best_match(command, data):
    # jsonschema is the oracle here only; the package validates without it
    cfg = data.draw(_valid(SCHEMAS[command]))
    for _ in range(data.draw(st.integers(1, 3))):
        cfg = _break(data, cfg)
    validator = jsonschema.Draft202012Validator(SCHEMAS[command])
    want = jsonschema.exceptions.best_match(validator.iter_errors(cfg))
    assert _first_violation(SCHEMAS[command], cfg) == (
        None if want is None else want.message)


def test_newton_zero_samples_rejected(tmp_path):
    cfg = {"surface": {"kind": "sphere", "geometry": "hyperbolic", "dim": 3,
                       "radius": 0.5},
           "point": [1.0, 0.0, 0.0, 0.0], "expect": "zero", "N": 0, "seed": 1}
    with pytest.raises(ConfigError):
        load_config("newton-check", _write(tmp_path, "n.json", cfg))


ARNOLD_CFG = {"coeffs": [[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
              "eps": 0.05, "point": [0.1, 0.0], "N": 1000}
NEWTON_CFG = {"surface": {"kind": "ellipsoid", "geometry": "spherical",
                          "a": [3.0, 2.0, 1.5], "b": 1.0},
              "point": [0.9887710779360422, 0.14943813247359922, 0.0, 0.0],
              "expect": "zero", "N": 512}


def test_seed_is_optional_and_changes_no_byte(tmp_path):
    """No subcommand draws random numbers: a run needs no seed, and a seed
    in the config or on the command line changes no byte of the outputs."""
    for command, cfg, files in (("arnold-check", ARNOLD_CFG, ("field.csv", "report.json")),
                                ("newton-check", NEWTON_CFG, ("field.csv", "report.json"))):
        runs = [(cfg, []), (cfg, []), (dict(cfg, seed=5), []), (cfg, ["--seed", "123"])]
        outs = []
        for k, (c, extra) in enumerate(runs):
            out = tmp_path / f"{command}{k}"
            assert main([command, "--config", _write(tmp_path, f"{command}{k}.json", c),
                         "--out", str(out)] + extra) == 0
            outs.append([(out / name).read_bytes() for name in files])
        assert all(o == outs[0] for o in outs)
        assert "seed" not in json.loads(outs[0][1])["config"]
    assert "seed" not in load_config("arnold-check",
                                     _write(tmp_path, "a.json", dict(ARNOLD_CFG, seed=5)))


def test_unresolved_rule_exits_3(tmp_path, capsys):
    """A rule too small for the point's clearance raises RuleUnresolved
    rather than pass a field it cannot resolve."""
    cfg = dict(NEWTON_CFG, N=8)
    assert main(["newton-check", "--config", _write(tmp_path, "n.json", cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert "RuleUnresolved: error estimate" in capsys.readouterr().err


def test_rule_of_nine_is_held_to_a_finer_rule(tmp_path, capsys):
    """At N = 9 the S^2 direction rules of N and 2N were the same 18 nodes,
    so the error estimate read 0 and the unresolved field failed its check
    (exit 1); the fine rule now has more nodes and the run stops with
    RuleUnresolved."""
    cfg = dict(NEWTON_CFG, N=9)
    assert main(["newton-check", "--config", _write(tmp_path, "n.json", cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert "RuleUnresolved: error estimate" in capsys.readouterr().err


SHELL_CFG = {"surface": {"kind": "sphere", "geometry": "hyperbolic", "dim": 3, "radius": 0.5},
             "point": [float(np.cosh(1.0)), float(np.sinh(1.0)), 0.0, 0.0],
             "expect": "point_mass", "N": 2000}


def test_newton_point_mass_on_the_hyperbolic_shell(tmp_path):
    """Outside a round shell of H^3 the field is the point mass's at its
    center, 1 / sinh^2 D."""
    assert main(["newton-check", "--config", _write(tmp_path, "n.json", SHELL_CFG),
                 "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["point_mass_relative_error"]


def test_point_mass_oracle_is_refused_before_the_cubature(tmp_path, capsys, monkeypatch):
    """The point-mass oracle holds on the H^3 shell alone: another surface
    is a config error (exit 2), refused before the field is computed, so
    not blamed on an unresolved rule at N = 9 (exit 3)."""
    import confocal.potentials

    def no_field(*args):
        raise AssertionError("field_at ran")

    monkeypatch.setattr(confocal.potentials, "field_at", no_field)
    for surface, N in (({"kind": "sphere", "geometry": "spherical", "dim": 3, "radius": 0.6}, 9),
                       (NEWTON_CFG["surface"], 512)):
        cfg = dict(SHELL_CFG, surface=surface, N=N,
                   point=[0.9800665778412416, 0.19866933079506122, 0.0, 0.0])
        assert main(["newton-check", "--config", _write(tmp_path, "n.json", cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "point_mass oracle requires a hyperbolic sphere" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, old, new", [
    ("arnold-check", ARNOLD_CFG, '"eps": 0.05', '"eps": NaN'),
    ("arnold-check", ARNOLD_CFG, '"point": [0.1, 0.0]', '"point": [NaN, 0.0]'),
    ("arnold-check", ARNOLD_CFG, '"eps": 0.05', '"eps": Infinity'),
    ("arnold-check", ARNOLD_CFG, '"eps": 0.05', '"eps": 1e999'),
    ("potential-scan", {"geometry": "spherical", "dim": 3,
                        "radii": {"start": 0.3, "stop": 1.2, "count": 4}},
     '"stop": 1.2', '"stop": -Infinity'),
    ("arnold-check", ARNOLD_CFG, '"N": 1000', '"N": 1000, "tolerance": NaN')],
    ids=["eps-nan", "point-nan", "eps-inf", "eps-1e999", "radius-neg-inf", "tolerance-nan"])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, cfg, old, new):
    """json reads NaN and +-Infinity literals, and 1e999 as inf; NaN passes
    every bound of the schemas.  Each is refused as the config is read."""
    text = json.dumps(cfg)
    assert old in text
    path = tmp_path / "c.json"
    path.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match="non-finite number"):
        load_config(command, str(path))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "non-finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, old", [
    ("newton-check", {"surface": {"kind": "sphere", "geometry": "hyperbolic", "dim": 3,
                                  "radius": 0.5},
                      "point": [1.0, 0.0, 0.0, 0.0], "expect": "zero", "N": 2000}, "0.5"),
    ("potential-scan", {"geometry": "spherical", "dim": 3,
                        "radii": {"start": 0.3, "stop": 1.2, "count": 4}}, "1.2"),
    ("billiard-orbit", {"a": [4.0, 1.0], "outer_lam": 0.0, "lam_c": 0.5, "bounces": 20}, "0.0")],
    ids=["newton-radius", "scan-stop", "orbit-outer-lam"])
def test_huge_config_integers_exit_2(tmp_path, capsys, command, cfg, old):
    """json reads a 400-digit integer exactly, as a Python int that no float
    holds; it is refused as the config is read.  It had ended in a
    TypeError, a numpy casting error and an OverflowError, each exit 1."""
    text = json.dumps(cfg)
    assert text.count(old) == 1
    path = tmp_path / "c.json"
    path.write_text(text.replace(old, "9" * 400))
    with pytest.raises(ConfigError, match="400 digits overflows a float"):
        load_config(command, str(path))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_non_finite_tolerance_option_exits_2(tmp_path, capsys, tolerance):
    """--tolerance nan failed every check against "tolerance nan", and
    --tolerance inf passed them all."""
    path = _write(tmp_path, "a.json", ARNOLD_CFG)
    with pytest.raises(ConfigError, match="non-finite number"):
        load_config("arnold-check", path, tolerance=float(tolerance))
    assert main(["arnold-check", "--config", path, "--out", str(tmp_path / "o"),
                 "--tolerance", tolerance]) == 2
    assert "non-finite number" in capsys.readouterr().err


def test_field_csv_columns(tmp_path):
    for command, cfg, header in (
            ("newton-check", NEWTON_CFG, "field_norm,error_estimate,N"),
            ("arnold-check", ARNOLD_CFG,
             "field_norm,error_estimate,N,hyperbolicity_margin")):
        out = tmp_path / command
        assert main([command, "--config", _write(tmp_path, f"{command}.json", cfg),
                     "--out", str(out)]) == 0
        lines = (out / "field.csv").read_text().splitlines()
        assert lines[0] == header and len(lines) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["checks"][0]["tolerance"] == 1e-10


def test_arnold_point_outside_domain_exits_3(tmp_path, capsys):
    cfg = dict(ARNOLD_CFG, point=[1.02, 0.0])
    assert main(["arnold-check", "--config", _write(tmp_path, "a.json", cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert "NotInHyperbolicityDomain" in capsys.readouterr().err


def _cli_cold_configs(seed):
    """The shapes of the benchmark's newton-check and arnold-check configs:
    N = 2000, a point 0.2 from the center of the radius-0.6 sphere of S^3,
    and a point of [-0.3, 0.3]^2 inside the unit circle's layer."""
    r = np.random.default_rng([seed, 0])
    d = r.normal(size=3)
    d /= np.linalg.norm(d)
    point = [float(np.cos(0.2))] + [float(np.sin(0.2) * v) for v in d]
    return {
        "newton-check": {"surface": {"kind": "sphere", "geometry": "spherical",
                                     "dim": 3, "radius": 0.6},
                         "point": point, "expect": "zero", "N": 2000,
                         "seed": int(r.integers(2**31))},
        "arnold-check": {"coeffs": [[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                         "eps": 0.05, "point": [float(v) for v in r.uniform(-0.3, 0.3, 2)],
                         "N": 2000, "seed": int(r.integers(2**31))},
    }


def test_benchmark_shaped_configs_pass(tmp_path):
    """The benchmark imports STOCHASTIC and load_config, and gates on exit
    0 with every check passed; its configs still carry N and seed."""
    from confocal.cli import STOCHASTIC
    assert STOCHASTIC == frozenset()
    for seed in range(20):
        for command, cfg in _cli_cold_configs(seed).items():
            path = _write(tmp_path, f"{command}{seed}.json", cfg)
            load_config(command, path)
            out = tmp_path / f"{command}{seed}"
            assert main([command, "--config", path, "--out", str(out)]) == 0, (seed, command)
            report = json.loads((out / "report.json").read_text())
            assert report["passed"] and all(c["passed"] for c in report["checks"])


def test_determinism_byte_identical(tmp_path):
    cfg = {"a": [4.0, 1.0], "outer_lam": -0.2, "q": 9, "p": 2}
    cfg_path = _write(tmp_path, "g.json", cfg)
    assert main(["poncelet-grid", "--config", cfg_path,
                 "--out", str(tmp_path / "r1")]) == 0
    assert main(["poncelet-grid", "--config", cfg_path,
                 "--out", str(tmp_path / "r2")]) == 0
    for name in ("grid_points.csv", "grid.svg", "report.json"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2


@pytest.mark.parametrize("start_x", [0.1, 0.4, 0.7])
def test_billiard_orbit_hyperbola_caustic(tmp_path, start_x):
    """A hyperbola caustic (a2 < lam_c < a1) is drawn as its two branches
    inside the table: each sample lies on the hyperbola, the ends on the
    table, and the left branch mirrors the right one.  Drawn as an ellipse,
    its semiaxis was the root of a negative number and the run exited 3."""
    from confocal.billiards import CausticChart
    from confocal.quadrics import ConfocalFamily

    cfg = {"a": [4.0, 1.0], "outer_lam": 0.0, "lam_c": 2.0, "start_x": start_x, "bounces": 20}
    assert main(["billiard-orbit", "--config", _write(tmp_path, "h.json", cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "report.json").read_text())["passed"]
    svg = (tmp_path / "o" / "orbit.svg").read_text()
    assert svg.count("<ellipse") == 1 and svg.count("<polyline") == 3
    from confocal.cli import _add_caustic
    scene = Scene()
    _add_caustic(scene, CausticChart(ConfocalFamily(euclidean(2), [4.0, 1.0]), 2.0), 0.0, "red")
    (_, right, *_), (_, left, *_) = scene.elements
    # x^2 / (a1 - lam) + y^2 / (a2 - lam) = 1 at lam = 2 (the caustic), 0 (the table)
    assert np.max(np.abs(right[:, 0] ** 2 / 2.0 - right[:, 1] ** 2 - 1.0)) < 1e-14
    assert np.max(np.abs(right[[0, -1], 0] ** 2 / 4.0 + right[[0, -1], 1] ** 2 - 1.0)) < 1e-14
    assert np.array_equal(left, right * (-1.0, 1.0))


def test_billiard_orbit_ellipse_caustic(tmp_path):
    """An ellipse caustic is drawn whole, with semiaxes sqrt(a_i - lam_c);
    each bounce lies on the table."""
    from confocal.billiards import CausticChart
    from confocal.cli import _add_caustic
    from confocal.quadrics import ConfocalFamily

    cfg = {"a": [4.0, 1.0], "outer_lam": 0.0, "lam_c": 0.5, "bounces": 20}
    assert main(["billiard-orbit", "--config", _write(tmp_path, "e.json", cfg),
                 "--out", str(tmp_path / "o")]) == 0
    svg = (tmp_path / "o" / "orbit.svg").read_text()
    assert svg.count("<ellipse") == 2 and svg.count("<polyline") == 1
    assert f'rx="{np.sqrt(3.5):.6g}" ry="{np.sqrt(0.5):.6g}"' in svg
    scene = Scene()
    _add_caustic(scene, CausticChart(ConfocalFamily(euclidean(2), [4.0, 1.0]), 0.5), 0.0, "red")
    (kind, center, rx, ry, *_), = scene.elements
    assert kind == "ellipse" and np.array_equal(center, [0.0, 0.0])
    assert abs(rx - np.sqrt(3.5)) < 1e-15 and abs(ry - np.sqrt(0.5)) < 1e-15
    rows = (tmp_path / "o" / "orbit.csv").read_text().splitlines()[1:]
    verts = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
    assert verts.shape == (20, 2)
    assert np.max(np.abs(verts[:, 0] ** 2 / 4.0 + verts[:, 1] ** 2 - 1.0)) < 1e-12


def test_inscribed_circles_far_corners_pass(tmp_path):
    # corners near opposite ends of the major axis: an ex-tangential ACBD
    cfg = {"a": [4.0, 1.0], "outer_lam": 0.05, "lam_c": 0.5,
           "theta_a": 0.2, "theta_b": 2.8}
    assert main(["inscribed-circles", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])


def _grid_checks(tmp_path, q, start_x, label):
    cfg = {"a": [4.0, 1.0], "outer_lam": -0.2, "q": q, "p": 2,
           "start_x": start_x}
    cfg = load_config("poncelet-grid", _write(tmp_path, f"{label}.json", cfg))
    report = run("poncelet-grid", cfg, tmp_path / label)
    return {c["name"]: c for c in report["checks"]}, report["passed"]


def test_poncelet_grid_q41_passes(tmp_path):
    # lambda reaches ~1.6e3 on the outer rings of a q=41 grid; the spread,
    # per unit of each ring's largest |p|^2, stays near rounding
    rng = np.random.default_rng(41)
    for k, start_x in enumerate(rng.uniform(0.0, 1.0, 30).tolist()):
        checks, passed = _grid_checks(tmp_path, 41, start_x, f"g{k}")
        assert passed, (start_x, checks)
        assert checks["concentric_spread"]["value"] < 1e-10


@pytest.mark.parametrize("q", [9, 41])
@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_poncelet_grid_concentric_gate_sees_wrong_caustic(tmp_path, monkeypatch,
                                                          q, shift):
    # a caustic 1e-6 off the Poncelet value: the polygon no longer closes,
    # the rings are no longer confocal ellipses, and the gate says so
    import confocal.billiards as billiards
    exact = billiards.poncelet_caustic_for_rotation
    monkeypatch.setattr(billiards, "poncelet_caustic_for_rotation",
                        lambda *args: exact(*args) + shift)
    checks, passed = _grid_checks(tmp_path, q, 0.3, "off")
    assert not passed
    assert checks["concentric_spread"]["value"] > 1e-6


EVEN_GRIDS = [(8, 3), (10, 3), (12, 1), (12, 5)]


@pytest.mark.parametrize("q, p", EVEN_GRIDS)
def test_poncelet_grid_even_q_passes(tmp_path, q, p):
    # opposite sides of an even polygon are parallel: they are decided by
    # index, and the q/2 cells with two corners at infinity are skipped
    from confocal.billiards import poncelet_grid
    from confocal.quadrics import ConfocalFamily
    for k, start_x in enumerate((0.0, 0.11, 0.37, 0.8)):
        cfg = {"a": [4.0, 1.0], "outer_lam": -0.2, "q": q, "p": p, "start_x": start_x}
        assert main(["poncelet-grid", "--config", _write(tmp_path, f"g{k}.json", cfg),
                     "--out", str(tmp_path / f"g{k}")]) == 0, start_x
        report = json.loads((tmp_path / f"g{k}" / "report.json").read_text())
        assert all(c["passed"] for c in report["checks"])
    grid = poncelet_grid(ConfocalFamily(euclidean(2), (4.0, 1.0)), -0.2, q, p, 0.37)
    assert grid["skipped_cells"] == q // 2
    assert len(grid["points"]) == q * (q - 1) // 2 - q // 2


@pytest.mark.parametrize("q, p", EVEN_GRIDS)
def test_poncelet_grid_even_q_sees_wrong_caustic(tmp_path, monkeypatch, q, p):
    # the index rule skips what is parallel by symmetry only: a caustic
    # 1e-6 off still fails the grid
    import confocal.billiards as billiards
    exact = billiards.poncelet_caustic_for_rotation
    monkeypatch.setattr(billiards, "poncelet_caustic_for_rotation",
                        lambda *args: exact(*args) + 1e-6)
    cfg = load_config("poncelet-grid", _write(tmp_path, "off.json", {
        "a": [4.0, 1.0], "outer_lam": -0.2, "q": q, "p": p, "start_x": 0.3}))
    assert not run("poncelet-grid", cfg, tmp_path / "off")["passed"]


@pytest.mark.parametrize("a, outer_lam", [([4, 1], 2), ([2, 2], 3)])
def test_poncelet_grid_outer_mirror_not_an_ellipse_exits_3(tmp_path, capsys, a, outer_lam):
    # a ConfocalError exits 3; a traceback used to exit 1, the "checks
    # failed" code
    cfg = {"a": a, "outer_lam": outer_lam, "q": 5, "p": 1}
    assert main(["poncelet-grid", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path / "out")]) == 3
    assert "InvalidParameters: the outer mirror must be an ellipse" in capsys.readouterr().err


def test_stochastic_determinism(tmp_path):
    cfg = {"coeffs": [[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
           "eps": 0.05, "point": [0.1, 0.0], "N": 2000, "seed": 11}
    cfg_path = _write(tmp_path, "a.json", cfg)
    assert main(["arnold-check", "--config", cfg_path,
                 "--out", str(tmp_path / "r1")]) == 0
    assert main(["arnold-check", "--config", cfg_path,
                 "--out", str(tmp_path / "r2")]) == 0
    for name in ("field.csv", "report.json"):
        assert (tmp_path / "r1" / name).read_bytes() \
            == (tmp_path / "r2" / name).read_bytes()


def test_csv_seventeen_digit_roundtrip(tmp_path):
    cfg = load_config("ivory-check", _write(tmp_path, "c.json", IVORY_CFG))
    report = run("ivory-check", cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "diagonals.csv").read_text().splitlines()
    header = lines[0].split(",")
    values = dict(zip(header, lines[1].split(",")))
    # 17 significant digits round-trip the double exactly
    ac = float(values["AC"])
    bd = float(values["BD"])
    assert abs(ac - bd) < 1e-9 and ac > 0.0


def test_json_format(tmp_path):
    cfg = dict(IVORY_CFG, format="json")
    cfg = load_config("ivory-check", _write(tmp_path, "c.json", cfg))
    run("ivory-check", cfg, tmp_path / "out")
    rows = json.loads((tmp_path / "out" / "diagonals.json").read_text())
    assert abs(rows[0]["AC"] - rows[0]["BD"]) < 1e-9


def test_geodesic_and_staeckel_commands(tmp_path):
    geo = {"metric": {"name": "elliptic_R2", "params": [4.0, 1.0]},
           "corner0": [2.2, 0.4], "corner1": [2.9, 0.8]}
    assert main(["geodesic", "--config", _write(tmp_path, "g.json", geo),
                 "--out", str(tmp_path / "og")]) == 0
    siv = {"metric": {"name": "sphere_conical", "params": [0.8, 0.5, 0.2]},
           "box": [[0.55, 0.65], [0.3, 0.4]]}
    assert main(["staeckel-ivory", "--config", _write(tmp_path, "s.json", siv),
                 "--out", str(tmp_path / "os")]) == 0
    sb = {"metric": {"name": "elliptic_R2", "params": [4.0, 1.0]},
          "walls": [[2.2, 2.9], [0.3, 0.7]], "q0": [2.5, 0.5],
          "p0": [0.8, 0.6], "bounces": 8, "tolerance": 1e-8}
    assert main(["staeckel-billiard", "--config", _write(tmp_path, "b.json", sb),
                 "--out", str(tmp_path / "ob")]) == 0


@pytest.mark.parametrize("metric", [{"name": "elliptic_R2", "params": [4, 2, 1]},
                                    {"name": "ellipsoidal_R3", "params": [4, 2]}])
def test_builtin_metric_with_wrong_params_exits_3(tmp_path, capsys, metric):
    # the schema does not fix the number of params per metric name; the
    # typed InvalidParameters exits 3, where tuple unpacking raised a bare
    # ValueError and exited 1, the "checks failed" code
    geo = {"metric": metric, "corner0": [2.2, 0.4], "corner1": [2.9, 0.8]}
    assert main(["geodesic", "--config", _write(tmp_path, "g.json", geo),
                 "--out", str(tmp_path / "og")]) == 3
    assert "InvalidParameters" in capsys.readouterr().err


@pytest.mark.parametrize("corners", [([2.2, 0.4, 0.1], [2.9, 0.8, 0.2]), ([2.2, 0.4], [2.9])])
def test_geodesic_corners_of_the_wrong_length_exit_2(tmp_path, capsys, corners):
    # a config error, exit 2, where a bare ValueError from zip or numpy
    # broadcasting exited 1, the "checks failed" code
    geo = {"metric": {"name": "elliptic_R2", "params": [4.0, 1.0]},
           "corner0": corners[0], "corner1": corners[1]}
    assert main(["geodesic", "--config", _write(tmp_path, "g.json", geo),
                 "--out", str(tmp_path / "og")]) == 2
    assert "corner0, corner1 must have length 2" in capsys.readouterr().err


def test_potential_scan_command(tmp_path):
    cfg = {"geometry": "spherical", "dim": 3,
           "radii": {"start": 0.3, "stop": 1.2, "count": 10}}
    assert main(["potential-scan", "--config", _write(tmp_path, "p.json", cfg),
                 "--out", str(tmp_path / "op")]) == 0
    report = json.loads((tmp_path / "op" / "report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"flux_constancy", "closed_form_agreement", "antisymmetry"} <= names


def test_timings_separate_from_report(tmp_path):
    cfg = load_config("ivory-check", _write(tmp_path, "c.json", IVORY_CFG))
    run("ivory-check", cfg, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "timings" not in report
    timings = json.loads((tmp_path / "out" / "timings.json").read_text())
    assert timings["compute_s"] >= 0.0
    assert "timings.json" not in report["artifacts"]


# a fresh interpreter prints the package, SciPy and jsonschema modules it has
# loaded after importing confocal.cli, and again after running the
# `confocal` command line given in argv; with no argv, after the positive
# control instead: a lazily exported name, jsonschema and scipy.integrate
_IMPORT_PROBE = """
import json, sys
import confocal, confocal.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("confocal", "scipy", "jsonschema"))

seen = {"import": loaded()}
if sys.argv[1:]:
    confocal.cli.main(sys.argv[1:])
else:
    import jsonschema, scipy.integrate
    confocal.ConfocalFamily
seen["run"] = loaded()
print(json.dumps(seen))
"""
_CLI_MODULES = ["confocal", "confocal.cli", "confocal.errors", "confocal.geometry"]
_PLANAR = ["confocal.billiards", "confocal.quadrics", "confocal.svgout"]


def test_import_cost_guard(tmp_path):
    # each run loads numpy and its own layer: no SciPy, no jsonschema, and
    # none of the other layers
    sphere = {"kind": "sphere", "geometry": "spherical", "dim": 3, "radius": 0.6}
    ellipsoid = {"kind": "ellipsoid", "geometry": "spherical",
                 "a": [3.0, 2.0, 1.5], "b": 1.0}
    runs = {
        "ivory-check": ("ivory-check", IVORY_CFG, _PLANAR),
        "geodesic": ("geodesic", {
            "metric": {"name": "elliptic_R2", "params": [4.0, 1.0]},
            "corner0": [2.2, 0.4], "corner1": [2.9, 0.8]},
            ["confocal.staeckel"]),
        "staeckel-ivory": ("staeckel-ivory", {
            "metric": {"name": "sphere_conical", "params": [0.8, 0.5, 0.2]},
            "box": [[0.55, 0.65], [0.3, 0.4]]}, ["confocal.staeckel"]),
        "newton-check": ("newton-check", {
            "surface": sphere, "point": [1.0, 0.0, 0.0, 0.0],
            "expect": "zero", "N": 200}, ["confocal.potentials"]),
        "newton-check-ellipsoid": ("newton-check", {
            "surface": ellipsoid, "point": [1.0, 0.0, 0.0, 0.0],
            "expect": "zero", "N": 200}, ["confocal.potentials"]),
        "potential-scan-h4": ("potential-scan", {
            "geometry": "hyperbolic", "dim": 4,
            "radii": {"start": 0.2, "stop": 3.0, "count": 8}},
            ["confocal.potentials"]),
        "arnold-check": ("arnold-check", {
            "coeffs": [[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            "eps": 0.05, "point": [0.1, 0.0], "N": 200},
            ["confocal.potentials"]),
        "billiard-orbit": ("billiard-orbit", {
            "a": [4.0, 1.0], "outer_lam": 0.0, "lam_c": 0.5, "bounces": 3},
            _PLANAR),
        "poncelet-grid": ("poncelet-grid", {
            "a": [4.0, 1.0], "outer_lam": -0.2, "q": 9, "p": 2}, _PLANAR),
        "inscribed-circles": ("inscribed-circles", {
            "a": [4.0, 1.0], "outer_lam": 0.05, "lam_c": 0.5,
            "theta_a": 0.7, "theta_b": 2.1}, _PLANAR),
        "staeckel-billiard": ("staeckel-billiard", {
            "metric": {"name": "elliptic_R2", "params": [4.0, 1.0]},
            "walls": [[2.2, 2.9], [0.3, 0.7]], "q0": [2.5, 0.5],
            "p0": [0.8, 0.6], "bounces": 8, "tolerance": 1e-8},
            ["confocal.staeckel", "confocal.svgout"]),
        "staeckel-billiard-r3": ("staeckel-billiard", {
            "metric": {"name": "ellipsoidal_R3", "params": [4.0, 2.0, 1.0]},
            "walls": [[2.5, 3.2], [1.3, 1.7], [0.3, 0.7]], "q0": [2.8, 1.5, 0.5],
            "p0": [0.8, 0.6, 0.3], "bounces": 4, "tolerance": 1e-8},
            ["confocal.staeckel", "confocal.svgout"]),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))

    def probe(*argv):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    for label, (command, cfg, layers) in runs.items():
        seen = probe(command, "--config", _write(tmp_path, f"{label}.json", cfg),
                     "--out", str(tmp_path / label))
        assert seen["import"] == _CLI_MODULES, label
        assert seen["run"] == sorted(_CLI_MODULES + layers), label
    control = probe()["run"]
    assert {"jsonschema", "scipy.integrate", "confocal.quadrics"} <= set(control)


def test_lazy_exports():
    # each exported name resolves, on first access, to its layer's object
    for name in confocal.__all__:
        value = getattr(confocal, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert value.__module__.startswith("confocal."), name
    with pytest.raises(AttributeError):
        confocal.no_such_name


# ---------------------------------------------------------------------------
# SVG renderer


def test_empty_scene():
    with pytest.raises(EmptyScene):
        render_svg(Scene())


def test_svg_viewbox_margin():
    scene = Scene()
    scene.add_polyline([(0.0, 0.0), (10.0, 20.0)])
    doc = render_svg(scene)
    assert doc.startswith('<?xml version="1.0"')
    vb = doc.split('viewBox="')[1].split('"')[0].split()
    x0, y0, w, h = map(float, vb)
    # 5% of the larger span (20) on each side
    assert abs(x0 + 1.0) < 1e-9
    assert abs(w - 12.0) < 1e-9
    assert abs(h - 22.0) < 1e-9
    # world y up: the top of the scene maps to the top of the viewBox
    assert abs(y0 + 21.0) < 1e-9


def test_svg_deterministic_and_valid():
    def build():
        scene = Scene()
        scene.add_ellipse((0.0, 0.0), 2.0, 1.0)
        scene.add_circle((0.5, 0.5), 0.25, color="#d62728")
        scene.add_points([(0.1, 0.2), (0.3, 0.4)])
        return render_svg(scene)

    d1, d2 = build(), build()
    assert d1 == d2
    assert d1.count("<ellipse") == 1 and d1.count("</svg>") == 1


def test_svg_rejects_bad_input():
    scene = Scene()
    with pytest.raises(InvalidParameters):
        scene.add_polyline([(0.0, 0.0)])
    with pytest.raises(InvalidParameters):
        scene.add_circle((0.0, 0.0), -1.0)
    scene.add_polyline([(0.0, 0.0), (np.inf, 1.0)])
    with pytest.raises(InvalidParameters):
        render_svg(scene)
