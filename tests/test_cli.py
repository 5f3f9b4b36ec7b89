import json
import math

import numpy as np
import pytest

import diskmean.cli
from diskmean import boundary_image
from diskmean.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_member_exit_zero(capsys):
    code, out, err = run(capsys, "check", "--class", "M", "ex31:n=1")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "MemberByCoefficient"
    assert data["coefficient_sum"] == 1.0


def test_check_fail_numeric_exit_two(capsys):
    code, out, err = run(capsys, "check", "--class", "M", "phi:1,0,2")
    assert code == 2
    assert json.loads(out)["verdict"] == "FailNumeric"


def test_check_pole_inside_exit_two(capsys):
    # f = z/(1 + 3z): M_f = 0, but the pole at -1/3 puts f in no class
    code, out, err = run(capsys, "check", "--class", "M", "phi:1,3")
    assert code == 2
    data = json.loads(out)
    assert (data["verdict"], data["zeros_inside"]) == ("FailNumeric", 1)


def test_check_identity(capsys):
    code, out, err = run(capsys, "check", "--class", "U", "identity")
    assert code == 0
    assert json.loads(out)["coefficient_sum"] == 0.0


def test_check_parse_error_exit_one_no_report(capsys):
    code, out, err = run(capsys, "check", "--class", "M", "nosuch:x=1")
    assert code == 1
    assert out == ""
    assert "unrecognized" in err


def test_check_bad_class_exit_one(capsys):
    code, out, err = run(capsys, "check", "--class", "Q", "identity")
    assert code == 1
    assert out == ""


def test_phi_grammar_requires_unit_constant(capsys):
    code, out, err = run(capsys, "check", "--class", "M", "phi:2,0,1")
    assert code == 1
    assert "constant 1" in err


@pytest.mark.parametrize("source, reason", [
    ("phi:1,0.1+x", "bad complex literal"),
    ("ex31:n", "expected key=value"),
    ("ex31:b=0.5", "unknown key"),
    ("phi:", "needs a coefficient list"),
    ("ex34:n=two", "bad family parameter"),
    ("identity:x", "identity takes no parameters"),
    ("koebe:order=16,bogus", "koebe takes no parameters"),
    ("ex32:n=7,order=64", "unknown key 'n'"),
    ("ex31:n=1,n=5", "repeated key 'n'"),
], ids=["complex-literal", "no-equals", "unknown-key", "phi-empty", "family-parameter",
        "identity-body", "koebe-body", "ex32-n", "repeated-key"])
def test_source_error_exit_one(capsys, source, reason):
    code, out, err = run(capsys, "check", "--class", "M", source)
    assert code == 1
    assert out == ""
    assert reason in err


def test_check_koebe(capsys):
    # phi = (1-z)^2: the N series is -z^2, on the budget exactly
    code, out, err = run(capsys, "check", "--class", "N", "koebe")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "MemberByCoefficient"
    assert data["coefficient_sum"] == 1.0


def test_complex_literal_in_phi(capsys):
    code, out, err = run(capsys, "check", "--class", "U", "phi:1,0.1+0.2i")
    assert code == 0


# ---------------------------------------------------------------------------
# mean
# ---------------------------------------------------------------------------

def test_mean_budget_pair(capsys):
    code, out, err = run(capsys, "mean", "ex31:n=1", "ex31:n=2", "--class", "M")
    assert code == 0
    data = json.loads(out)
    assert data["averaging_residual"] <= 1e-10
    assert data["membership"]["verdict"] != "FailNumeric"


def test_mean_identity_idempotent(capsys):
    code, out, err = run(capsys, "mean", "identity", "identity", "--class", "U")
    assert code == 0
    data = json.loads(out)
    assert data["phi_coefficients"][0] == [1.0, 0.0]
    assert all(c == [0.0, 0.0] for c in data["phi_coefficients"][1:])


def test_mean_symmetric_cancellation(capsys):
    code, out, err = run(capsys, "mean", "phi:1,1", "phi:1,-1", "--class", "U")
    assert code == 0
    data = json.loads(out)
    assert data["phi_coefficients"] == [[1.0, 0.0], [0.0, 0.0]]
    assert data["membership"]["verdict"] != "FailNumeric"


def test_mean_denominator_vanishes_exit_three(capsys):
    src = f"phi:1,{-1 / 0.999!r}"
    code, out, err = run(capsys, "mean", src, src, "--class", "U")
    assert code == 3
    assert out == ""


# (1 + z/1.05)^4 and (1 - z/1.05)^4, whose average vanishes at |z| = 0.435
_INTERIOR = tuple("phi:" + ",".join(repr(sign ** k * b / 1.05 ** k)
                                    for k, b in enumerate([1, 4, 6, 4, 1]))
                  for sign in (1, -1))


@pytest.mark.parametrize("argv", [
    _INTERIOR,
    ("koebe", "phi:1,-2j,-1"),
    ("phi:1,3", "phi:1,3"),
], ids=["interior-pair", "koebe-phi", "pole-self"])
def test_mean_zeros_inside_exit_three_no_output(capsys, tmp_path, argv):
    out_file = tmp_path / "mean.json"
    code, out, err = run(capsys, "mean", *argv, "--class", "M", "-o", str(out_file))
    assert code == 3
    assert out == ""
    assert "zero count" in err
    assert not out_file.exists()


def test_mean_koebe_accepted(capsys):
    code, out, err = run(capsys, "mean", "koebe", "koebe", "--class", "U")
    assert code == 0
    assert json.loads(out)["min_denominator_modulus"] > 0


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table_csv_default(capsys):
    code, out, err = run(capsys, "table1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,theta,A_theta"
    assert len(lines) == 15
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[2]) - (-0.0258011)) <= 5e-7


def test_table_row_seven(capsys):
    code, out, err = run(capsys, "table1")
    row = out.strip().split("\n")[7].split(",")
    assert row[0] == "7"
    assert abs(float(row[2]) - (-0.00039145)) <= 5e-9


def test_table_extend(capsys):
    code, out, err = run(capsys, "table1", "--extend", "15")
    lines = out.strip().split("\n")
    assert len(lines) == 16
    last = lines[-1].split(",")
    assert last[0] == "15"
    assert float(last[2]) < 0


@pytest.mark.parametrize("to, extend", [("14", "0"), ("14", "14"), ("5", "3")],
                         ids=["zero", "equal", "below"])
def test_table_extend_not_past_to_exit_one(capsys, to, extend):
    code, out, err = run(capsys, "table1", "--to", to, "--extend", extend)
    assert code == 1
    assert out == ""
    assert f"--extend {extend}" in err and f"--to {to}" in err


def test_table_json(capsys):
    code, out, err = run(capsys, "table1", "--to", "3", "--format", "json")
    data = json.loads(out)
    assert [row["n"] for row in data] == [1, 2, 3]
    assert set(data[0]) == {"n", "theta", "A_theta"}


# ---------------------------------------------------------------------------
# starlike / radius / boundary
# ---------------------------------------------------------------------------

def test_starlike_ex34(capsys):
    code, out, err = run(capsys, "starlike", "ex34:n=1")
    assert code == 0
    data = json.loads(out)
    assert data["starlike_numeric"] is False
    assert 2.6 < data["argmin_angle"] < 3.1


def test_starlike_identity(capsys):
    code, out, err = run(capsys, "starlike", "identity")
    data = json.loads(out)
    assert abs(data["min_value"] - 1.0) <= 1e-12


def test_radius_command(capsys):
    code, out, err = run(capsys, "radius", "phi:1,0,2", "--class", "M")
    assert code == 0
    data = json.loads(out)
    assert abs(data["class_radius"] - 2 ** -0.5) <= 1e-4


def test_identity_honours_order(capsys):
    code, out, err = run(capsys, "--order", "16", "mean", "identity", "identity",
                         "--class", "U")
    assert code == 0
    assert len(json.loads(out)["phi_coefficients"]) == 17


def test_boundary_csv(capsys):
    code, out, err = run(capsys, "boundary", "identity", "-r", "0.5", "--grid", "64")
    lines = out.strip().split("\n")
    assert lines[0] == "theta,re,im"
    assert len(lines) == 66  # closed grid: 65 points
    _, re0, im0 = lines[1].split(",")
    assert abs(float(re0) - 0.5) <= 1e-12
    assert abs(float(im0)) <= 1e-12


def test_boundary_svg(capsys, tmp_path):
    target = tmp_path / "curve.svg"
    code, out, err = run(capsys, "boundary", "ex32:order=2048", "--format", "svg",
                         "-o", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("<?xml")
    assert text.count("<path") == 1
    assert "viewBox" in text


def _boundary_csv_by_value(points) -> str:
    # the emitter as it was, one f-string per value: the byte-for-byte reference
    grid = len(points) - 1
    lines = ["theta,re,im"]
    for j, w in enumerate(points):
        theta = 2.0 * math.pi * j / grid
        lines.append(f"{theta:.12g},{float(w.real)!r},{float(w.imag)!r}")
    return "\n".join(lines) + "\n"


def _boundary_svg_by_value(points) -> str:
    xs = [w.real for w in points]
    ys = [w.imag for w in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    view = (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
    steps = " ".join(f"L {x:.6g} {y:.6g}" for x, y in zip(xs[1:], ys[1:]))
    d = f"M {xs[0]:.6g} {ys[0]:.6g} {steps}"
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view[0]:.6g} {view[1]:.6g} {view[2]:.6g} {view[3]:.6g}">\n'
        f'  <path d="{d}" fill="none" stroke="black" '
        'stroke-width="0.5%" vector-effect="non-scaling-stroke"/>\n'
        "</svg>\n"
    )


def _emitter_curves(grid):
    # values whose repr and %g forms differ in kind: signed zero, the least
    # subnormal, exponent forms on both sides, integer-valued floats
    special = np.array([-0.0, 5e-324, 1e16, 1e-5, 0.0001, 3.0, -2.0, 1e22, 0.1, -7.5e-17])
    n = np.arange(grid + 1)
    yield special[n % special.size] + 1j * special[(3 * n + 1) % special.size]
    for source in ("ex31:n=2", "ex34:n=3", "ex32:order=2048"):
        fn = diskmean.cli.parse_source(source, diskmean.cli.RunConfig(), False)
        yield boundary_image(fn, 0.999, grid)


@pytest.mark.parametrize("grid", [16, 17, 2048])
def test_boundary_emitters_byte_identical(grid):
    for points in _emitter_curves(grid):
        assert diskmean.cli.boundary_csv(points) == _boundary_csv_by_value(points)
        assert diskmean.cli.boundary_svg(points) == _boundary_svg_by_value(points)


# ---------------------------------------------------------------------------
# config and determinism
# ---------------------------------------------------------------------------

def test_show_config(capsys):
    code, out, err = run(capsys, "--show-config")
    assert code == 0
    data = json.loads(out)
    assert data == {"order": 128, "radii": [0.9, 0.99, 0.999], "grid": 4096,
                    "tol": 1e-5, "seed": 0}


@pytest.mark.parametrize("argv, grid", [
    (["check", "--class", "M", "identity"], 4096),
    (["starlike", "identity"], 8192),
    (["boundary", "identity"], 2048),
    (["check", "--class", "M", "identity", "--grid", "512"], 512),
    (["starlike", "identity", "--grid", "512"], 512),
    (["boundary", "identity", "--grid", "512"], 512),
], ids=["check", "starlike", "boundary", "check-grid", "starlike-grid", "boundary-grid"])
def test_show_config_reports_command_grid(capsys, argv, grid):
    code, out, err = run(capsys, *argv, "--show-config")
    assert code == 0
    assert json.loads(out)["grid"] == grid


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("DISKMEAN_GRID", "512")
    monkeypatch.setenv("DISKMEAN_RADII", "0.5,0.9")
    code, out, err = run(capsys, "--show-config")
    data = json.loads(out)
    assert data["grid"] == 512
    assert data["radii"] == [0.5, 0.9]


def test_env_order_reaches_family_sources(capsys, monkeypatch):
    monkeypatch.setenv("DISKMEAN_ORDER", "64")
    code, out, err = run(capsys, "mean", "ex31:n=1", "ex31:n=1", "--class", "M")
    assert code == 0
    assert len(json.loads(out)["phi_coefficients"]) == 65


def test_env_grid_reaches_boundary(capsys, monkeypatch):
    monkeypatch.setenv("DISKMEAN_GRID", "64")
    code, out, err = run(capsys, "boundary", "identity", "-r", "0.5")
    assert code == 0
    assert len(out.strip().split("\n")) == 66


@pytest.mark.parametrize("argv", [
    ["--grid", "128", "boundary", "identity", "-r", "0.5"],
    ["boundary", "identity", "-r", "0.5", "--grid", "128"],
], ids=["before", "after"])
def test_grid_flag_beats_env(capsys, monkeypatch, argv):
    monkeypatch.setenv("DISKMEAN_GRID", "64")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert len(out.strip().split("\n")) == 130


ENV_CASES = [("DISKMEAN_ORDER", "--order", "16", "32"),
             ("DISKMEAN_GRID", "--grid", "64", "128"),
             ("DISKMEAN_RADII", "--radii", "0.5,0.9", "0.6")]


@pytest.mark.parametrize("var, flag, value, other", ENV_CASES,
                         ids=[case[0] for case in ENV_CASES])
@pytest.mark.parametrize("argv", [
    ["check", "--class", "M", "ex32"],
    ["mean", "identity", "ex32", "--class", "M"],
    ["table1", "--to", "3"],
    ["starlike", "ex32", "--all-radii"],
    ["starlike", "ex34:n=2"],  # its minimum lies between grid points
    ["radius", "--class", "N", "ex32"],
    ["boundary", "ex32", "-r", "0.5"],
], ids=["check", "mean", "table1", "starlike-ex32", "starlike-ex34", "radius", "boundary"])
def test_env_acts_as_its_flag(capsys, monkeypatch, argv, var, flag, value, other):
    for name, *_ in ENV_CASES:
        monkeypatch.delenv(name, raising=False)
    # a small order keeps ex32 (10^6 terms by default) cheap
    if var != "DISKMEAN_ORDER":
        argv = argv + ["--order", "64"]
    by_flag = run(capsys, *argv, flag, value)
    monkeypatch.setenv(var, value)
    assert run(capsys, *argv) == by_flag
    monkeypatch.setenv(var, other)
    assert run(capsys, *argv, flag, value) == by_flag


@pytest.mark.parametrize("var", ["DISKMEAN_ORDER", "DISKMEAN_GRID"])
def test_env_non_integer_exit_one(monkeypatch, var):
    monkeypatch.setenv(var, "many")
    with pytest.raises(SystemExit) as exc:
        main(["--show-config"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, env", [
    (["--show-config"], {"DISKMEAN_GRID": "x"}),
    (["check", "--grid", "x", "--class", "M", "identity"], {}),
], ids=["env", "flag"])
def test_argument_error_says_why(monkeypatch, capsys, argv, env):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: diskmean")
    assert "error: argument --grid: invalid int value: 'x'" in err


def test_parser_built_once(capsys):
    diskmean.cli._build_parser.cache_clear()
    assert run(capsys, "--show-config")[0] == 0
    assert run(capsys, "check", "--class", "M", "identity")[0] == 0
    info = diskmean.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_invalid_config_exit_one(capsys):
    code, out, err = run(capsys, "--radii", "1.5", "check",
                         "--class", "M", "identity")
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("flag, value, reason", [
    ("--order", "4", "order must be >= 8"),
    ("--grid", "8", "grid must be >= 16"),
    ("--tol", "0", "tol must be > 0"),
    ("--tol", "nan", "tol must be > 0"),
    ("--tol", "inf", "tol must be finite"),
], ids=["order", "grid", "tol", "tol-nan", "tol-inf"])
def test_invalid_setting_exit_one(capsys, flag, value, reason):
    code, out, err = run(capsys, flag, value, "check", "--class", "M", "identity")
    assert code == 1
    assert out == ""
    assert err == f"error: {reason}\n"


def test_no_command_exit_one(capsys):
    code, out, err = run(capsys)
    assert code == 1


def test_deterministic_output(capsys):
    first = run(capsys, "mean", "ex31:n=1", "ex34:n=2", "--class", "M",
                "--seed", "7")
    second = run(capsys, "mean", "ex31:n=1", "ex34:n=2", "--class", "M",
                 "--seed", "7")
    assert first == second

    t1 = run(capsys, "table1", "--extend", "16")
    t2 = run(capsys, "table1", "--extend", "16")
    assert t1 == t2


# With phi = 1 every value below is exact, so these literals pin the JSON
# layout (key order, indentation, final newline) and nothing numerical.
_SMALL = ["--order", "8", "--grid", "16"]
_ZERO_PAIRS = ",\n".join(["    [\n      0.0,\n      0.0\n    ]"] * 8)
_LAYOUTS = {
    "check": (["check", "--class", "M", "identity", *_SMALL, "--radii", "0.5,0.9"], """{
  "kind": "M",
  "coefficient_sum": 0.0,
  "scans": [
    {
      "kind": "M",
      "radius": 0.5,
      "grid_size": 16,
      "extremal_value": 0.0,
      "extremal_angle": 0.0,
      "margin": 1.0
    },
    {
      "kind": "M",
      "radius": 0.9,
      "grid_size": 16,
      "extremal_value": 0.0,
      "extremal_angle": 0.0,
      "margin": 1.0
    }
  ],
  "zeros_inside": 0,
  "verdict": "MemberByCoefficient"
}
"""),
    "starlike": (["starlike", "identity", *_SMALL, "--radii", "0.5"], """{
  "radii": [
    0.5
  ],
  "min_value": 1.0,
  "argmin_angle": 0.0,
  "argmin_radius": 0.5,
  "zeros_inside": 0,
  "starlike_numeric": true
}
"""),
    "radius": (["radius", "--class", "M", "identity", *_SMALL], """{
  "kind": "M",
  "class_radius": 1.0
}
"""),
    "mean": (["mean", "identity", "identity", "--class", "M", *_SMALL, "--radii", "0.5"],
             """{
  "phi_coefficients": [
    [
      1.0,
      0.0
    ],
%s
  ],
  "min_denominator_modulus": 1.0,
  "averaging_residual": 0.0,
  "membership": {
    "kind": "M",
    "coefficient_sum": 0.0,
    "scans": [
      {
        "kind": "M",
        "radius": 0.5,
        "grid_size": 16,
        "extremal_value": 0.0,
        "extremal_angle": 0.0,
        "margin": 1.0
      }
    ],
    "zeros_inside": 0,
    "verdict": "MemberByCoefficient"
  }
}
""" % _ZERO_PAIRS),
    "show-config": (["--show-config"], """{
  "order": 128,
  "radii": [
    0.9,
    0.99,
    0.999
  ],
  "grid": 4096,
  "tol": 1e-05,
  "seed": 0
}
"""),
}


@pytest.mark.parametrize("name", list(_LAYOUTS))
def test_json_layout_byte_for_byte(capsys, name):
    argv, text = _LAYOUTS[name]
    assert run(capsys, *argv) == (0, text, "")
