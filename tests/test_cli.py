"""Command-line interface: exit codes, artifacts, determinism."""

from __future__ import annotations

import json
import math
import pathlib

import pytest

import conesurf.cli
import conesurf.svgout
from conesurf import tracer
from conesurf.cli import run

import oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent
SURFACES = ROOT / "surfaces"
TORUS = str(SURFACES / "flat_torus.json")
MARKED = str(SURFACES / "torus_marked.json")
OCTAGON = str(SURFACES / "octagon.json")
PILLOW = str(SURFACES / "pillowcase.json")

GOLDEN_TARGET = {"chart": "sq", "x": 0.41421356237309515, "y": 0.7320508075688772,
                 "dx": 0.5257311121191336, "dy": 0.8506508083520399}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

@pytest.mark.parametrize("surface", [TORUS, MARKED, OCTAGON, PILLOW])
def test_validate_corpus_ok(surface, capsys):
    assert run(["validate", "--surface", surface]) == 0
    out = capsys.readouterr().out
    assert "(OK)" in out


def test_validate_json_payload(capsys):
    assert run(["--json", "--quiet", "validate", "--surface", OCTAGON]) == 0
    out = capsys.readouterr().out
    data = json.loads(out[out.index("{"):])
    assert data["euler_characteristic"] == -2
    assert data["gauss_bonnet"]["residual"] == 0.0
    assert data["kinds"]["large"] == ["v0"]
    assert data["vertex_classes"]["v0"]["corners"] == 8


def test_validate_missing_file_fails(tmp_path):
    assert run(["validate", "--surface", str(tmp_path / "missing.json")]) == 2


def test_validate_malformed_file_fails(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"charts": {"sq": []}})
    assert run(["validate", "--surface", bad]) == 2


def test_validate_clockwise_surface_fails(tmp_path):
    bad = write_json(tmp_path / "cw.json", {
        "polygons": [{"id": "sq",
                      "vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]}],
        "gluings": [{"a": ["sq", 0], "b": ["sq", 2]},
                    {"a": ["sq", 1], "b": ["sq", 3]}],
    })
    assert run(["validate", "--surface", bad]) == 2


# --------------------------------------------------------------------------
# usage and global options
# --------------------------------------------------------------------------

def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["trace"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 2


def test_tolerance_overrides(tmp_path):
    bad = write_json(tmp_path / "tol.json", {"bogus_field": 1})
    assert run(["--tolerance-overrides", bad, "validate", "--surface", TORUS]) == 2
    not_object = write_json(tmp_path / "list.json", ["tau_hit"])
    assert run(["--tolerance-overrides", not_object, "validate", "--surface", TORUS]) == 2
    not_number = write_json(tmp_path / "str.json", {"tau_hit": "abc"})
    assert run(["--tolerance-overrides", not_number, "validate", "--surface", TORUS]) == 2
    not_finite = write_json(tmp_path / "nan.json", {"tau_hit": float("nan")})
    assert run(["--tolerance-overrides", not_finite, "validate", "--surface", TORUS]) == 2
    too_big = write_json(tmp_path / "big.json", {"tau_rec": 10 ** 400})
    assert run(["--tolerance-overrides", too_big, "validate", "--surface", TORUS]) == 2
    for step in (0, -1):
        not_positive = write_json(tmp_path / "step.json", {"distance_step": step})
        assert run(["--tolerance-overrides", not_positive, "validate", "--surface", TORUS]) == 2
    good = write_json(tmp_path / "tol2.json", {"tau_hit": 1e-8})
    assert run(["--quiet", "--tolerance-overrides", good,
                "validate", "--surface", TORUS]) == 0


def test_tolerance_overrides_reach_the_algorithms(tmp_path, capsys):
    # the window sweep of one octagon corner's wedge visits 7 windows at L = 1.45
    unfolding = write_json(tmp_path / "unfold.json", {"unfolding_budget": 5})
    assert run(["--quiet", "--tolerance-overrides", unfolding,
                "saddles", "--surface", OCTAGON, "--max-length", "1.45"]) == 2
    assert "exceeded 5 windows" in capsys.readouterr().err
    search = write_json(tmp_path / "search.json", {"search_budget": 3})
    assert run(["--quiet", "--tolerance-overrides", search,
                "cover", "--surface", PILLOW, "--degree", "3"]) == 2
    assert "monodromy search exceeded 3 nodes" in capsys.readouterr().err


# --------------------------------------------------------------------------
# trace
# --------------------------------------------------------------------------

def test_trace_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    svg_path = tmp_path / "t.svg"
    rc = run(["trace", "--surface", TORUS, "--chart", "sq",
              "--x", "0.5", "--y", "0.5", "--dx", "1", "--dy", "0",
              "--max-length", "3", "--csv", str(csv_path), "--svg", str(svg_path)])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "arclength,chart,x,y,m_of_T"
    assert lines[1] == "0,sq,0.5,0.5,inf"
    assert lines[-1] == "3,sq,0.5,0.5,inf"
    svg = svg_path.read_text()
    assert svg.startswith("<?xml") or svg.lstrip().startswith("<svg") or "<svg" in svg
    assert "polyline" in svg
    out = capsys.readouterr().out
    assert "MaxLengthReached" in out


def test_trace_svg_develops_once(tmp_path, monkeypatch):
    # the report and the SVG share one development of the trace
    calls = []

    def counting_develop(result):
        calls.append(result)
        return tracer.develop(result)

    for module in (conesurf.cli, conesurf.svgout):
        monkeypatch.setattr(module, "develop", counting_develop, raising=False)
    assert run(["--quiet", "trace", "--surface", OCTAGON, "--chart", "oct", "--x", "0",
                "--y", "0", "--dx", "1", "--dy", "0.3", "--max-length", "20",
                "--svg", str(tmp_path / "t.svg")]) == 0
    assert len(calls) == 1
    assert "polyline" in (tmp_path / "t.svg").read_text()


# --------------------------------------------------------------------------
# saddles
# --------------------------------------------------------------------------

def test_saddles_csv_has_48_rows_at_length_5(tmp_path):
    csv_path = tmp_path / "s.csv"
    spec_path = tmp_path / "spec.csv"
    rc = run(["--quiet", "saddles", "--surface", MARKED, "--max-length", "5",
              "--csv", str(csv_path), "--spectrum", str(spec_path)])
    assert rc == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "start,end,length,hx,hy"
    assert len(rows) - 1 == 48
    holos = set()
    for row in rows[1:]:
        start, end, length, hx, hy = row.split(",")
        assert start == end == "v0"
        assert math.isclose(float(length), math.hypot(float(hx), float(hy)),
                            rel_tol=1e-9)
        holos.add((float(hx), float(hy)))
    assert len(holos) == 48
    spec_rows = spec_path.read_text().splitlines()
    assert spec_rows[0] == "angle,multiplicity"
    assert len(spec_rows) - 1 == 48


# --------------------------------------------------------------------------
# cylinders
# --------------------------------------------------------------------------

def test_cylinders_report_widths(tmp_path):
    report = tmp_path / "c.json"
    rc = run(["--quiet", "cylinders", "--surface", MARKED, "--direction", "2,1",
              "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["found"] is True
    assert math.isclose(data["circumference"], math.sqrt(5.0), rel_tol=1e-12)
    assert math.isclose(data["d_L"] + data["d_R"], 1 / math.sqrt(5.0), abs_tol=1e-9)


@pytest.mark.parametrize("surface", [MARKED, OCTAGON])
def test_cylinders_json_equals_the_eager_search(surface, monkeypatch, capsys):
    # bounding saddles traced on first read print the bytes of those traced in the search
    argv = ["--quiet", "--json", "cylinders", "--surface", surface, "--from-saddle", "3"]
    assert run(argv) == 0
    lazy = capsys.readouterr().out
    monkeypatch.setattr(conesurf.cli, "find_closed_geodesic",
                        lambda s, d, start: oracles.find_closed_geodesic_eager(s, d, start))
    assert run(argv) == 0
    assert '"bounding_saddles"' in lazy and capsys.readouterr().out == lazy


def test_cylinders_requires_exactly_one_direction_source():
    assert run(["--quiet", "cylinders", "--surface", MARKED,
                "--direction", "2,1", "--from-saddle", "0"]) == 2
    assert run(["--quiet", "cylinders", "--surface", MARKED]) == 2


def test_cylinders_zero_direction_exits_2(capsys):
    assert run(["cylinders", "--surface", MARKED, "--direction", "0,0"]) == 2
    assert "direction (0.0, 0.0) has no usable length" in capsys.readouterr().err


def test_cylinders_not_found_is_not_an_error(tmp_path):
    report = tmp_path / "ir.json"
    rc = run(["--quiet", "cylinders", "--surface", MARKED,
              "--direction", "1,1.6180339887", "--max-length", "20",
              "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["found"] is False


# --------------------------------------------------------------------------
# density and experiment verdicts
# --------------------------------------------------------------------------

def test_density_failing_threshold_exits_3(tmp_path):
    target = write_json(tmp_path / "target.json", GOLDEN_TARGET)
    report = tmp_path / "d.json"
    rc = run(["--quiet", "density", "--surface", MARKED, "--target-spec", target,
              "--lengths", "1,2,3", "--eta", "0.05", "--report", str(report)])
    assert rc == 3
    data = json.loads(report.read_text())
    assert data["scenario"] == "density"
    assert data["verdicts"] == {"passed": False}
    assert data["wall_clock"] is None
    distances = [row["distance"] for row in data["metrics"]["rows"]]
    assert distances == sorted(distances, reverse=True)


def test_density_reports_are_deterministic(tmp_path):
    target = write_json(tmp_path / "target.json", GOLDEN_TARGET)
    blobs = []
    for name in ("a.json", "b.json"):
        report = tmp_path / name
        run(["--quiet", "density", "--surface", MARKED, "--target-spec", target,
             "--lengths", "1,2,3", "--eta", "0.05", "--report", str(report)])
        blobs.append(report.read_bytes())
    assert blobs[0] == blobs[1]


def test_experiment_no_strips_pass_and_fail(tmp_path):
    config = {"start": GOLDEN_TARGET, "lengths": [5, 10], "threshold": 0.1}
    passing = write_json(tmp_path / "ns.json", config)
    report = tmp_path / "ns_report.json"
    rc = run(["--quiet", "experiment", "no-strips", "--surface", MARKED,
              "--config", passing, "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["scenario"] == "no-strips"
    assert data["verdicts"] == {"passed": True}
    assert [row[0] for row in data["metrics"]["rows"]] == [5.0, 10.0]

    config["threshold"] = 1e-6
    failing = write_json(tmp_path / "nsf.json", config)
    rc = run(["--quiet", "experiment", "no-strips", "--surface", MARKED,
              "--config", failing, "--report", str(tmp_path / "nsf_report.json")])
    assert rc == 3


@pytest.mark.parametrize("scenario, bad", [
    ("no-strips", {"lengths": [math.nan, 50], "threshold": math.nan}),
    ("no-strips", {"threshold": math.inf}),
    ("density", {"window": math.nan}),
])
def test_experiment_non_finite_config_exits_2(tmp_path, scenario, bad):
    config = {"start": GOLDEN_TARGET, "lengths": [5, 10], "threshold": 0.1, **bad}
    path = write_json(tmp_path / "cfg.json", config)
    report = tmp_path / "report.json"
    rc = run(["--quiet", "experiment", scenario, "--surface", MARKED,
              "--config", path, "--report", str(report)])
    assert rc == 2
    assert not report.exists()


@pytest.mark.parametrize("extra", [["--lengths", "nan,2"], ["--lengths", "1,2", "--eta", "nan"]])
def test_density_non_finite_input_exits_2(tmp_path, extra):
    target = write_json(tmp_path / "target.json", GOLDEN_TARGET)
    report = tmp_path / "d.json"
    rc = run(["--quiet", "density", "--surface", MARKED, "--target-spec", target,
              "--report", str(report), *extra])
    assert rc == 2
    assert not report.exists()


@pytest.mark.parametrize("window", ["nan", "inf", "0"])
def test_density_invalid_window_exits_2(tmp_path, capsys, window):
    target = write_json(tmp_path / "target.json", GOLDEN_TARGET)
    report = tmp_path / "d.json"
    rc = run(["--quiet", "density", "--surface", MARKED, "--target-spec", target,
              "--lengths", "1,2", "--window", window, "--report", str(report)])
    assert rc == 2
    assert "window must be finite and positive" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("scenario, config, field", [
    ("no-strips", {"start": GOLDEN_TARGET, "lengths": [5, 10], "threshold": [0.1]}, "threshold"),
    ("no-strips", {"start": {**GOLDEN_TARGET, "x": [0.4]}, "lengths": [5, 10],
                   "threshold": 0.1}, "start.x"),
    ("no-strips", {"start": GOLDEN_TARGET, "lengths": [[10]], "threshold": 0.1}, "lengths[0]"),
    ("no-strips", {"start": GOLDEN_TARGET, "lengths": [5, 10**400], "threshold": 0.1},
     "lengths[1]"),
    ("density", {"target": GOLDEN_TARGET, "lengths": [1, 2], "eta": [0.05]}, "eta"),
    ("density", {"target": GOLDEN_TARGET, "lengths": [1, 2], "window": {}}, "window"),
    ("density", {"target": {**GOLDEN_TARGET, "dx": [1.0]}, "lengths": [1, 2]}, "target.dx"),
    ("density", {"target": GOLDEN_TARGET, "lengths": [1, 2], "chain_budget": [5]},
     "chain_budget"),
    # JSON numbers only: a bool or a numeral string is no number
    ("density", {"target": GOLDEN_TARGET, "lengths": [1, 2], "chain_budget": True},
     "chain_budget"),
    ("density", {"target": GOLDEN_TARGET, "lengths": [1, 2], "chain_budget": "5"},
     "chain_budget"),
    ("density", {"target": GOLDEN_TARGET, "lengths": [1, 2], "eta": True}, "eta"),
    ("density", {"target": GOLDEN_TARGET, "lengths": [1, 2], "window": "5"}, "window"),
    ("no-strips", {"start": {**GOLDEN_TARGET, "y": "0.7"}, "lengths": [5, 10],
                   "threshold": 0.1}, "start.y"),
    ("no-strips", {"start": GOLDEN_TARGET, "lengths": [5, True], "threshold": 0.1},
     "lengths[1]"),
    ("no-strips", {"start": GOLDEN_TARGET, "lengths": [5, 10], "threshold": None},
     "threshold"),
])
def test_experiment_non_numeric_field_exits_2(tmp_path, capsys, scenario, config, field):
    path = write_json(tmp_path / "cfg.json", config)
    report = tmp_path / "report.json"
    rc = run(["--quiet", "experiment", scenario, "--surface", MARKED,
              "--config", path, "--report", str(report)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be a number")
    assert not report.exists()


@pytest.mark.parametrize("budget, message", [
    (2.5, "chain_budget must be an integer, got 2.5"),
    (float("inf"), "chain_budget must be an integer, got Infinity"),
    (-1, "chain_budget must be a non-negative integer, got -1"),
])
def test_experiment_non_integral_or_negative_chain_budget_exits_2(tmp_path, capsys, budget,
                                                                  message):
    path = write_json(tmp_path / "cfg.json",
                      {"target": GOLDEN_TARGET, "lengths": [1, 2], "chain_budget": budget})
    report = tmp_path / "report.json"
    rc = run(["--quiet", "experiment", "density", "--surface", MARKED,
              "--config", path, "--report", str(report)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_density_negative_chain_budget_exits_2(tmp_path, capsys):
    target = write_json(tmp_path / "target.json", GOLDEN_TARGET)
    report = tmp_path / "d.json"
    rc = run(["--quiet", "density", "--surface", MARKED, "--target-spec", target,
              "--lengths", "1,2", "--chain-budget", "-1", "--report", str(report)])
    assert rc == 2
    assert "chain_budget must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command, option, payload", [
    (["cover", "--surface", TORUS, "--degree", "2"], "--monodromy", [[2, 1]]),
    (["cover", "--surface", TORUS, "--degree", "2"], "--monodromy", {"0": 5}),
    (["density", "--surface", MARKED, "--lengths", "1,2"], "--target-spec",
     {k: v for k, v in GOLDEN_TARGET.items() if k != "y"}),
    (["density", "--surface", MARKED, "--lengths", "1,2"], "--target-spec",
     list(GOLDEN_TARGET.values())),
    (["experiment", "no-strips", "--surface", MARKED], "--config",
     [GOLDEN_TARGET, [5, 10], 0.1]),
    (["experiment", "no-strips", "--surface", MARKED], "--config",
     {"start": GOLDEN_TARGET, "lengths": 5, "threshold": 0.1}),
    (["density", "--surface", MARKED, "--lengths", "1,2"], "--target-spec",
     {**GOLDEN_TARGET, "dx": [1.0]}),
])
def test_malformed_input_file_exits_2(tmp_path, capsys, command, option, payload):
    path = write_json(tmp_path / "input.json", payload)
    report = tmp_path / "report.json"
    extra = [] if command[0] == "cover" else ["--report", str(report)]
    assert run(["--quiet", *command, option, path, *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()


def test_sanitize_writes_non_finite_floats_as_strings():
    from conesurf.cli import _sanitize

    assert _sanitize({"a": [math.nan, math.inf, -math.inf, 1.5], "b": (2, "x")}) == {
        "a": ["nan", "inf", "-inf", 1.5], "b": [2, "x"]}


# --------------------------------------------------------------------------
# cover
# --------------------------------------------------------------------------

def test_cover_auto_emits_loadable_surface(tmp_path):
    out = tmp_path / "cover.json"
    report = tmp_path / "report.json"
    rc = run(["--quiet", "cover", "--surface", PILLOW, "--degree", "auto",
              "--out", str(out), "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["degree"] == 3
    assert data["connected"] is True
    assert data["cover_chi"] == -2
    assert data["riemann_hurwitz_residual"] == 0
    for info in data["cover_classes"].values():
        assert math.isclose(info["angle"], 3 * math.pi, rel_tol=1e-12)
    # The emitted cover file revalidates from a cold start.
    assert run(["--quiet", "validate", "--surface", str(out)]) == 0


def test_cover_explicit_monodromy(tmp_path):
    mono = write_json(tmp_path / "mono.json", {"0": [2, 1]})
    out = tmp_path / "cover.json"
    report = tmp_path / "report.json"
    rc = run(["--quiet", "cover", "--surface", TORUS, "--degree", "2",
              "--monodromy", mono, "--out", str(out), "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["cover_chi"] == 0 and data["connected"] is True
    bad = write_json(tmp_path / "badmono.json", {"0": [1, 1]})
    assert run(["--quiet", "cover", "--surface", TORUS, "--degree", "2",
                "--monodromy", bad, "--out", str(out)]) == 2


# --------------------------------------------------------------------------
# selftest
# --------------------------------------------------------------------------

def test_selftest_quick(tmp_path):
    report = tmp_path / "st.json"
    rc = run(["--quiet", "selftest", "--quick", "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["verdicts"] == {"passed": True}
    assert data["seed"] == 20260814
    (same_path,) = [c for c in data["metrics"]["checks"]
                    if c["name"].startswith("default and plain options trace the same path")]
    assert same_path["passed"] and same_path["note"] == "0 paths differ"
    (density,) = [c for c in data["metrics"]["checks"]
                  if c["name"].startswith("density rows with pruning equal rows with every "
                                          "candidate evaluated in full")]
    assert density["passed"] and density["note"] == "5 of 5 rows equal"
