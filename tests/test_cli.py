"""CLI subcommands, exit codes, JSON schema.

``PYTHONPATH=src python tests/test_cli.py`` re-records ``tests/golden/cli.json`` from the
current tree; do that only for a change that means to alter the JSON.
"""

import contextlib
import io
import json
import pathlib

import pytest

from pdpairs.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "pdpairs" \
    / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"


def fx(name):
    return str(FIXTURES / name)


def test_verify_pass_exit_zero(capsys):
    assert main(["verify", fx("d3.pdp")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_fail_exit_one(capsys):
    assert main(["verify", fx("broken_sign.pdp")]) == 1


def test_verify_input_error_exit_three(capsys):
    assert main(["verify", fx("broken_dsq.pdp")]) == 3
    err = capsys.readouterr().err
    assert "d.d != 0" in err


def test_missing_file_exit_three():
    assert main(["verify", "no-such-file.pdp"]) == 3


@pytest.mark.parametrize("command", ["verify", "homology", "nu", "realize"])
def test_non_utf8_file_exit_three(command, tmp_path, capsys):
    path = tmp_path / "junk.pdp"
    path.write_bytes(bytes(range(128, 256)) + b"pair P {}")
    assert main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")


def test_verify_json_schema(capsys):
    assert main(["verify", fx("solid_torus.pdp"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {"status", "degree_certificates", "sign_table", "witnesses",
            "timings"} <= set(data)
    assert data["status"] == "pass"
    assert [row["sign"] for row in data["sign_table"]]


def test_verify_json_deterministic_outside_timings(capsys):
    main(["verify", fx("solid_torus.pdp"), "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["verify", fx("solid_torus.pdp"), "--json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_nu_command(capsys):
    assert main(["nu", fx("solid_torus.pdp")]) == 0
    out = capsys.readouterr().out
    assert "t^-1" in out
    assert "homotopy-equivalence" in out


def test_homology_command_json(capsys):
    assert main(["homology", fx("lens_3.pdp"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["X"]["total"]["1"] == "Z/3"


def test_sum_boundary_command(capsys):
    code = main(["sum", fx("solid_torus.pdp"), fx("solid_torus.pdp"),
                 "--boundary", "torus", "torus"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_realize_command(capsys):
    assert main(["realize", fx("lens_3.pdp")]) == 0
    out = capsys.readouterr().out
    assert "triple agreement" in out


def test_noncycle_class_fails(capsys):
    assert main(["verify", fx("broken_noncycle.pdp")]) == 1
    out = capsys.readouterr().out
    assert "not a cycle" in out


def test_search_radius_env(monkeypatch):
    import argparse
    from pdpairs.cli import search_radius
    ns = argparse.Namespace(radius=None)
    monkeypatch.setenv("PD3_SEARCH_RADIUS", "2")
    assert search_radius(ns) == 2
    monkeypatch.delenv("PD3_SEARCH_RADIUS")
    assert search_radius(ns) == 4
    for bad in ("junk", "0", "-2", "1.5"):
        monkeypatch.setenv("PD3_SEARCH_RADIUS", bad)
        with pytest.raises(SystemExit) as exc:
            search_radius(ns)
        assert exc.value.code == 3
    ns = argparse.Namespace(radius=3)
    assert search_radius(ns) == 3


@pytest.mark.parametrize("argv", [
    ["--radius", "abc", "verify", "d3.pdp"],
    ["--radius", "0", "verify", "solid_torus.pdp"],
    ["--radius", "-3", "verify", "solid_torus.pdp"],
    ["verify"],
    ["verify", "d3.pdp", "--no-such-flag"],
    ["no-such-command"],
])
def test_bad_flags_exit_three(argv, capsys):
    argv = [fx(a) if a.endswith(".pdp") else a for a in argv]
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err


def test_bad_radius_env_exit_three(monkeypatch, capsys):
    monkeypatch.setenv("PD3_SEARCH_RADIUS", "0")
    assert main(["verify", fx("solid_torus.pdp")]) == 3
    assert "PD3_SEARCH_RADIUS" in capsys.readouterr().err
    assert main(["--radius", "2", "verify", fx("solid_torus.pdp")]) == 0


@pytest.mark.parametrize("argv", [["verify", "lens_3.pdp", "--json"],
                                  ["realize", "solid_torus.pdp", "--json"]])
def test_radius_after_the_subcommand_matches_the_global_flag(argv, capsys):
    argv = [fx(a) if a.endswith(".pdp") else a for a in argv]
    runs = []
    for form in (["--radius", "2", *argv], [*argv, "--radius", "2"]):
        code = main(form)
        data = json.loads(capsys.readouterr().out)
        data.pop("timings", None)
        runs.append((code, data))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_radius_flag_in_either_place():
    from pdpairs.cli import build_parser
    parse = build_parser().parse_args
    assert parse(["--radius", "2", "verify", "f"]).radius == 2
    assert parse(["verify", "f", "--radius", "3"]).radius == 3
    assert parse(["--radius", "2", "catalog", "--radius", "3"]).radius == 3
    assert parse(["verify", "f"]).radius is None


def test_bad_radius_after_the_subcommand_exit_three(capsys):
    assert main(["verify", fx("lens_3.pdp"), "--radius", "0"]) == 3
    err = capsys.readouterr().err
    assert "search radius must be a positive integer, not '0'" in err


def test_help_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_catalog_command(capsys):
    from pdpairs.cli import main
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "all entries as expected" in out
    assert "broken-noncycle-class" in out


@pytest.mark.parametrize("argv, env", [
    (["--radius", "1", "catalog"], None),
    (["catalog"], "1"),
])
def test_catalog_sums_run_at_the_given_radius(monkeypatch, capsys,
                                              argv, env):
    from pdpairs import pairs
    radii = []
    real = pairs.verify_pd

    def spy(pair, radius=4):
        radii.append(radius)
        return real(pair, radius)

    if env is None:
        monkeypatch.delenv("PD3_SEARCH_RADIUS", raising=False)
    else:
        monkeypatch.setenv("PD3_SEARCH_RADIUS", env)
    monkeypatch.setattr(pairs, "verify_pd", spy)
    assert main(argv) == 0
    # two operand checks for each of the three sum entries
    assert radii == [1] * 6
    assert "all entries as expected" in capsys.readouterr().out


def golden_runs():
    """Every JSON-producing command whose output the golden file pins."""
    runs = [[cmd, f.name, "--json"]
            for f in sorted(FIXTURES.glob("*.pdp"))
            for cmd in ("verify", "homology", "nu", "realize")]
    runs.append(["sum", "solid_torus.pdp", "solid_torus.pdp",
                 "--boundary", "torus", "torus", "--json"])
    runs.append(["sum", "lens_3.pdp", "lens_3.pdp",
                 "--interior", "E", "E", "--json"])
    runs.append(["catalog", "--json"])
    return runs


def _strip_timings(data):
    if isinstance(data, dict):
        return {k: _strip_timings(v) for k, v in data.items()
                if k not in ("timings", "seconds")}
    if isinstance(data, list):
        return [_strip_timings(v) for v in data]
    return data


def run_for_golden(argv):
    """Exit code and parsed JSON (timings stripped; None without output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([fx(a) if a.endswith(".pdp") else a for a in argv])
    text = out.getvalue()
    return {"exit": code,
            "json": _strip_timings(json.loads(text)) if text else None}


def record_golden():
    runs = {" ".join(argv): run_for_golden(argv) for argv in golden_runs()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")


def test_cli_json_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(a) for a in golden_runs())
    for argv in golden_runs():
        assert run_for_golden(argv) == golden[" ".join(argv)], argv


@pytest.mark.parametrize("argv, env", [
    (["--radius", "1", "realize", "solid_torus.pdp", "--json"], None),
    (["realize", "solid_torus.pdp", "--json"], "1"),
])
def test_realize_diagonals_search_at_the_given_radius(monkeypatch, argv,
                                                      env):
    from pdpairs import sums
    radii = []
    real = sums.solve_diagonal_cell

    def spy(complex_, diagonal, cell, radius=2, end_vertices=None):
        radii.append(radius)
        return real(complex_, diagonal, cell, radius, end_vertices)

    if env is None:
        monkeypatch.delenv("PD3_SEARCH_RADIUS", raising=False)
    else:
        monkeypatch.setenv("PD3_SEARCH_RADIUS", env)
    monkeypatch.setattr(sums, "solve_diagonal_cell", spy)
    golden = json.loads(GOLDEN.read_text())
    assert run_for_golden(argv) == golden["realize solid_torus.pdp --json"]
    assert radii == [1]


if __name__ == "__main__":
    record_golden()
