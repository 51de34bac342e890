import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from expsums import filter_function, sequence_to_json, uhrig_pulse_times
from expsums.cli import main
from expsums.expsum import _f17


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# uhrig

def test_uhrig_csv(capsys):
    code, out, _ = run(capsys, "uhrig", "--n", "2", "--T", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,t"
    times = [float(line.split(",")[1]) for line in lines[1:]]
    assert times == pytest.approx([0.0, 0.25, 0.75, 1.0], abs=1e-15)


def test_uhrig_json(capsys):
    code, out, _ = run(capsys, "uhrig", "--n", "1", "--T", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["times"] == pytest.approx([0.0, 0.5, 1.0])
    assert doc["T"] == 1.0


def test_uhrig_rejects_zero_pulses(capsys):
    code, _, err = run(capsys, "uhrig", "--n", "0", "--T", "1")
    assert code == 2
    assert "error" in err


def test_uhrig_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["uhrig", "--n", "7", "--T", "0.37", "--out", str(a)]) == 0
    assert main(["uhrig", "--n", "7", "--T", "0.37", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# verify-multiplicity

def test_verify_multiplicity_n2(capsys):
    code, out, err = run(capsys, "verify-multiplicity", "--n", "2")
    assert code == 0
    assert "order=3 expected=3" in err
    lines = out.strip().splitlines()
    assert lines[0] == "m,value,bound,relative"
    assert len(lines) == 5  # orders 0..3


def test_verify_multiplicity_json_n10(capsys):
    code, out, _ = run(
        capsys, "verify-multiplicity", "--n", "10", "--digits", "50",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 11 and doc["expected"] == 11
    assert all(r["relative"] <= 1e-12 for r in doc["residuals"][:11])


def test_verify_multiplicity_rejects_odd(capsys):
    code, _, _ = run(capsys, "verify-multiplicity", "--n", "3")
    assert code == 2


@pytest.mark.parametrize("tol", ["-1", "0", "0.5", "nan"])
def test_verify_multiplicity_rejects_bad_tolerance(capsys, tol):
    code, out, err = run(capsys, "verify-multiplicity", "--n", "4", "--tol", tol)
    assert code == 2
    assert out == "" and "rel_tol" in err


@pytest.mark.xfail(strict=True, reason="verify-multiplicity --n 24 reports order=27")
def test_verify_multiplicity_n24_reports_no_wrong_order(capsys):
    code, _, err = run(capsys, "verify-multiplicity", "--n", "24")
    # the right order (exit 0) or a precision error (exit 3), never a wrong order
    assert code in (0, 3)
    if code == 0:
        assert "order=25 expected=25" in err


# ---------------------------------------------------------------------------
# bounds-scan

def test_bounds_scan_taylor(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys, "bounds-scan", "--family", "taylor",
        "--a-grid", f"{1/9},{1/18},{1/36}", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "a,value,envelope,passes"
    assert len(lines) == 4
    assert all(line.endswith("true") for line in lines[1:])
    fit = json.loads((tmp_path / "scan.csv.fit.json").read_text())
    assert fit["n_points"] == 3 and fit["c_est"] > 0


def test_bounds_scan_stirling_json(capsys):
    # the check's domain is open at 1/(2e^2), so start at n = 4
    grid = ",".join(str(math.exp(-2) / n) for n in (4, 6, 8))
    code, out, _ = run(
        capsys, "bounds-scan", "--family", "stirling", "--a-grid", grid,
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(row["passes"] for row in doc["rows"])
    assert doc["fit"]["r2"] > 0.9


def test_bounds_scan_stdout_appends_fit(capsys):
    code, out, _ = run(
        capsys, "bounds-scan", "--family", "taylor", "--a-grid", "0.1,0.05,0.025"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,value,envelope,passes"
    json.loads(lines[-1])  # trailing fit summary line


def test_bounds_scan_empty_grid(capsys):
    code, _, _ = run(capsys, "bounds-scan", "--family", "taylor", "--a-grid", " ")
    assert code == 2


def test_bounds_scan_out_of_domain(capsys):
    code, _, _ = run(capsys, "bounds-scan", "--family", "taylor", "--a-grid", "0.5")
    assert code == 2


# ---------------------------------------------------------------------------
# chi

@pytest.fixture
def chi_files(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text('{"times": [0.0, 1.0], "T": 1.0}')
    dens = tmp_path / "dens.json"
    dens.write_text('{"kind": "hard-cutoff-flat", "amplitude": 1.0, "cutoff": 1.0}')
    return seq, dens


def test_chi_closed_form(capsys, chi_files):
    seq, dens = chi_files
    code, out, _ = run(capsys, "chi", "--sequence", str(seq), "--density", str(dens))
    assert code == 0
    assert float(out) == pytest.approx(2.0 - 2.0 * math.sin(1.0), abs=1e-10)


def test_chi_zero_density(capsys, chi_files, tmp_path):
    seq, _ = chi_files
    dens = tmp_path / "zero.json"
    dens.write_text('{"kind": "hard-cutoff-flat", "amplitude": 0.0, "cutoff": 1.0}')
    code, out, _ = run(capsys, "chi", "--sequence", str(seq), "--density", str(dens))
    assert code == 0
    assert float(out) == 0.0


def test_chi_malformed_file(capsys, chi_files, tmp_path):
    _, dens = chi_files
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "chi", "--sequence", str(bad), "--density", str(dens))
    assert code == 2
    assert "error" in err


def test_chi_rejects_nan_density(capsys, chi_files, tmp_path):
    seq, _ = chi_files
    dens = tmp_path / "nan.json"
    dens.write_text('{"kind": "hard-cutoff-flat", "amplitude": 1.0, "cutoff": NaN}')
    code, out, err = run(capsys, "chi", "--sequence", str(seq), "--density", str(dens))
    assert code == 2
    assert out == ""
    assert "error" in err


# ---------------------------------------------------------------------------
# l1-scan

def test_l1_scan(capsys):
    code, out, _ = run(capsys, "l1-scan", "--b-grid", "1,0.5,0.25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,a,l1,implied_c"
    for line in lines[1:]:
        b, a, l1, implied_c = map(float, line.split(","))
        assert l1 > 0.0 and math.isfinite(implied_c)
        assert a == pytest.approx(b / 9)


def test_l1_scan_full_interval_policy(capsys):
    code, out, _ = run(
        capsys, "l1-scan", "--b-grid", "1", "--interval-policy", "full",
        "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["a"] == pytest.approx(2.0 / 9.0)


def test_l1_scan_domain(capsys):
    code, _, _ = run(capsys, "l1-scan", "--b-grid", "4")
    assert code == 2


def test_l1_scan_deterministic(capsys):
    code1, out1, _ = run(capsys, "l1-scan", "--b-grid", "1")
    code2, out2, _ = run(capsys, "l1-scan", "--b-grid", "1")
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# filter

def test_filter_generated_sequence(capsys):
    code, out, _ = run(
        capsys, "filter", "--n", "2", "--T", "1",
        "--omega-max", "6.283185307179586", "--points", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,abs"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_filter_from_file(capsys, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text('{"times": [0.0, 0.5, 1.0], "T": 1.0}')
    code, out, _ = run(
        capsys, "filter", "--sequence", str(seq),
        "--omega-min", "0.1", "--omega-max", "10", "--points", "9",
        "--spacing", "log",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_filter_rows_match_scalar_filter_function(capsys):
    # one vectorised call per invocation, row for row the scalar values
    code, out, _ = run(
        capsys, "filter", "--n", "7", "--T", "1.5", "--omega-min", "-40",
        "--omega-max", "300", "--points", "777",
    )
    assert code == 0
    seq = uhrig_pulse_times(7, 1.5)
    for line in out.splitlines()[1:]:
        w, magnitude = line.split(",")
        assert magnitude == _f17(abs(filter_function(seq, float(w))))


def test_filter_requires_a_sequence(capsys):
    code, _, _ = run(capsys, "filter", "--omega-max", "1")
    assert code == 2


def test_filter_rejects_bad_range(capsys):
    code, _, _ = run(capsys, "filter", "--n", "1", "--T", "1", "--omega-max", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# installed entry point

def test_parser_is_built_once_and_reused(capsys):
    from expsums import cli

    calls = [
        ["uhrig", "--n", "3", "--T", "2", "--format", "json"],
        ["verify-multiplicity", "--n", "4"],
        ["bounds-scan", "--family", "taylor", "--a-grid", "0.1,0.05,0.025"],
        ["uhrig", "--n", "3"],  # missing --T: argparse exits 2
        ["filter", "--n", "2", "--T", "1", "--omega-max", "5", "--points", "8"],
        ["l1-scan", "--b-grid", "0.5"],
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._parser.cache_clear()
    reused = [outcome(argv) for argv in calls]
    parser = cli._parser()
    assert outcome(calls[0]) == reused[0] and cli._parser() is parser
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert cli._parser() is not parser
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0]
    assert "required" in reused[3][2]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "expsums.cli", "uhrig", "--n", "1", "--T", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "j,t"


# ---------------------------------------------------------------------------
# the README's examples

def readme_cli_lines():
    """The ``expsums ...`` command lines of the README's ``## CLI`` block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split(" # ")[0].rstrip() for line in block.splitlines()
            if line.startswith("expsums ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_examples_run(line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seq.json").write_text(sequence_to_json(uhrig_pulse_times(4, 1.0)))
    (tmp_path / "dens.json").write_text(
        json.dumps({"kind": "hard-cutoff-flat", "amplitude": 1.0, "cutoff": 1.0}))
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
