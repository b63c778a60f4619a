"""Command-line interface: subcommands, formats, schemas, exit codes."""
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stc.cli as cli_mod
import stc.errors as errors_mod
from stc.cli import (
    _CSV_COLUMNS,
    _check_numbers,
    _f6,
    _parse_floats,
    _parse_ints,
    _read_records,
    main,
    read_panel_csv,
    write_panel_csv,
)
from stc.critical_values import alpha_underline, critical_value, round3
from stc.distributions import t_two_sided_tail
from stc.errors import DataFormatError, InvalidParameterError, NoValidCriticalValueError
from stc.inference import ClusterEstimates, t_statistic
from stc.worstcase import HeterogeneitySpec, p_max

DID_HEADER = "# toy gain-score panel\ncluster,time,outcome\n\n"
DID_BODY = (
    "a,1,0\na,2,1\n"
    "b,1,0\nb,2,2\n"
    "c,1,0\nc,2,3\n"
)


@pytest.fixture()
def did_csv(tmp_path):
    """DiD panel with control gains (1, 2, 3) and treated gain 5: t = 3."""
    path = tmp_path / "panel.csv"
    path.write_text(DID_HEADER + DID_BODY + "t,1,0\nt,2,5\n")
    return str(path)


@pytest.fixture()
def flat_csv(tmp_path):
    """Same controls but treated gain 2 = control mean: t = 0."""
    path = tmp_path / "flat.csv"
    path.write_text(DID_HEADER + DID_BODY + "t,1,0\nt,2,2\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--output", "json"])
    assert code == 0, err
    # emitted JSON is already canonical: reload-and-dump is byte-identical
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2) + "\n"
    return obj


# ------------------------------------------------------------------- cv


def test_cv_text_and_csv(capsys):
    code, out, _ = _run(capsys, ["cv", "--m", "5", "--alpha", "0.05", "--rho", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert "cv_rounded=3.041" in lines and "method=ClosedFormK1" in lines
    code, out, _ = _run(
        capsys, ["cv", "--m", "5", "--alpha", "0.05", "--rho", "1", "--output", "csv"]
    )
    assert code == 0
    header, row = out.strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["cv_rounded"] == "3.041" and fields["method"] == "ClosedFormK1"
    assert fields["m"] == "5" and fields["one_sided"] == "false"


def test_cv_optimized_k2(capsys):
    obj = _run_json(
        capsys, ["cv", "--m", "5", "--alpha", "0.05", "--rho", "1", "--k", "2"]
    )
    assert obj["method"] == "Optimized"
    assert obj["iterations"] > 0
    assert obj["cv"] == pytest.approx(3.459, abs=2e-3)
    assert obj["worst_case_at_cv"] <= 0.05


@pytest.mark.parametrize("rho,cv", [("5e7", 1.38822e8), ("1e8", 2.77645e8)])
def test_closed_form_cv_beyond_the_root_bracket(capsys, rho, cv):
    # the worst case at a ClosedFormK1 cv is the closed-form tail itself, so a
    # cv past the tail kernel's root bracket (about 1.26e8) still reports it
    obj = _run_json(capsys, ["cv", "--m", "5", "--alpha", "0.05", "--k", "1", "--rho", rho])
    assert (obj["cv"], obj["method"], obj["worst_case_at_cv"]) == (cv, "ClosedFormK1", 0.05)


def test_cv_one_sided_equals_doubled_level(capsys):
    one = _run_json(
        capsys,
        ["cv", "--m", "5", "--alpha", "0.025", "--rho", "1", "--one-sided"],
    )
    two = _run_json(capsys, ["cv", "--m", "5", "--alpha", "0.05", "--rho", "1"])
    assert one["cv"] == two["cv"]
    assert one["one_sided"] is True


def test_cv_rejects_bad_alpha(capsys):
    code, _, err = _run(capsys, ["cv", "--m", "5", "--alpha", "0.6", "--rho", "1"])
    assert code == 2
    assert "alpha" in err


def test_usage_error_exit_code(capsys):
    assert main(["cv", "--m", "5"]) == 2  # missing required --rho
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------- max-alpha


def test_max_alpha_grid(capsys):
    code, out, _ = _run(
        capsys, ["max-alpha", "--ms", "5,10", "--rhos", "1,2", "--output", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rho,5,10"
    for line, rho in zip(lines[1:], (1.0, 2.0)):
        cells = line.split(",")
        assert cells[0] == f"{rho:g}"
        for cell, m in zip(cells[1:], (5, 10)):
            assert cell == f"{100.0 * alpha_underline(m, rho):.2f}"
    obj = _run_json(capsys, ["max-alpha", "--ms", "5", "--rhos", "1"])
    assert obj[0]["percent"] == pytest.approx(9.46, abs=5e-3)
    assert obj[0]["alpha_underline"] == pytest.approx(0.0945, abs=2e-4)


def test_max_alpha_below_m4_is_a_parameter_error(capsys):
    code, out, err = _run(capsys, ["max-alpha", "--ms", "3", "--rhos", "1"])
    assert code == 2
    assert out == "" and err.startswith("error:") and "m >= 4" in err


# ------------------------------------------------- pvalue / test / ci


def _did_args(path, extra=()):
    return [
        "--data", path, "--design", "did", "--treated", "t",
        "--post-start", "2", "--rho", "1", *extra,
    ]


def test_pvalue_matches_library(capsys, did_csv):
    obj = _run_json(capsys, ["pvalue", *_did_args(did_csv)])
    assert obj["t_stat"] == pytest.approx(3.0)
    assert obj["delta_hat"] == pytest.approx(3.0)
    assert obj["m"] == 3
    expected = p_max(3, 3.0, HeterogeneitySpec(m=3, k=1, rho=1.0)).value
    assert obj["p_value"] == pytest.approx(expected, rel=1e-5)


def test_pvalue_one_sided_is_half(capsys, did_csv):
    two = _run_json(capsys, ["pvalue", *_did_args(did_csv)])
    greater = _run_json(capsys, ["pvalue", *_did_args(did_csv, ["--one-sided", "greater"])])
    less = _run_json(capsys, ["pvalue", *_did_args(did_csv, ["--one-sided", "less"])])
    assert greater["p_value"] == pytest.approx(0.5 * two["p_value"], rel=1e-9)
    assert less["p_value"] == pytest.approx(1.0 - 0.5 * two["p_value"], rel=1e-9)
    assert greater["sided"] == "OneSidedGreater"


def test_test_report_fields(capsys, did_csv):
    obj = _run_json(capsys, ["test", *_did_args(did_csv, ["--alpha", "0.05"])])
    cv = critical_value(3, 0.05, HeterogeneitySpec(m=3, k=1, rho=1.0))
    assert obj["cv"] == pytest.approx(cv.cv, rel=1e-5)
    assert obj["method"] == "Optimized"  # m = 3 has no closed form
    assert obj["reject"] is (3.0 > cv.cv)
    assert obj["degenerate"] is False
    assert obj["worst_case"]["value"] <= 0.05 + 1e-6
    assert obj["worst_case"]["achieving"]["kind"] in ("Boundary", "ZeroTreated")
    lo, hi = obj["ci"]
    assert lo == pytest.approx(3.0 - cv.cv, rel=1e-5)
    assert hi == pytest.approx(3.0 + cv.cv, rel=1e-5)


def test_ci_subcommand(capsys, did_csv):
    obj = _run_json(capsys, ["ci", *_did_args(did_csv, ["--alpha", "0.05"])])
    test_obj = _run_json(capsys, ["test", *_did_args(did_csv, ["--alpha", "0.05"])])
    assert obj["ci"] == test_obj["ci"]
    assert obj["delta_hat"] == 3.0


def test_flat_panel_never_rejects(capsys, flat_csv):
    obj = _run_json(capsys, ["test", *_did_args(flat_csv, ["--alpha", "0.05"])])
    assert obj["t_stat"] == 0.0
    assert obj["p_value"] == 1.0
    assert obj["reject"] is False


def test_equal_control_effects_give_the_degenerate_report(capsys, tmp_path):
    # DiD effects 0.1, 0.1, 0.1 average to one ulp off 0.1; the spread is
    # still exactly 0, not a t of 6e16 past the tail kernel's range
    path = tmp_path / "equal.csv"
    path.write_text(DID_HEADER + "a,1,0\na,2,0.1\nb,1,0\nb,2,0.1\nc,1,0\nc,2,0.1\n"
                    "t,1,0\nt,2,1.1\n")
    obj = _run_json(capsys, ["test", *_did_args(str(path), ["--alpha", "0.05"])])
    assert obj["degenerate"] is True and obj["reject"] is True
    assert (obj["t_stat"], obj["control_sd"], obj["p_value"]) == ("inf", 0.0, 0.0)
    assert obj["ci"][0] == obj["ci"][1] == obj["delta_hat"]


# --------------------------------------------------------- rho-frontier


def test_frontier_na_and_infinite(capsys, flat_csv, tmp_path):
    code, out, _ = _run(
        capsys,
        ["rho-frontier", "--data", flat_csv, "--design", "did", "--treated", "t",
         "--post-start", "2", "--output", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,k,rho_hat"
    assert lines[1:] == ["0.05,1,NA", "0.05,2,NA", "0.05,3,NA"]

    const = tmp_path / "const.csv"
    const.write_text(
        "cluster,time,outcome\n"
        "a,1,0\na,2,1\nb,1,0\nb,2,1\nc,1,0\nc,2,1\nt,1,0\nt,2,9\n"
    )
    obj = _run_json(
        capsys,
        ["rho-frontier", "--data", str(const), "--design", "did", "--treated", "t",
         "--post-start", "2"],
    )
    assert all(rec["rho_hat"] == "inf" for rec in obj["frontier"])


def test_frontier_duality_and_alpha_ordering(capsys, did_csv):
    obj = _run_json(
        capsys,
        ["rho-frontier", *(_did_args(did_csv)[:-2]), "--alpha-list", "0.05,0.2"],
    )
    by_alpha = {}
    for rec in obj["frontier"]:
        by_alpha.setdefault(rec["alpha"], []).append(rec["rho_hat"])
    for alpha, bounds in by_alpha.items():
        numeric = [b for b in bounds if b is not None]
        assert numeric == sorted(numeric, reverse=True)  # nonincreasing in k
        for k, bound in enumerate(bounds, start=1):
            if bound is None:
                continue
            spec = HeterogeneitySpec(m=3, k=k, rho=bound * 1.01)
            assert p_max(3, 3.0, spec).value > alpha
    loose = [b or 0.0 for b in by_alpha[0.2]]
    strict = [b or 0.0 for b in by_alpha[0.05]]
    assert all(s <= l + 1e-9 for s, l in zip(strict, loose))


# ----------------------------------------------------------------- table


def test_table_range_syntax_and_values(capsys):
    code, out, _ = _run(
        capsys,
        ["table", "--alphas", "0.05", "--ms", "5,10", "--rhos", "0.2:1.0:0.4",
         "--output", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rho,5,10"
    assert [l.split(",")[0] for l in lines[1:]] == ["0.2", "0.6", "1"]
    for line, rho in zip(lines[1:], (0.2, 0.6, 1.0)):
        for cell, m in zip(line.split(",")[1:], (5, 10)):
            expected = critical_value(m, 0.05, HeterogeneitySpec(m=m, k=1, rho=rho))
            assert cell == round3(expected.cv)
    # text output for the table is the same CSV
    code, text_out, _ = _run(
        capsys, ["table", "--alphas", "0.05", "--ms", "5,10", "--rhos", "0.2:1.0:0.4"]
    )
    assert text_out == out


def test_table_json_records(capsys):
    obj = _run_json(capsys, ["table", "--alphas", "0.05", "--ms", "5", "--rhos", "1"])
    assert obj == [
        {"alpha": 0.05, "m": 5, "rho": 1.0, "k": 1, "cv": 3.041, "method": "ClosedFormK1"}
    ]


# -------------------------------------------------------------- simulate


def test_simulate_requires_seed(capsys):
    code, _, _ = _run(
        capsys,
        ["simulate", "--design", "normal", "--dgp", "1", "--m", "5", "--reps", "100"],
    )
    assert code == 2


def test_simulate_deterministic_and_per_rep(capsys, tmp_path):
    argv = [
        "simulate", "--design", "normal", "--dgp", "1", "--m", "5",
        "--reps", "500", "--seed", "42",
    ]
    first = _run_json(capsys, argv)
    second = _run_json(capsys, argv)
    assert first == second
    per_rep = tmp_path / "reps.csv"
    obj = _run_json(capsys, argv + ["--per-rep", str(per_rep)])
    lines = per_rep.read_text().strip().split("\n")
    assert lines[0] == "rep,t_stat,reject"
    assert len(lines) == 501
    rejects = 0
    cv = critical_value(5, 0.05, HeterogeneitySpec(m=5, k=1, rho=1.0)).cv
    for number, line in enumerate(lines[1:]):
        rep, t_stat, reject = line.split(",")
        assert int(rep) == number
        t = float(t_stat)  # plain repr floats, parseable and lossless
        assert reject in ("0", "1") and int(reject) == int(abs(t) > cv)
        rejects += int(reject)
    assert rejects == obj["rejections"]
    assert obj["method"] == "ClosedFormK1"


def test_simulate_twfe_smoke(capsys):
    obj = _run_json(
        capsys,
        ["simulate", "--design", "twfe", "--dgp", "4", "--m", "6",
         "--reps", "400", "--seed", "3", "--sigma", "1.5"],
    )
    assert obj["rho"] == 1.5  # matched restriction defaults to the DGP scale
    assert 0.0 <= obj["rejection_rate"] <= 1.0


# --------------------------------------------------------------- records


def _fields(value, name=""):
    """(path, scalar) pairs of a JSON value: keys joined by '.', list items by index."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [(name, value)]
    return [pair for key, item in items
            for pair in _fields(item, f"{name}.{key}" if name else str(key))]


_DATA = ["--design", "did", "--treated", "t", "--post-start", "2"]
_PANEL = ("design treated m alpha k rho sided delta_hat t_stat control_sd cv method p_value"
          " ci.0 ci.1 reject degenerate worst_case.value worst_case.achieving.kind")
_BOUNDARY = _PANEL + " worst_case.achieving.m1 worst_case.achieving.m0 worst_case.achieving.gamma"
_ZERO_TREATED = _PANEL + " worst_case.achieving.active_controls"
_SIMULATE = ["simulate", "--design", "normal", "--dgp", "1", "--m", "5",
             "--reps", "200", "--seed", "1"]

# the JSON field paths of every subcommand, in order; DATA stands for the
# DiD panel (m = 3, t = 3) and its design flags
_JSON_PATHS = {
    "cv": (["cv", "--m", "5", "--rho", "1"],
           "m alpha k rho one_sided cv cv_rounded method worst_case_at_cv iterations"),
    "cv-one-sided": (["cv", "--m", "5", "--alpha", "0.025", "--rho", "1", "--one-sided"],
                     "m alpha k rho one_sided cv cv_rounded method worst_case_at_cv iterations"),
    "max-alpha": (["max-alpha", "--ms", "5", "--rhos", "1,2"],
                  "0.m 0.rho 0.alpha_underline 0.percent 1.m 1.rho 1.alpha_underline 1.percent"),
    "pvalue": (["pvalue", "DATA", "--rho", "1"],
               "design treated m k rho sided delta_hat t_stat p_value"),
    "test-boundary": (["test", "DATA", "--rho", "1"], _BOUNDARY),
    "test-one-sided": (["test", "DATA", "--rho", "1", "--one-sided", "greater"], _BOUNDARY),
    "test-zero-treated": (["test", "DATA", "--rho", "0"], _ZERO_TREATED),
    "ci": (["ci", "DATA", "--rho", "1"], "design treated m alpha k rho delta_hat ci.0 ci.1"),
    "rho-frontier": (["rho-frontier", "DATA"],
                     "design treated m t_stat" + "".join(
                         f" frontier.{i}.alpha frontier.{i}.k frontier.{i}.rho_hat"
                         for i in range(3))),
    "table": (["table", "--alphas", "0.05", "--ms", "5", "--rhos", "1"],
              "0.alpha 0.m 0.rho 0.k 0.cv 0.method"),
    "simulate": (_SIMULATE,
                 "design dgp m reps seed alpha k rho rejection_rate se rejections cv method"),
}


def _argv(case, did_csv):
    argv, _ = _JSON_PATHS[case]
    return [arg for a in argv for arg in (["--data", did_csv, *_DATA] if a == "DATA" else [a])]


@pytest.mark.parametrize("case", list(_JSON_PATHS))
def test_json_field_paths_are_pinned(capsys, did_csv, case):
    obj = _run_json(capsys, _argv(case, did_csv))
    assert [path for path, _ in _fields(obj)] == _JSON_PATHS[case][1].split()
    if case.startswith("test"):
        kind = "ZeroTreated" if case == "test-zero-treated" else "Boundary"
        assert obj["worst_case"]["achieving"]["kind"] == kind


@pytest.mark.parametrize(
    "case", ["cv", "pvalue", "test-boundary", "test-zero-treated", "ci", "simulate"]
)
def test_csv_and_text_carry_every_json_field(capsys, did_csv, case):
    argv = _argv(case, did_csv)
    obj = _run_json(capsys, argv)
    fields = dict(_fields(obj))
    code, out, _ = _run(capsys, argv + ["--output", "csv"])
    assert code == 0
    header, row = out.rstrip("\n").split("\n")
    assert header.split(",") == list(fields)
    code, text, _ = _run(capsys, argv)
    assert code == 0
    lines = dict(line.split("=", 1) for line in text.rstrip("\n").split("\n"))
    assert list(lines) == list(fields)
    assert list(lines.values()) == row.split(",")
    for path, value in fields.items():
        if isinstance(value, float):
            assert float(lines[path]) == pytest.approx(value, rel=1e-5)


# ------------------------------------------------------ files and errors


def test_output_path_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = _run(
        capsys,
        ["cv", "--m", "5", "--alpha", "0.05", "--rho", "1",
         "--output", "json", "--output-path", str(target)],
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["cv_rounded"] == 3.041


def test_missing_data_file_is_a_data_error(capsys):
    code, _, err = _run(
        capsys,
        ["pvalue", "--data", "/nonexistent/x.csv", "--design", "mean",
         "--treated", "t", "--rho", "1"],
    )
    assert code == 4
    assert "error:" in err


def test_design_violation_exit_code(capsys, did_csv):
    code, _, err = _run(
        capsys,
        ["pvalue", "--data", did_csv, "--design", "did", "--treated", "zzz",
         "--post-start", "2", "--rho", "1"],
    )
    assert code == 4
    assert "'zzz'" in err


def test_infeasibility_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NoValidCriticalValueError("level unattainable", floor=0.2)

    monkeypatch.setattr(cli_mod, "critical_value", boom)
    code, _, err = _run(capsys, ["cv", "--m", "5", "--alpha", "0.05", "--rho", "1"])
    assert code == 3
    assert "unattainable" in err


def test_huge_t_statistic_is_a_numerical_failure(capsys, tmp_path):
    # t is about 7.7e9, a threshold past what the tail kernel resolves: the
    # worst-case search at k = 2 fails, while at k = 1 (m = 4, rho = 1) h_bar
    # is negative there and the closed form gives the exact tail
    path = tmp_path / "far.csv"
    path.write_text("cluster,outcome\na,0\nb,1e-9\nc,-1e-9\nd,2e-9\nt,10\n")
    argv = ["pvalue", "--data", str(path), "--design", "mean", "--treated", "t", "--rho", "1"]
    code, out, err = _run(capsys, argv + ["--k", "2"])
    assert code == 3
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    t, _, _ = t_statistic(ClusterEstimates(np.array([0.0, 1e-9, -1e-9, 2e-9]), 10.0))
    expected = float(t_two_sided_tail(3, t / math.sqrt(1.25)))
    assert _run_json(capsys, argv + ["--k", "1"])["p_value"] == _f6(expected)


# the documented contract: 2 parameter, 3 infeasibility, 4 data or file
_EXIT_CODES = {
    "StcError": 3,
    "InvalidParameterError": 2,
    "BracketSignError": 3,
    "NumericalFailureError": 3,
    "NoValidCriticalValueError": 3,
    "DesignViolationError": 4,
    "RankDeficiencyError": 4,
    "DataFormatError": 4,
    "OSError": 4,
}


@pytest.mark.parametrize(
    "exc_type",
    [getattr(errors_mod, name) for name in errors_mod.__all__] + [OSError],
    ids=lambda t: t.__name__,
)
def test_every_error_maps_to_its_exit_code(capsys, monkeypatch, exc_type):
    def handler(args):
        raise exc_type("boom")

    monkeypatch.setattr(cli_mod, "_cmd_cv", handler)
    code, out, err = _run(capsys, ["cv", "--m", "5", "--rho", "1"])
    assert code == _EXIT_CODES[exc_type.__name__]
    assert out == ""
    assert err == "error: boom\n"


def test_programming_errors_are_not_swallowed(monkeypatch):
    def handler(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli_mod, "_cmd_cv", handler)
    with pytest.raises(KeyError):
        main(["cv", "--m", "5", "--rho", "1"])


def test_data_path_naming_a_directory_is_a_data_error(capsys, tmp_path):
    code, _, err = _run(
        capsys,
        ["pvalue", "--data", str(tmp_path), "--design", "did", "--treated", "t",
         "--post-start", "2", "--rho", "1"],
    )
    assert code == 4
    assert err.startswith("error:")


def test_non_utf8_csv_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes((DID_HEADER + DID_BODY + "t,1,0\nt,2,5\n").encode() + b"caf\xe9,1,0\n")
    with pytest.raises(DataFormatError, match="not UTF-8"):
        read_panel_csv(str(path))
    code, _, err = _run(
        capsys,
        ["pvalue", "--data", str(path), "--design", "did", "--treated", "t",
         "--post-start", "2", "--rho", "1"],
    )
    assert code == 4
    assert err.startswith("error:") and str(path) in err


def test_output_path_naming_a_directory_is_a_file_error(capsys, tmp_path):
    code, out, err = _run(
        capsys, ["cv", "--m", "5", "--rho", "1", "--output-path", str(tmp_path)]
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


def test_byte_order_mark_round_trip(capsys, tmp_path, did_csv):
    bom = tmp_path / "bom.csv"
    plain = open(did_csv, encoding="utf-8").read()
    bom.write_bytes(b"\xef\xbb\xbf" + plain.encode())
    with_bom, without = read_panel_csv(str(bom)), read_panel_csv(did_csv)
    assert with_bom.keys() == without.keys()
    for name, col in without.items():
        assert (col is None and with_bom[name] is None) or np.array_equal(col, with_bom[name])
    argv = ["pvalue", "--design", "did", "--treated", "t", "--post-start", "2",
            "--rho", "1", "--output", "json"]
    assert _run(capsys, argv + ["--data", str(bom)]) == _run(capsys, argv + ["--data", did_csv])


# ----------------------------------------------------------- CSV schema


def test_read_panel_csv_full_schema(tmp_path):
    path = tmp_path / "full.csv"
    path.write_text(
        "cluster,unit,time,outcome,c\n"
        "# interior comment\n"
        "a,u1,1,0.5,0\n"
        "a,u2,2,-1.5,1\n"
        "b,u1,1,2.25,0\n"
    )
    cols = read_panel_csv(str(path))
    assert cols["cluster"].tolist() == ["a", "a", "b"]
    assert cols["unit"].tolist() == ["u1", "u2", "u1"]
    assert cols["time"].tolist() == [1, 2, 1]
    assert cols["outcome"].tolist() == [0.5, -1.5, 2.25]
    assert cols["c"].tolist() == [0, 1, 0]


def test_read_panel_csv_optional_columns_default_none(tmp_path):
    path = tmp_path / "min.csv"
    path.write_text("cluster,outcome\na,1\nb,2\n")
    cols = read_panel_csv(str(path))
    assert cols["time"] is None and cols["unit"] is None and cols["c"] is None


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("", "no header row found"),
        ("# only a comment\n", "no header row found"),
        ("cluster,bogus\na,1\n", "unknown column(s)"),
        ("cluster,outcome,cluster\na,1,a\n", "duplicate column names"),
        ("cluster,time\na,1\n", "missing required column 'outcome'"),
        ("cluster,outcome\n", "no data rows"),
        ("cluster,outcome\na,1,9\n", "line 2: expected 2 fields, got 3"),
        ("cluster,outcome\na,oops\n", "line 2: bad value 'oops' in column 'outcome'"),
        ("cluster,time,outcome\na,1.5,2\n", "bad value '1.5' in column 'time'"),
        ("cluster,outcome,c\na,1,7\n", "bad value '7' in column 'c'"),
        ("cluster,outcome\n,1\n", "bad value '' in column 'cluster'"),
        ("cluster,time,outcome\na,99999999999999999999,2\n",
         "line 2: bad value '99999999999999999999' in column 'time'"),
        ("cluster,outcome,c\na,1,99999999999999999999\n",
         "line 2: bad value '99999999999999999999' in column 'c'"),
        ("cluster,outcome\na,1\nb, nan \n", "line 3: bad value 'nan' in column 'outcome'"),
        ("cluster,outcome\na,-inf\n", "line 2: bad value '-inf' in column 'outcome'"),
        ("cluster,outcome\na,1e400\n", "line 2: bad value '1e400' in column 'outcome'"),
        # line numbers count physical lines: the quoted id spans lines 2-3
        ('cluster,outcome\n"a\nb",1\nc,2\nd,oops\n',
         "line 5: bad value 'oops' in column 'outcome'"),
        ('cluster,outcome\n"a\nb",1\nc,2,3\n', "line 4: expected 2 fields, got 3"),
    ],
)
def test_read_panel_csv_errors(tmp_path, body, fragment):
    import re

    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataFormatError, match=re.escape(fragment)):
        read_panel_csv(str(path))


@pytest.mark.parametrize("column,body", [
    ("time", "cluster,time,outcome\na,1,0\na,99999999999999999999,1\n"),
    ("c", "cluster,time,outcome,c\na,1,0,99999999999999999999\n"),
    ("outcome", "cluster,time,outcome\na,1,0\na,2,nan\n"),
])
def test_bad_csv_values_exit_4_with_the_line(capsys, tmp_path, column, body):
    # an int64 overflow or a non-finite outcome is a data error, not a traceback
    path = tmp_path / "bad.csv"
    path.write_text(body)
    code, out, err = _run(capsys, ["test", "--data", str(path), "--design", "did",
                                   "--treated", "a", "--post-start", "2", "--rho", "1"])
    assert code == 4 and out == ""
    line = body.count("\n")
    assert err.startswith("error:") and f"line {line}: bad value" in err
    assert f"in column {column!r}" in err


def test_stray_quote_in_a_large_csv_exits_4_with_the_line(capsys, tmp_path):
    # the quoted field swallows the rest of the file and outgrows csv's limit
    path = tmp_path / "stray.csv"
    path.write_text('cluster,outcome\n"a,1\n' + "b,2\n" * 40_000)
    code, out, err = _run(capsys, ["test", "--data", str(path), "--design", "mean",
                                   "--treated", "a", "--rho", "1"])
    assert code == 4 and out == ""
    assert err.startswith("error:") and "line 2: field larger than field limit" in err


def test_read_panel_csv_quoted_hash_is_an_id(tmp_path):
    # only an unquoted '#' starts a comment; "#a" is a cluster id
    path = tmp_path / "hash.csv"
    path.write_text('cluster,outcome\n"#a",1.0\nb,2.0\nc,3.0\n')
    cols = read_panel_csv(str(path))
    assert cols["cluster"].tolist() == ["#a", "b", "c"]
    assert cols["outcome"].tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("comment", ["# note", "  # note", '\t# note, "x"'])
def test_read_panel_csv_skips_comment_lines(tmp_path, comment):
    path = tmp_path / "comments.csv"
    path.write_text(f"{comment}\ncluster,outcome\n{comment}\na,1\n{comment}\nb,2\n")
    assert read_panel_csv(str(path))["cluster"].tolist() == ["a", "b"]
    # a bad row keeps its line number: comment lines are counted, not read
    path.write_text(f"cluster,outcome\n{comment}\na,oops\n")
    with pytest.raises(DataFormatError, match="line 3: bad value 'oops' in column 'outcome'"):
        read_panel_csv(str(path))
    path.write_text(f"{comment}\n")
    with pytest.raises(DataFormatError, match="no header row found"):
        read_panel_csv(str(path))


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "rt.csv"
    cluster = np.array(["a", "b", "t"])
    outcome = np.array([0.1, -2.5, 1.0 / 3.0])
    time = np.array([1, 2, 3])
    write_panel_csv(str(path), cluster, outcome, time=time)
    cols = read_panel_csv(str(path))
    assert cols["cluster"].tolist() == cluster.tolist()
    assert np.array_equal(cols["outcome"], outcome)  # repr() is lossless
    assert cols["time"].tolist() == time.tolist()
    assert cols["c"] is None


# ids mixing letters with the characters a bare "," join used to split or
# mangle: commas, double quotes, inner spaces and line breaks
_IDS = st.text(alphabet='ab ,"\n#', min_size=1, max_size=6).filter(
    lambda s: s.strip() == s)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(clusters=st.lists(_IDS, min_size=1, max_size=5), units=st.data())
def test_write_read_round_trip_awkward_ids(tmp_path, clusters, units):
    unit = units.draw(st.lists(_IDS, min_size=len(clusters), max_size=len(clusters)))
    outcome = np.linspace(-1.0, 1.0, len(clusters)) / 3.0
    path = str(tmp_path / "ids.csv")
    write_panel_csv(path, clusters, outcome, unit=unit)
    cols = read_panel_csv(path)
    assert cols["cluster"].tolist() == clusters
    assert cols["unit"].tolist() == unit
    assert np.array_equal(cols["outcome"], outcome)


@pytest.mark.parametrize("bad", ["", " a", "a "])
def test_write_panel_csv_refuses_ids_that_would_read_back_changed(tmp_path, bad):
    with pytest.raises(InvalidParameterError, match="would not read back"):
        write_panel_csv(str(tmp_path / "x.csv"), ["a", bad], [1.0, 2.0])


def test_write_panel_csv_quotes_rows_with_hash_ids(tmp_path):
    # unquoted, a cluster id starting with '#' would read as a comment line
    path = tmp_path / "hash.csv"
    write_panel_csv(str(path), ["#a", "b", "#c"], [1.0, 2.5, -3.0], time=[1, 2, 3])
    assert path.read_text() == (
        'cluster,time,outcome\n"#a","1","1.0"\nb,2,2.5\n"#c","3","-3.0"\n')
    cols = read_panel_csv(str(path))
    assert cols["cluster"].tolist() == ["#a", "b", "#c"]
    assert cols["time"].tolist() == [1, 2, 3]
    assert cols["outcome"].tolist() == [1.0, 2.5, -3.0]


def _csv_module_panel(columns: list[tuple[str, list]]) -> str:
    """The panel as the csv module writes it: minimal quoting, and every field
    quoted on a row whose cluster id starts with '#'."""
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(name for name, _ in columns)
    for row in zip(*(map(str, col) for _, col in columns)):
        (quoted if row[0].startswith("#") else plain).writerow(row)
    return buf.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(clusters=st.lists(_IDS | st.sampled_from(["é", "#", "x#", "a\tb"]), min_size=1, max_size=8),
       data=st.data())
def test_write_panel_csv_writes_what_the_csv_module_writes(tmp_path, clusters, data):
    n = len(clusters)
    unit = data.draw(st.lists(_IDS, min_size=n, max_size=n))
    time = list(range(n))
    outcome = data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
    path = tmp_path / "ids.csv"
    write_panel_csv(str(path), clusters, outcome, time=time, unit=unit)
    expected = _csv_module_panel([("cluster", clusters), ("unit", unit), ("time", time),
                                  ("outcome", outcome)])
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_panel_csv_quotes_a_bare_carriage_return(tmp_path):
    # the one departure from csv.writer, which writes "a\rb" bare under a
    # "\n" line terminator in some Python versions: that file does not read back
    path = tmp_path / "cr.csv"
    write_panel_csv(str(path), ["a\rb", "c"], [1.0, 2.0])
    assert path.read_bytes() == b'cluster,outcome\n"a\rb",1.0\nc,2.0\n'
    assert read_panel_csv(str(path))["cluster"].tolist() == ["a\rb", "c"]


def _field(draw, text: str) -> str:
    """``text`` as a CSV field, quoted where it must be and sometimes where not."""
    if any(ch in text for ch in ',"\r\n') or draw(st.booleans()):
        return '"' + text.replace('"', '""') + '"'
    return text


_CELLS = {
    "cluster": st.text(alphabet='ab ,"\n#', min_size=1, max_size=5),
    "unit": st.text(alphabet="ab #\t", min_size=1, max_size=3),
    "time": st.integers(-10**6, 10**6).map(str),
    "outcome": st.floats(allow_nan=False, allow_infinity=False).map(repr),
    "c": st.sampled_from(["0", "1", " 1 "]),
}
_BAD_CELLS = {
    "cluster": ["", "  "],
    "unit": [" "],
    "time": ["1.5", "99999999999999999999", "x", "1_0"],
    "outcome": ["oops", "nan", "-inf", "1e400", ""],
    "c": ["7", "-1"],
}
# lines that are not rows: comments, blank lines and blank records
_NON_ROWS = ["", "# note", "  # note", '\t# note, "x"', ",,", '""', "   "]


@st.composite
def _panel_csvs(draw):
    """Panel CSV text: quoted awkward ids, comments, blank lines and records,
    an optional byte-order mark, LF or CRLF, and at most one bad field."""
    header = draw(st.permutations(_CSV_COLUMNS).map(list))
    header = [name for name in header
              if name in ("cluster", "outcome") or draw(st.booleans())]
    rows = draw(st.lists(st.tuples(*(_CELLS[name] for name in header)),
                         min_size=1, max_size=8))
    lines = [",".join(header)] + [",".join(_field(draw, cell) for cell in row)
                                   for row in rows]
    if draw(st.booleans()):
        i = draw(st.integers(1, len(rows)))
        j = draw(st.integers(0, len(header) - 1))
        cells = list(rows[i - 1])
        cells[j] = draw(st.sampled_from(_BAD_CELLS[header[j]]))
        lines[i] = ",".join(_field(draw, cell) for cell in cells)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_NON_ROWS)))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_panel_csvs())
def test_fast_path_and_record_loop_agree(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())
    try:
        fast = read_panel_csv(str(path))
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as slow_exc:
            _read_records(str(path))
        assert str(exc) == str(slow_exc.value)
        return
    slow = _read_records(str(path))
    assert fast.keys() == slow.keys()
    for name, col in slow.items():
        if col is None:
            assert fast[name] is None
        else:
            assert fast[name].dtype == col.dtype and np.array_equal(fast[name], col)


def test_clean_panel_never_reaches_the_record_loop(tmp_path, monkeypatch):
    # a silent fallback would keep every result and lose the speed
    rng = np.random.default_rng(16)
    n = 10_000
    cluster = np.array([f"c{j}" for j in rng.integers(0, 7, n)])
    unit = np.array([f"u{j}" for j in rng.integers(0, 300, n)])
    time, c = rng.integers(1, 11, n), rng.integers(0, 2, n)
    outcome = rng.normal(size=n)
    path = str(tmp_path / "clean.csv")
    write_panel_csv(path, cluster, outcome, time=time, unit=unit, c=c)

    def record_loop(path):
        raise AssertionError(f"{path} fell back to the record loop")

    monkeypatch.setattr(cli_mod, "_read_records", record_loop)
    cols = read_panel_csv(path)
    assert cols["cluster"].tolist() == cluster.tolist()
    assert cols["unit"].tolist() == unit.tolist()
    assert cols["time"].dtype == np.int64 and np.array_equal(cols["time"], time)
    assert cols["c"].dtype == np.int64 and np.array_equal(cols["c"], c)
    assert cols["outcome"].dtype == np.float64 and np.array_equal(cols["outcome"], outcome)


# -------------------------------------------------------------- helpers


def test_parse_floats_and_ints():
    assert _parse_floats("0.2:1.0:0.2") == [0.2, 0.4, 0.6, 0.8, 1.0]
    assert _parse_floats("1,2.5,3") == [1.0, 2.5, 3.0]
    assert _parse_ints("5:25:5") == [5, 10, 15, 20, 25]
    with pytest.raises(InvalidParameterError):
        _parse_floats("1:2")  # needs a:b:step
    with pytest.raises(InvalidParameterError):
        _parse_floats("2:1:0.5")  # descending
    with pytest.raises(InvalidParameterError):
        _parse_ints("1.5,2")
    with pytest.raises(InvalidParameterError):
        _parse_floats("a,b")


@pytest.mark.parametrize("token,message", [
    ("4,x", "bad number list '4,x'; expected comma-separated numbers"),
    ("4.5", "expected integers, got '4.5'"),
])
def test_number_list_errors_reach_the_user(capsys, token, message):
    assert main(["max-alpha", "--ms", token, "--rhos", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"stc max-alpha: error: argument --ms: {message}\n")


@pytest.mark.parametrize(
    "token,via_cli",
    [
        ("0:inf:1", True),  # overflowed building the range
        ("1:2:inf", True),  # gave [nan]
        ("-inf:0:1", True),
        ("nan:1:1", True),
        ("1,nan", True),
        (",", True),  # gave an empty grid
        ("", True),
        ("0:1:1e-9", False),  # 1e9 points: checked, never built
        ("0:1e300:1e-300", False),
        ("0:10000:1", False),  # 10,001 points
    ],
)
def test_number_lists_are_checked_before_they_are_built(capsys, token, via_cli):
    with pytest.raises(InvalidParameterError):
        _check_numbers(token)
    if via_cli:
        with pytest.raises(InvalidParameterError):
            _parse_floats(token)
        assert main(["max-alpha", "--ms", "5", "--rhos", token]) == 2
        assert main(["max-alpha", "--ms", token, "--rhos", "1"]) == 2
        assert capsys.readouterr().out == ""
    assert _check_numbers("0:9999:1") == ([0.0, 9999.0, 1.0], 10_000)


def test_f6_formatting():
    assert _f6(None) is None
    assert _f6(math.inf) == "inf"
    assert _f6(-math.inf) == "-inf"
    assert _f6(3.04142314) == 3.04142
    assert _f6(0.05) == 0.05


@pytest.mark.parametrize("argv, message", [
    (["--alphas", "0.7", "--ms", "5", "--rhos", "1"], "alpha must lie in (0, 0.5), got 0.7"),
    (["--alphas", "0.05", "--ms", "5", "--rhos", "1", "--k", "0"], "k must lie in 1..5, got 0"),
    (["--alphas", "0.05", "--ms", "1,5", "--rhos", "1"], "m must be >= 2, got 1"),
    (["--alphas", "0.05", "--ms", "5", "--rhos", "-1"], "rho must be finite and >= 0, got -1.0"),
])
def test_table_refuses_invalid_parameters(capsys, argv, message):
    # an invalid grid is a usage error, not an ERROR cell, as in `stc cv`
    code, out, err = _run(capsys, ["table", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_workers_env_cap(monkeypatch, capsys):
    from argparse import Namespace

    from stc.cli import _workers

    monkeypatch.setenv("STC_THREADS", "2")
    assert _workers(Namespace(workers=8)) == 2
    monkeypatch.setenv("STC_THREADS", "abc")
    with pytest.raises(InvalidParameterError, match="STC_THREADS"):
        _workers(Namespace(workers=8))
    code, _, err = _run(
        capsys, ["table", "--alphas", "0.05", "--ms", "5", "--rhos", "1", "--workers", "2"]
    )
    assert code == 2
    assert err.startswith("error: STC_THREADS")
    # a count below 1 is refused too, not run serially
    monkeypatch.setenv("STC_THREADS", "0")
    code, _, err = _run(
        capsys, ["table", "--alphas", "0.05", "--ms", "5", "--rhos", "1", "--workers", "2"]
    )
    assert code == 2
    assert err == "error: STC_THREADS must be >= 1, got 0\n"
    monkeypatch.delenv("STC_THREADS")
    code, _, err = _run(
        capsys, ["table", "--alphas", "0.05", "--ms", "5", "--rhos", "1", "--workers", "-3"]
    )
    assert code == 2
    assert err == "error: --workers must be >= 1, got -3\n"
    assert _workers(Namespace(workers=8)) == 8
    assert _workers(Namespace()) == 1
