"""End-to-end tests for the command-line front end, driven through main()."""

import json
import os
import stat
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import unionbounds
from conftest import S2_EVENTS, S2_WEIGHTS, S3_EVENTS, S3_WEIGHTS
from unionbounds import BOUND_NAMES, cli, unions
from unionbounds.bounds import MomentConsistencyError
from unionbounds.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VIOLATION,
    FORMATS,
    CliInputError,
    format_number,
    load_system,
    main,
    parse_number,
    serialize_system,
    write_text,
)
from unionbounds.events import build_system


def write_system(tmp_path, weights, events, name="system.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps({"weights": list(weights), "events": [list(e) for e in events]}),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def s2_path(tmp_path):
    return write_system(tmp_path, S2_WEIGHTS, S2_EVENTS)


@pytest.fixture
def s3_path(tmp_path):
    return write_system(tmp_path, S3_WEIGHTS, S3_EVENTS)


# Exact output of `bounds` and `bc` in every format, pinned byte for byte.
# Each case runs in a fresh directory holding the s3 system as "s3.json";
# its stdout must equal tests/golden/<case>.<format>.
GOLDEN = Path(__file__).parent / "golden"
S3_INPUT = ["--input", "s3.json"]
GOLDEN_CASES = {
    "bounds": (["bounds", *S3_INPUT], EXIT_OK),
    "bounds_sections": (
        ["bounds", *S3_INPUT, "--a", "1", "--rho", "1", "--a", "3/2", "--rho", "5/4"],
        EXIT_OK,
    ),
    "bounds_clamp": (["bounds", *S3_INPUT, "--clamp"], EXIT_OK),
    # lower_bound_two_moments_simple raises, so its rows carry an error note
    "bounds_error": (["bounds", *S3_INPUT], EXIT_VIOLATION),
    "bc_independent": (
        ["bc", "--model", "independent", "--n", "5", "--n", "2", "--m", "2"]
        + [arg for p in ("1/3", "1/4", "1/5", "1/6", "1/7") for arg in ("--p", p)],
        EXIT_OK,
    ),
    "bc_geometric": (
        ["bc", "--model", "geometric", "--p", "1/2", "--n", "12", "--n", "5"]
        + ["--m", "3"],
        EXIT_OK,
    ),
    "bc_identical": (
        ["bc", "--model", "identical", "--p", "2/3", "--n", "30", "--n", "7"],
        EXIT_OK,
    ),
    "bc_explicit": (
        ["bc", "--model", "explicit", *S3_INPUT, "--n", "3", "--n", "2", "--m", "2"],
        EXIT_OK,
    ),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(case, fmt, tmp_path, monkeypatch, capsys):
    argv, code = GOLDEN_CASES[case]
    monkeypatch.chdir(tmp_path)
    write_system(tmp_path, S3_WEIGHTS, S3_EVENTS, "s3.json")
    if case == "bounds_error":

        def refuse(moments):
            raise MomentConsistencyError("moments refused")

        monkeypatch.setattr(unions, "lower_bound_two_moments_simple", refuse)
    assert main([*argv, "--format", fmt]) == code
    want = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_parse_number():
    assert parse_number("1/3") == Fraction(1, 3)
    assert parse_number("2") == 2
    assert isinstance(parse_number("2"), int)
    assert parse_number("0.25") == Fraction(1, 4)
    with pytest.raises(CliInputError):
        parse_number("three")
    with pytest.raises(CliInputError):
        parse_number("1/0")


def test_format_number():
    assert format_number(Fraction(3, 4)) == "0.75"
    assert format_number(Fraction(1, 3)) == "0.333333333333"
    assert format_number(2) == "2"


def test_load_system_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["bounds", "--input", missing]) == EXIT_INPUT_ERROR
    assert missing in capsys.readouterr().err


def test_load_system_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"weights": [1,]}', encoding="utf-8")
    assert main(["bounds", "--input", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_load_system_wrong_shape(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    assert main(["bounds", "--input", str(path)]) == EXIT_INPUT_ERROR
    assert "'weights' and 'events'" in capsys.readouterr().err


def test_load_system_bad_weights(tmp_path, capsys):
    path = write_system(tmp_path, ["1/10", "1/5", "1/4", "3/20", "1/5"], [[0, 1]])
    assert main(["bounds", "--input", path]) == EXIT_INPUT_ERROR
    assert "weights sum 9/10 != 1" in capsys.readouterr().err


def test_load_system_infinite_weight(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"weights": [1, Infinity], "events": [[0]]}', encoding="utf-8")
    assert main(["bounds", "--input", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "weight 1: cannot parse" in err


def test_load_system_bool_weights(tmp_path, capsys):
    path = write_system(tmp_path, [True, False], [[0]])
    assert main(["bounds", "--input", path]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: weight 0: cannot parse True\n"


def test_bounds_table_s2(s2_path, capsys):
    assert main(["bounds", "--input", s2_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "exact union probability: 3/4 (0.75)" in out
    kat_row = next(line for line in out.splitlines() if line.startswith("kat "))
    assert "0.75" in kat_row
    assert "a=1 rho=1" in out


def test_bounds_no_events(tmp_path, capsys):
    path = write_system(tmp_path, ["1"], [])
    assert main(["bounds", "--input", path]) == EXIT_INPUT_ERROR
    assert "no events" in capsys.readouterr().err


def test_bounds_csv_sections(s3_path, capsys):
    code = main(
        [
            "bounds",
            "--input",
            s3_path,
            "--format",
            "csv",
            "--a",
            "1",
            "--rho",
            "1",
            "--a",
            "2",
            "--rho",
            "1",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,kind,value,clamped,exact,pass"
    assert len(lines) == 1 + 2 * len(BOUND_NAMES)
    names = [line.split(",")[0] for line in lines[1:]]
    assert names[: len(BOUND_NAMES)] == list(BOUND_NAMES)
    assert names[len(BOUND_NAMES)] == "chung_erdos[a=2 rho=1]"
    kat = next(line for line in lines if line.startswith("kat,"))
    assert kat == "kat,lower,0.9,0.9,0.9,yes"


def test_bounds_json_schema(s2_path, capsys):
    assert main(["bounds", "--input", s2_path, "--format", "json"]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert document["input"] == s2_path
    assert document["exact"] == "3/4"
    assert document["exact_float"] == 0.75
    (section,) = document["sections"]
    assert section["a"] == "1" and section["rho"] == "1"
    assert section["all_pass"] is True
    entries = {entry["name"]: entry for entry in section["entries"]}
    assert set(entries) == set(BOUND_NAMES)
    kat = entries["kat"]
    assert kat["value"] == 0.75
    assert kat["value_exact"] == "3/4"
    assert kat["pass"] is True
    assert kat["error"] is None


def test_bounds_clamp_column(s3_path, capsys):
    main(["bounds", "--input", s3_path, "--format", "csv"])
    plain = capsys.readouterr().out
    assert "occupancy_upper_two,upper,1.1,1,0.9,yes" in plain
    main(["bounds", "--input", s3_path, "--format", "csv", "--clamp"])
    clamped = capsys.readouterr().out
    assert "occupancy_upper_two,upper,1,1,0.9,yes" in clamped


def test_bounds_exponent_arity_mismatch(s2_path, capsys):
    code = main(["bounds", "--input", s2_path, "--a", "2"])
    assert code == EXIT_INPUT_ERROR
    assert "same number" in capsys.readouterr().err
    code = main(["bounds", "--input", s2_path, "--a", "0", "--rho", "1"])
    assert code == EXIT_INPUT_ERROR


def test_bounds_output_file_is_atomic(s2_path, tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["bounds", "--input", s2_path, "--output", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert "exact union probability: 3/4 (0.75)" in target.read_text(encoding="utf-8")
    assert not (tmp_path / "report.txt.tmp").exists()


@pytest.mark.parametrize("failure", ["encode", "replace"])
def test_write_text_failure_keeps_target_and_leaves_no_temp(
    tmp_path, monkeypatch, failure
):
    target = tmp_path / "out.json"
    write_text(str(target), "old\n")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    if failure == "encode":
        # the lone surrogate cannot be encoded, so the write raises partway
        text, error = "x" * 100_000 + "\ud800", UnicodeEncodeError
    else:
        text, error = "new\n", CliInputError

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(error):
        write_text(str(target), text)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
    assert target.read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize("command", ["bounds", "bc", "generate"])
@pytest.mark.parametrize(
    "target, reason",
    [("missing/out.json", "No such file or directory"), ("taken", "Is a directory")],
)
def test_output_path_errors_are_input_errors(
    s2_path, tmp_path, capsys, command, target, reason
):
    (tmp_path / "taken").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    path = str(tmp_path / target)
    argv = {
        "bounds": ["bounds", "--input", s2_path],
        "bc": ["bc", "--model", "independent", "--p", "1/2", "--n", "3"],
        "generate": ["generate", "--seed", "1", "--events", "2", "--atoms", "4"],
    }[command]
    assert main(argv + ["--output", path]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list((tmp_path / "taken").iterdir()) == []


def test_generate_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code = main(
            [
                "generate",
                "--seed",
                "11",
                "--events",
                "4",
                "--atoms",
                "24",
                "--profile",
                "sparse",
                "--output",
                str(target),
            ]
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    main(["generate", "--seed", "12", "--events", "4", "--atoms", "24", "--output", str(second)])
    assert first.read_bytes() != second.read_bytes()


def test_generate_round_trip(tmp_path):
    target = tmp_path / "system.json"
    main(["generate", "--seed", "7", "--output", str(target)])
    system = load_system(str(target))
    assert serialize_system(system) == target.read_text(encoding="utf-8")


def test_generate_rejects_bad_profile(capsys):
    assert main(["generate", "--seed", "1", "--profile", "mixed"]) == EXIT_INPUT_ERROR
    assert main(["generate", "--seed", "1", "--events", "0"]) == EXIT_INPUT_ERROR


def test_bc_independent_table(capsys):
    code = main(["bc", "--model", "independent", "--p", "1/2", "--n", "200"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    row = out.splitlines()[1]
    assert row.split()[0] == "200"
    assert "0.9975" in row
    assert "1.005" in row


def test_bc_grid_sorted_and_json(capsys):
    code = main(
        [
            "bc",
            "--model",
            "independent",
            "--p",
            "1/2",
            "--n",
            "100",
            "--n",
            "10",
            "--format",
            "json",
        ]
    )
    assert code == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert document["model"] == "independent"
    assert [row["n"] for row in document["rows"]] == [10, 100]
    assert document["rows"][1]["lower"] == pytest.approx(199 / 200)
    assert document["rows"][1]["kochen_stone"] == pytest.approx(101 / 100)


def test_bc_constant_probability_long_horizon(capsys):
    # one run of rows, so a horizon of 10**6 costs what a short one does
    n, p = 10**6, Fraction(1, 3)
    code = main(
        ["bc", "--model", "independent", "--p", "1/3", "--n", str(n), "--format", "json"]
    )
    assert code == EXIT_OK
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["n"] == n
    assert row["kochen_stone"] == float(1 + 1 / (n * p) - Fraction(1, n))


def test_bc_explicit_model(s3_path, capsys):
    code = main(
        ["bc", "--model", "explicit", "--input", s3_path, "--n", "3", "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n,m,lower,")
    row = lines[1].split(",")
    assert row[0] == "3"
    assert float(row[5]) == 0.9  # upper_window equals the exact union here


def test_bc_geometric_model(capsys):
    code = main(
        ["bc", "--model", "geometric", "--p", "1/2", "--n", "40", "--m", "5"]
    )
    assert code == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split()
    assert float(row[5]) <= 2 ** (1 - 5)  # upper_window under the tail cap
    assert main(["bc", "--model", "geometric", "--p", "1", "--n", "5"]) == EXIT_INPUT_ERROR
    assert (
        main(["bc", "--model", "geometric", "--p", "1/2", "--p", "1/3", "--n", "5"])
        == EXIT_INPUT_ERROR
    )


def test_bc_identical_model(capsys):
    code = main(["bc", "--model", "identical", "--p", "2/3", "--n", "30"])
    assert code == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1]
    parts = row.split()
    assert parts[2] == format_number(Fraction(2, 3))
    assert parts[7] == "1.5"


@pytest.mark.parametrize("fmt", FORMATS)
def test_bc_value_outside_float_range_is_an_input_error(fmt, capsys):
    # kochen_stone is about 10**400 here; no float holds it
    p = "1/1" + "0" * 400
    code = main(["bc", "--model", "independent", "--p", p, "--n", "10", "--format", fmt])
    assert code == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: kochen_stone at n=10 is outside the float range\n"


def test_bc_usage_errors(s3_path, capsys):
    assert main(["bc", "--model", "independent", "--n", "5"]) == EXIT_INPUT_ERROR
    assert "requires --p" in capsys.readouterr().err
    assert main(["bc", "--model", "explicit", "--n", "2"]) == EXIT_INPUT_ERROR
    assert "requires --input" in capsys.readouterr().err
    code = main(["bc", "--model", "independent", "--p", "1/2", "--n", "5", "--m", "9"])
    assert code == EXIT_INPUT_ERROR
    code = main(["bc", "--model", "explicit", "--input", s3_path, "--n", "4"])
    assert code == EXIT_INPUT_ERROR
    assert main(["bc", "--model", "independent", "--p", "3/2", "--n", "5"]) == EXIT_INPUT_ERROR


def test_parser_usage_errors(capsys):
    assert main(["frobnicate"]) == EXIT_INPUT_ERROR
    assert main([]) == EXIT_INPUT_ERROR
    assert main(["bounds"]) == EXIT_INPUT_ERROR
    assert main(["bounds", "--input", "x", "--format", "yaml"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_selftest_passes(capsys):
    code = main(["selftest", "--sharpness", "5", "--systems", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "selftest: PASS" in out
    assert "sharpness: 5/5 exact equalities" in out


@pytest.mark.parametrize("option", ["--sharpness", "--systems"])
def test_selftest_rejects_negative_counts(option, capsys):
    assert main(["selftest", option, "-5"]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {option} must be non-negative\n"


def test_selftest_inject_violation(capsys):
    code = main(
        ["selftest", "--sharpness", "2", "--systems", "1", "--inject-violation"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATION
    assert "selftest: FAIL" in out
    assert "injected violation detected" in out


def test_serialize_system_canonical():
    system = build_system(["1/2", "1/2"], [[1, 0], [1]])
    text = serialize_system(system)
    document = json.loads(text)
    assert document == {"weights": ["1/2", "1/2"], "events": [[0, 1], [1]]}
    assert text.endswith("\n")


# What each command loads. This process has imported every module already,
# so each check runs in a fresh interpreter.
SRC = str(Path(unionbounds.__file__).resolve().parents[1])
ON_FIRST_USE = (
    "unionbounds._selftest", "unionbounds.borel_cantelli", "unionbounds._general",
    # what the report records' dataclass metadata imports when a tool reads it
    "dataclasses", "inspect",
)
ESTIMATORS = ("bc_lower_estimate", "bc_upper_estimate", "kochen_stone_ratio")


def run_python(*argv, cwd=None, text=True):
    """A new interpreter run with the library imported from this checkout."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
        capture_output=True,
        text=text,
        timeout=120,
    )


def run_fresh(code):
    """The lines ``code`` prints in a new interpreter; the run must exit 0."""
    result = run_python("-c", textwrap.dedent(code))
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


BC_ARGV = ["bc", "--model", "independent", "--p", "1/2", "--n", "3", "--n", "5"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        *((["bounds", "--format", fmt], []) for fmt in FORMATS),
        (["generate", "--seed", "1"], []),
        (BC_ARGV, ["unionbounds.borel_cantelli"]),
        (["selftest", "--sharpness", "5", "--systems", "2"], ["unionbounds._selftest"]),
    ],
)
def test_command_loads_only_what_it_runs(argv, loaded, s3_path):
    """A command imports only the modules it runs, and never ``dataclasses``:
    the report records build their dataclass metadata on the first read, once,
    and keep their docstrings."""
    if argv[0] == "bounds":
        argv = [*argv, "--input", s3_path]
    out = run_fresh(
        f"""
        import sys, unionbounds.cli
        assert unionbounds.cli.main({argv!r}) == 0
        print([name for name in {ON_FIRST_USE!r} if name in sys.modules])
        import dataclasses
        from unionbounds.borel_cantelli import BCEstimate
        from unionbounds.unions import BoundEntry, BoundReport
        for cls in (BoundEntry, BoundReport, BCEstimate):
            doc, lazy = cls.__doc__, vars(cls)["__dataclass_fields__"]
            assert type(lazy).__name__ == "DataclassFields"
            assert dataclasses.is_dataclass(cls)
            fields = vars(cls)["__dataclass_fields__"]
            assert type(fields) is dict and cls.__dataclass_fields__ is fields
            assert cls.__doc__ == doc
        print("built once")
        """
    )
    assert out[-2:] == [repr(loaded), "built once"]


RECORDS = {
    "bounds": ("ExponentParams", "MomentVector"),
    "events": ("EventSystem", "OccupancyProfile", "PerEventMoments"),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_bounds_loads_no_general_bound_and_generates_no_record(fmt, s3_path):
    """A report never loads the certified general bound, and the records it
    builds are plain classes (the report records' dataclass metadata is
    checked with the modules each command loads)."""
    argv = ["bounds", "--input", s3_path, "--format", fmt, "--a", "3/2", "--rho", "5/4"]
    out = run_fresh(
        f"""
        import dataclasses, importlib, sys, unionbounds.cli
        assert unionbounds.cli.main({argv!r}) == 0
        print("unionbounds._general" in sys.modules)
        kinds = {{}}
        for module, names in {RECORDS!r}.items():
            module = importlib.import_module("unionbounds." + module)
            for name in names:
                kinds[name] = dataclasses.is_dataclass(getattr(module, name))
        print(kinds)
        """
    )
    assert out[-2] == "False"
    assert out[-1] == repr({name: False for names in RECORDS.values() for name in names})


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)
@pytest.mark.parametrize("fmt", FORMATS)
def test_bounds_past_the_int_digit_limit_gives_no_exact_text(fmt, tmp_path):
    """An exact row value with more digits than the interpreter converts to
    text has null value_exact, and the run ends normally."""
    path = tmp_path / "dense.json"
    system = unionbounds.random_system(1, 10, 64)
    path.write_text(serialize_system(system), encoding="utf-8")
    result = run_python(
        "-X", "int_max_str_digits=640", "-m", "unionbounds.cli", "bounds",
        "--input", str(path), "--a", "300", "--rho", "1", "--format", fmt,
    )
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    if fmt == "json":
        (section,) = json.loads(result.stdout)["sections"]
        missing = [e["name"] for e in section["entries"] if e["value_exact"] is None]
        assert missing == [name for name in BOUND_NAMES if name.endswith("_three")]
        for entry in section["entries"]:
            if entry["value_exact"] is not None:
                assert float(Fraction(entry["value_exact"])) == entry["value"]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)
@pytest.mark.parametrize("fmt", FORMATS)
def test_bounds_with_an_exact_union_past_the_int_digit_limit(fmt, tmp_path):
    """An exact union probability with more digits than the interpreter
    converts to text is null in JSON and a float alone in the table heading,
    and the run ends normally."""
    # five disjoint events: every weight parses, the union's denominator
    # 5 * p1 * ... * p5 of pairwise coprime 201-digit p has ~1000 digits
    weights = [
        w
        for p in (10**200 + d for d in (1, 3, 7, 9, 13))
        for w in (Fraction(1, 5 * p), Fraction(p - 1, 5 * p))
    ]
    union = sum(weights[::2])
    assert len(str(union.denominator)) > 640
    path = write_system(tmp_path, map(str, weights), [[2 * k] for k in range(5)])
    result = run_python(
        "-X", "int_max_str_digits=640", "-m", "unionbounds.cli", "bounds",
        "--input", path, "--format", fmt,
    )
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    if fmt == "json":
        document = json.loads(result.stdout)
        assert (document["exact"], document["exact_float"]) == (None, float(union))
        (section,) = document["sections"]
        values = [entry["value_exact"] for entry in section["entries"]]
        assert values == [None] * len(BOUND_NAMES)
    elif fmt == "table":
        heading = f"exact union probability: {format_number(union)}\n"
        assert heading in result.stdout


def test_package_resolves_borel_cantelli_names_on_first_use():
    run_fresh(
        """
        import sys, unionbounds
        assert "unionbounds.borel_cantelli" not in sys.modules
        assert set(unionbounds.__all__) <= set(dir(unionbounds))
        assert not hasattr(unionbounds, "no_such_name")
        from unionbounds import bc_lower_estimate
        from unionbounds import borel_cantelli
        assert bc_lower_estimate is borel_cantelli.bc_lower_estimate
        assert unionbounds.IndependentSequence is borel_cantelli.IndependentSequence
        assert "unionbounds._general" not in sys.modules
        from unionbounds import general_bound, _general
        assert general_bound is _general.general_bound
        assert unionbounds.bounds.CertificateError is _general.CertificateError
        namespace = {}
        exec("from unionbounds import *", namespace)
        assert set(unionbounds.__all__) <= set(namespace)
        """
    )


@pytest.mark.parametrize("bound_first", [True, False])
def test_tracer_wrappers_on_lazy_estimators_are_called(bound_first):
    """A tracer replaces cli's estimators by name with setattr, before the
    first bc command, whether or not an attribute read has bound them yet;
    run_bc calls its wrappers, once per horizon row, and leaves them bound."""
    out = run_fresh(
        f"""
        from unionbounds import borel_cantelli, cli
        names = {ESTIMATORS!r}
        if {bound_first}:
            assert all(getattr(cli, n) is getattr(borel_cantelli, n) for n in names)
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        wrappers = {{n: counting(n, getattr(borel_cantelli, n)) for n in names}}
        for name, wrapper in wrappers.items():
            setattr(cli, name, wrapper)
        assert cli.main({BC_ARGV!r}) == 0
        assert all(getattr(cli, n) is wrappers[n] for n in names)
        print(calls)
        """
    )
    assert out[-1] == repr(dict.fromkeys(ESTIMATORS, 2))


def test_module_entry_point_reports_selftest_input_errors():
    """``python -m unionbounds.cli`` runs cli as ``__main__``, beside the
    ``unionbounds.cli`` that the self-test module imports; a bad count is
    still an input error, not a traceback."""
    result = run_python("-m", "unionbounds.cli", "selftest", "--systems", "-1")
    assert (result.returncode, result.stdout, result.stderr) == (
        EXIT_INPUT_ERROR, "", "error: --systems must be non-negative\n"
    )


@pytest.mark.parametrize("stand_in", [True, False])
def test_main_freezes_the_heap_once_at_exit(stand_in, s3_path, tmp_path):
    """main registers gc.freeze with atexit once per process, however often
    it runs, and leaves the collector as it was until exit. The probe is
    registered before the first main, so it runs after the hook (atexit
    handlers run last-in, first-out). Counts are read against the count the
    interpreter starts with, which some builds make non-zero."""
    argv = ["bounds", "--input", s3_path, "--output", str(tmp_path / "out.txt")]
    out = run_fresh(
        f"""
        import atexit, gc
        start = gc.get_freeze_count()
        from unionbounds import cli
        calls = []
        atexit.register(lambda: print("at exit", calls, gc.get_freeze_count() > start))
        if {stand_in}:
            gc.freeze = lambda: calls.append("freeze")
        assert cli.main({argv!r}) == 0
        assert cli.main({argv!r}) == 0
        print("after main", gc.get_freeze_count() - start, gc.isenabled())
        """
    )
    frozen = ["at exit ['freeze'] False"] if stand_in else ["at exit [] True"]
    assert out == ["after main 0 True", *frozen]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", ["bounds", "bc_geometric"])
def test_console_output_arrives_whole(case, fmt, tmp_path):
    """The module entry point writes its whole output to a pipe (so stdout
    is block-buffered) before the interpreter exits."""
    argv, code = GOLDEN_CASES[case]
    write_system(tmp_path, S3_WEIGHTS, S3_EVENTS, "s3.json")
    result = run_python(
        "-m", "unionbounds.cli", *argv, "--format", fmt, cwd=tmp_path, text=False
    )
    assert (result.returncode, result.stderr) == (code, b"")
    assert result.stdout == (GOLDEN / f"{case}.{fmt}").read_bytes()


def test_console_output_file_arrives_whole(tmp_path):
    argv, code = GOLDEN_CASES["bounds_sections"]
    write_system(tmp_path, S3_WEIGHTS, S3_EVENTS, "s3.json")
    result = run_python(
        "-m", "unionbounds.cli", *argv, "--format", "json", "--output", "out.json",
        cwd=tmp_path, text=False,
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, b"", b"")
    want = (GOLDEN / "bounds_sections.json").read_bytes()
    assert (tmp_path / "out.json").read_bytes() == want
