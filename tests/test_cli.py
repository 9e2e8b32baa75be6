"""Tests for the command-line interface: outputs, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from bsroots import cli, differential_thresholds, fpt, parse_ring_declaration
from bsroots.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, run, verify_example


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jumps_json(capsys):
    code, out, _ = invoke(
        capsys, "jumps", "--ring", "poly p=5 vars=x", "--ideal", "x", "--level", "1"
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"p": 5, "r": 1, "levels": {"1": [4]}}


def test_jumps_level_range(capsys):
    code, out, _ = invoke(
        capsys, "jumps", "--ring", "poly p=5 vars=x", "--ideal", "x", "--levels", "2"
    )
    assert code == EXIT_OK
    assert json.loads(out)["levels"] == {"1": [4], "2": [24]}


def test_roots_unit_ideal_empty(capsys):
    code, out, _ = invoke(
        capsys, "roots", "--ring", "poly p=5 vars=x,y", "--ideal", "1"
    )
    assert code == EXIT_OK
    assert json.loads(out)["roots"] == []


def test_roots_principal(capsys):
    code, out, _ = invoke(
        capsys, "roots", "--ring", "poly p=5 vars=x", "--ideal", "x", "--levels", "3"
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert [(r["num"], r["den"]) for r in payload["roots"]] == [(-1, 1)]
    witnesses = payload["roots"][0]["witnesses"]
    assert witnesses[0] == {"e": 1, "s": 0, "jump": 4}


def test_roots_interval_override(capsys):
    code, out, _ = invoke(
        capsys,
        "roots",
        "--ring",
        "semigroup p=5 gens=2,3",
        "--ideal",
        "x^2",
        "--levels",
        "3",
        "--interval=-1:1",  # '=' form keeps argparse from eating the leading '-'
    )
    payload = json.loads(out)
    assert [(r["num"], r["den"]) for r in payload["roots"]] == [(-1, 1), (1, 2)]


def test_thresholds_text_format(capsys):
    code, out, _ = invoke(
        capsys,
        "thresholds",
        "--ring",
        "poly p=5 vars=x",
        "--ideal",
        "x",
        "--interval",
        "0:2",
        "--format",
        "text",
    )
    assert code == EXIT_OK
    assert "1 (certified to level 3)" in out
    assert "2 (certified to level 3)" in out


def test_fpt_json(capsys):
    code, out, _ = invoke(
        capsys, "fpt", "--ring", "poly p=5 vars=x", "--ideal", "x"
    )
    assert json.loads(out)["fpt"] == {"num": 1, "den": 1, "certified_level": 3}


def test_nu_csv(capsys):
    code, out, _ = invoke(
        capsys,
        "nu",
        "--ring",
        "poly p=5 vars=x",
        "--ideal",
        "x",
        "--cideal",
        "x",
        "--levels",
        "2",
        "--format",
        "csv",
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["e,nu,nu_over_pe", "1,4,4/5", "2,24,24/25"]


def test_test_ideal_command(capsys):
    code, out, _ = invoke(
        capsys,
        "test-ideal",
        "--ring",
        "poly p=5 vars=x,y,z",
        "--ideal",
        "x^2*y*z, x*y^2*z, x*y*z^2",
        "--lam",
        "5/4",
        "--e-max",
        "3",
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["tau"] == ["x*y*z"]
    assert payload["stabilized"] is True


def test_fjn_command(capsys):
    code, out, _ = invoke(
        capsys,
        "fjn",
        "--ring",
        "poly p=5 vars=x",
        "--ideal",
        "x",
        "--interval",
        "0:2",
        "--e-max",
        "3",
    )
    assert json.loads(out)["f_jumping_numbers"] == ["1", "2"]


def test_fjn_of_the_zero_ideal_is_empty(capsys):
    # tau(0^lam) = 0 for every lam > 0, so no interval holds a jump.
    for interval in ("0:1/2", "1/2:1"):
        code, out, _ = invoke(
            capsys, "fjn", "--ring", "poly p=5 vars=x,y", "--ideal", "0", "--interval", interval
        )
        assert (code, out) == (EXIT_OK, '{"f_jumping_numbers":[]}\n'), interval


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "jumps", "--ring", "poly p=5", "--ideal", "x")
    assert code == EXIT_PARSE
    assert "parse error" in err
    code, _, err = invoke(
        capsys, "jumps", "--ring", "poly p=5 vars=x", "--ideal", "x + w"
    )
    assert code == EXIT_PARSE
    # Variable names are checked while the declaration is parsed, not later.
    for ring in ("poly p=5 vars=x,x", "poly p=5 vars=x,,y", "veronese p=5 vars=x,x degree=2"):
        code, out, err = invoke(capsys, "jumps", "--ring", ring, "--ideal", "x")
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("parse error: bad ring declaration"), ring


@pytest.mark.parametrize("ideal", ["x**2+y**3", "x^\u00b2"])
def test_malformed_polynomial_exits_2(capsys, ideal):
    code, out, err = invoke(
        capsys, "jumps", "--ring", "poly p=5 vars=x,y", "--ideal", ideal, "--level", "1"
    )
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: ")


@pytest.mark.parametrize(
    "ring,ideal",
    [
        ("semigroup p=5 gens=2,3", "x^1_0"),
        ("semigroup p=5 gens=2,3", "x^+3"),
        ("semigroup p=5 gens=2,3", "x^\u0663"),
        ("semigroup p=5 gens=2,3", "x^-0"),
        ("poly p=+5 vars=x", "x"),
        ("veronese p=5 vars=x,y degree=+2", "x^2"),
        ("semigroup p=5 gens=2,_3", "x^2"),
        ("catalog artinian_x_pow(\u0663) p=5", "x"),
    ],
)
def test_numbers_in_ascii_digits_only_exit_2(capsys, ring, ideal):
    # int() reads '1_0' as 10, '+3' and '\u0663' as 3 and '-0' as 0.
    code, out, err = invoke(capsys, "jumps", "--ring", ring, "--ideal", ideal, "--level", "1")
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("command,interval", [("roots", "0:+3/2"), ("fjn", "0:3/\u0662")])
def test_interval_ends_in_ascii_digits_only_exit_2(capsys, command, interval):
    # int() reads '+3' as 3 and '\u0662' as 2.
    code, out, err = invoke(
        capsys, command, "--ring", "poly p=5 vars=x", "--ideal", "x", "--interval", interval
    )
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: bad interval")


@pytest.mark.parametrize(
    "argv",
    [
        ["jumps", "--levels", "\u0663"],
        ["jumps", "--level", "+2"],
        ["jumps", "--level", "\u0662"],
        ["roots", "--levels", "+1"],
        ["test-ideal", "--lam", "1/2", "--e-max", "\u0663"],
        ["fjn", "--interval", "0:1", "--b-max", "0_1"],
        ["thresholds", "--levels", "+1"],
    ],
)
def test_integer_options_in_ascii_digits_only_exit_2(capsys, argv):
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        run([command, "--ring", "poly p=5 vars=x", "--ideal", "x", *rest])
    assert exc.value.code == EXIT_PARSE
    assert "invalid parse_integer value" in capsys.readouterr().err


def test_verify_example_parameters_in_ascii_digits_only_exit_2(capsys):
    for option in ("--p", "--n"):
        with pytest.raises(SystemExit) as exc:
            run(["verify-example", "9.8", option, "\u0663"])
        assert exc.value.code == EXIT_PARSE
        assert "invalid parse_integer value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ring,ideal",
    [
        ("poly p=5 vars=x", "x,,x^2,"),
        ("poly p=5 vars=x", "x^2,"),
        ("poly p=5 vars=x,y", ", x"),
        ("semigroup p=5 gens=2,3", ",x^2,,"),
        ("veronese p=5 vars=x,y degree=2", "x^2, , y^2"),
    ],
)
def test_empty_ideal_items_exit_2(capsys, ring, ideal):
    # Dropping an empty item would change r: "x,,x^2," would run as (x, x^2), r = 2.
    code, out, err = invoke(capsys, "jumps", "--ring", ring, "--ideal", ideal, "--level", "1")
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("ideal", ["x^1 0", "2 3 x"])
def test_space_inside_a_number_exit_2(capsys, ideal):
    # Read as a product, "x^1 0" would run on the zero ideal and "2 3 x" as (6x).
    code, out, err = invoke(capsys, "jumps", "--ring", "poly p=5 vars=x", "--ideal", ideal,
                            "--level", "1")
    assert (code, out) == (EXIT_PARSE, "")
    assert "between the numbers" in err


@pytest.mark.parametrize("levels", ["3", "2", "1"])
def test_level_and_levels_together_exit_2(capsys, levels):
    # Each option names the levels to run, so one of the two would be ignored.
    with pytest.raises(SystemExit) as exc:
        run(["jumps", "--ring", "poly p=5 vars=x", "--ideal", "x", "--level", "1",
             "--levels", levels])
    assert exc.value.code == EXIT_PARSE
    assert "not allowed with argument --level" in capsys.readouterr().err


def test_jumps_defaults_to_two_levels(capsys):
    code, out, _ = invoke(capsys, "jumps", "--ring", "poly p=5 vars=x", "--ideal", "x")
    assert code == EXIT_OK
    assert json.loads(out)["levels"] == {"1": [4], "2": [24]}


# int() reads '1_0' as 10 and '\u0663' as 3.
@pytest.mark.parametrize("lam", ["abc", "1/0", "1_0/7", "\u0663/2"])
def test_malformed_lambda_exits_2(capsys, lam):
    code, out, err = invoke(
        capsys, "test-ideal", "--ring", "poly p=5 vars=x", "--ideal", "x", "--lam", lam
    )
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: bad --lam")


def test_precondition_exit_code(capsys):
    code, _, err = invoke(
        capsys,
        "nu",
        "--ring",
        "poly p=5 vars=x,y",
        "--ideal",
        "y",
        "--cideal",
        "x",
    )
    assert code == EXIT_PRECONDITION
    assert "radical" in err


def test_nu_against_high_power(capsys):
    code, out, _ = invoke(
        capsys,
        "nu",
        "--ring",
        "poly p=5 vars=x",
        "--ideal",
        "x",
        "--cideal",
        "x^30",
        "--levels",
        "3",
    )
    assert code == EXIT_OK
    assert out == (
        '{"bracket":["3749/125","30"],"limit":"30","nu":{"1":149,"2":749,"3":3749}}\n'
    )


@pytest.mark.xfail(strict=True, reason="the nu limit is a guess from two recurrence pairs")
def test_nu_limit_is_the_f_threshold(capsys):
    # nu_e = ceil(3 * 2^e / 5) - 1 gives nu = 1, 2, 4 at three levels, so the
    # F-threshold of x^5 against x^3 is 3/5; the recurrence guess prints 1/2.
    code, out, _ = invoke(
        capsys,
        "nu",
        "--ring",
        "poly p=2 vars=x",
        "--ideal",
        "x^5",
        "--cideal",
        "x^3",
        "--levels",
        "3",
    )
    assert code == EXIT_OK
    assert json.loads(out)["limit"] == "3/5"


def test_catalog_ring_needs_no_ideal(capsys):
    code, out, _ = invoke(
        capsys, "jumps", "--ring", "catalog cross_xy p=3", "--level", "1"
    )
    assert code == EXIT_OK
    assert json.loads(out)["levels"] == {"1": [0, 2]}


@pytest.mark.parametrize(
    "ring", ["catalog cross_xy p=3 bogus=1", "poly p=5 vars=x degree=2"]
)
def test_declaration_with_an_unused_key_exits_2(capsys, ring):
    code, out, err = invoke(capsys, "jumps", "--ring", ring, "--ideal", "x")
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: ") and "cannot take" in err


def test_byte_identical_reruns(capsys):
    args = (
        "roots",
        "--ring",
        "veronese p=3 vars=x,y degree=2",
        "--ideal",
        "x^2, x*y, y^2",
        "--levels",
        "2",
    )
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


# Output of `bsroots verify-example ARGS` for each worked example and each
# refusal: stdout, exit code and (except for argparse's usage text) stderr.
GOLDEN = json.loads((Path(__file__).parent / "verify_example_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["args"] for case in GOLDEN])
def test_verify_example_golden(capsys, case):
    try:
        code = run(["verify-example", *case["args"].split()])
    except SystemExit as exc:  # argparse rejects an unknown id
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (case["code"], case["stdout"])
    if case["stderr"] is not None:
        assert captured.err == case["stderr"]


# Output of every catalog ring at p in {2, 3, 5, 7} (artinian n in {1, 2, 4, 7})
# for jumps, roots, thresholds and fpt: exit code, stdout and stderr.
CATALOG_GOLDEN = json.loads((Path(__file__).parent / "catalog_cli_golden.json").read_text())


@pytest.mark.parametrize(
    "case", CATALOG_GOLDEN, ids=[" ".join(case["argv"]) for case in CATALOG_GOLDEN]
)
def test_catalog_cli_golden(capsys, case):
    code, out, err = invoke(capsys, *case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("example_id", sorted(cli.EXAMPLES))
def test_verify_example_refuses_a_non_prime_p(capsys, example_id):
    # A bad p is a precondition violation for every example, 9.3 included.
    code, out, err = invoke(capsys, "verify-example", example_id, "--p", "9")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err.startswith("error: ")


def test_threshold_certificates_write_the_cli_json(capsys):
    # Merged survivors and the slack of a non-F-split engine both show here.
    ring, ideal = "semigroup p=5 gens=3,5,7", "x^3"
    code, out, _ = invoke(capsys, "thresholds", "--ring", ring, "--ideal", ideal)
    assert code == EXIT_OK
    presentation = parse_ring_declaration(ring)
    engine = cli.jump_engine(presentation, presentation.parse_ideal(ideal))
    certs = differential_thresholds(engine, levels=3)
    assert any(c.merged for c in certs) and all(c.slack for c in certs)
    assert json.loads(out)["thresholds"] == [c.to_dict() for c in certs]


def test_fpt_entry_is_the_certificates_value_part(capsys):
    ring, ideal = "semigroup p=5 gens=2,3", "x^2"
    code, out, _ = invoke(capsys, "fpt", "--ring", ring, "--ideal", ideal)
    assert code == EXIT_OK
    presentation = parse_ring_declaration(ring)
    cert = fpt(cli.jump_engine(presentation, presentation.parse_ideal(ideal)))
    value = cert.value_dict()
    assert json.loads(out)["fpt"] == value == {"num": 1, "den": 2, "certified_level": 3}
    entry = cert.to_dict()
    assert list(entry)[: len(value)] == list(value)
    assert {k: entry[k] for k in value} == value


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--denom-bound", "2"],
        ["thresholds", "--c-max", "1"],
        ["thresholds", "--b-max", "1"],
    ],
    ids=["roots --denom-bound", "thresholds --c-max", "thresholds --b-max"],
)
def test_grid_options_of_roots_and_thresholds_are_refused(capsys, argv):
    # --levels alone sets the candidate grid of roots and thresholds.
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        run([command, "--ring", "poly p=5 vars=x", "--ideal", "x", *rest])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_consecutive_runs_share_one_parser_and_no_values(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ("jumps", "--ring", "poly p=5 vars=x", "--ideal", "x")
    runs = [
        invoke(capsys, *argv, "--level", "2"),
        invoke(capsys, *argv, "--level", "1"),
        invoke(capsys, *argv),
    ]
    assert [json.loads(out)["levels"] for _, out, _ in runs] == [
        {"2": [24]},
        {"1": [4]},
        {"1": [4], "2": [24]},
    ]


@pytest.mark.parametrize("example_id", ["9.2", "9.5", "9.7"])
def test_verify_example_refuses_n_outside_9_8(capsys, example_id):
    code, out, err = invoke(capsys, "verify-example", example_id, "--n", "7")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err.startswith("error: ") and "only 9.8" in err


def test_verify_example_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-example", "9.5", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["jumps", "--level", "1"],
        ["roots", "--levels", "1"],
        ["thresholds", "--levels", "1"],
        ["fpt", "--levels", "1"],
        ["test-ideal", "--lam", "1/2"],
        ["fjn", "--interval", "0:1"],
    ],
)
def test_csv_format_only_on_nu(capsys, argv):
    # Only `nu` has a CSV form; the other commands used to print text for it.
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        run([command, "--ring", "poly p=5 vars=x", "--ideal", "x", "--format", "csv", *rest])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "example_id,built",
    [("9.2", 1), ("9.3", 1), ("9.4", 0), ("9.5", 1), ("9.6", 1), ("9.7", 1), ("9.8", 1)],
)
def test_each_worked_example_builds_one_engine(monkeypatch, example_id, built):
    # The jump, root and threshold checks of an example share one engine.
    engines = []
    build = cli.jump_engine
    monkeypatch.setattr(cli, "jump_engine", lambda *pair: engines.append(pair) or build(*pair))
    ok, _ = verify_example(example_id)
    assert ok
    assert len(engines) == built


def test_verify_example_library_entry():
    ok, lines = verify_example("9.5", p=3)
    assert ok
    assert lines[-1] == "PASS"


# A reversed interval is refused like a level count below one, not answered
# with an empty list.
REVERSED_INTERVALS = [["roots", "--interval", "1:-1"], ["thresholds", "--interval", "2:1"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--levels", "0"],
        ["roots", "--levels", "-2"],
        ["fpt", "--levels", "0"],
        ["thresholds", "--levels", "0"],
        ["nu", "--cideal", "x", "--levels", "0"],
        ["test-ideal", "--lam", "1/2", "--e-max", "0"],
        ["fjn", "--interval", "0:1", "--e-max", "0"],
        ["jumps", "--levels", "0"],
        ["jumps", "--level", "-1"],
        # The F-jumping-number grid bound b_max >= 1 goes through the same check.
        ["fjn", "--interval", "1:2", "--b-max", "0"],
    ]
    + REVERSED_INTERVALS
    + [["thresholds", "--levels", "-1"], ["fjn", "--interval", "0:1", "--b-max", "-1"]],
)
def test_level_counts_below_one_are_refused(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--ring", "poly p=5 vars=x", "--ideal", "x")
    assert code == EXIT_PRECONDITION
    assert out == ""
    refusal = "must satisfy lo <= hi" if argv in REVERSED_INTERVALS else "must be an integer >="
    assert err.startswith("error: ") and refusal in err


def test_type_error_in_a_handler_is_not_exit_one(monkeypatch):
    def broken(args):
        raise TypeError("a programming bug")

    monkeypatch.setattr(cli, "_cmd_fpt", broken)
    with pytest.raises(TypeError, match="a programming bug"):
        run(["fpt", "--ring", "poly p=5 vars=x", "--ideal", "x"])
