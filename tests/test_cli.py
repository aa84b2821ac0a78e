import csv
import json
import io
import time

import pytest

from sumrank.bounds import gv_max_k, singleton_max_k, sp_max_k, sp_simplified_max_k
from sumrank.cli import _COMMANDS, _build_parser, _divisors, run
from sumrank.codes import is_msrd, monte_carlo
from sumrank.genericity import min_extension_degree, msrd_prob_lb_A
from sumrank.volumes import CodeParams, volume_table

P = ["--q", "2", "--m", "2", "--eta", "2", "--ell", "2"]


def _run(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_volume_output(capsys):
    code, out = _run(["volume", *P], capsys)
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["t", "sphere", "ball"]
    spheres = [int(r[1]) for r in rows[1:]]
    assert spheres == [1, 18, 93, 108, 36]
    assert int(rows[-1][2]) == 256


def test_volume_radius_flag_and_n(capsys):
    code, out = _run(["volume", "--q", "2", "--m", "2", "--eta", "2", "--n", "4", "--radius", "1"], capsys)
    assert code == 0
    assert len(_rows(out)) == 3


def test_volume_prints_balls_over_4300_digits(capsys):
    # the last ball is q^(mn) = 2^16384, 4,933 decimal digits
    code, out = _run(["volume", "--q", "16", "--m", "32", "--eta", "32", "--ell", "4"], capsys)
    assert code == 0
    rows = _rows(out)[1:]
    assert rows[-1][2] == str(16 ** (32 * 128))
    table = volume_table(CodeParams(q=16, m=32, eta=32, ell=4))
    assert rows == [[str(t), str(table.sphere(t)), str(table.ball(t))] for t in range(129)]


def test_bounds_row_matches_library(capsys):
    params = CodeParams(q=2, m=2, eta=2, ell=2)
    code, out = _run(["bounds", *P, "--d", "3"], capsys)
    assert code == 0
    header, row = _rows(out)
    vals = dict(zip(header, row))
    assert int(vals["k_singleton"]) == singleton_max_k(params, 3)
    assert int(vals["k_sp_exact"]) == sp_max_k(params, 3)
    assert int(vals["k_sp_simplified"]) == sp_simplified_max_k(params, 3)
    assert int(vals["k_gv_exact"]) == gv_max_k(params, 3)


def test_bounds_at_a_62_bit_prime_q(capsys):
    start = time.perf_counter()
    code, out = _run(["bounds", "--q", "4611686018427387847", "--m", "1", "--eta", "1", "--ell", "2",
                      "--d", "2"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert _rows(out)[1][0] == "4611686018427387847"


def test_curve_schema_and_ranges(capsys):
    code, out = _run(["curve-sp-gv", *P, "--grid", "8"], capsys)
    assert code == 0
    rows = _rows(out)
    assert rows[0] == [
        "delta", "d",
        "R_singleton",
        "R_sp_exact", "R_sp_simplified", "R_sp_asymptotic",
        "R_gv_exact", "R_gv_simplified", "R_gv_asymptotic",
        "raw_R_sp_asymptotic", "raw_R_gv_asymptotic",
    ]
    assert len(rows) == 9
    for row in rows[1:]:
        vals = dict(zip(rows[0], row))
        n, top = 4, 4
        delta = float(vals["delta"])
        assert int(vals["d"]) == min(max(int(delta * n + 0.5), 1), top)
        for col in rows[0][2:9]:
            if vals[col] != "":
                assert 0.0 <= float(vals[col]) <= 1.0


def test_curve_xi_mode(capsys):
    code, out = _run(["curve-sp-gv", *P, "--grid", "4", "--asym-mode", "xi"], capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 5


def test_genericity_columns(capsys):
    code, out = _run(["genericity", "--q", "2", "--m", "6", "--eta", "2", "--ell", "2",
                      "--k", "2", "--with-br-upper"], capsys)
    assert code == 0
    header, row = _rows(out)
    vals = dict(zip(header, row))
    lb = msrd_prob_lb_A(CodeParams(q=2, m=6, eta=2, ell=2), 2)
    assert float(vals["raw_A"]) == pytest.approx(lb.raw_lower)
    assert float(vals["p_A"]) == pytest.approx(lb.lower)
    assert vals["p_BR_upper"] != ""
    assert 0.0 <= float(vals["p_BR_lower"]) <= float(vals["p_BR_upper"]) <= 1.0


def test_mmin_matches_library(capsys):
    code, out = _run(["mmin", "--q", "2", "--n", "8", "--k", "2"], capsys)
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["ell", "mmin_A", "mmin_U_lemma", "mmin_U_printed", "mmin_BR"]
    for row in rows[1:]:
        ell = int(row[0])
        assert int(row[1]) == min_extension_degree(2, 8, 2, ell, "A")
        assert int(row[2]) == min_extension_degree(2, 8, 2, ell, "U-lemma")
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 4, 8]


def test_mmin_reaches_a_cap_between_powers_of_two(capsys):
    # m = 9 works for ell = 4 and 8 and lies between the probes 8 and 16
    code, out = _run(["mmin", "--q", "2", "--n", "8", "--k", "2", "--bounds", "A", "--m-cap", "10"], capsys)
    assert code == 0
    assert _rows(out)[1:] == [["1", "-1", "", "", ""], ["2", "-1", "", "", ""],
                              ["4", "9", "", "", ""], ["8", "9", "", "", ""]]


def test_divisors_match_linear_scan():
    for n in range(1, 5001):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_mmin_subset_of_bounds(capsys):
    code, out = _run(["mmin", "--q", "2", "--n", "4", "--k", "2", "--bounds", "A"], capsys)
    assert code == 0
    rows = _rows(out)
    for row in rows[1:]:
        assert row[1] != "" and row[2] == "" and row[4] == ""


def test_montecarlo_matches_library(capsys):
    argv = ["montecarlo", "--q", "2", "--m", "6", "--eta", "2", "--ell", "2",
            "--k", "2", "--trials", "20", "--seed", "5", "--predicate", "msrd"]
    code, out = _run(argv, capsys)
    assert code == 0
    header, row = _rows(out)
    expected = monte_carlo(CodeParams(q=2, m=6, eta=2, ell=2), 2, 20, 5, is_msrd)
    assert int(row[1]) == expected.successes
    assert float(row[2]) == pytest.approx(expected.estimate)


def test_montecarlo_mindist_needs_d(capsys):
    argv = ["montecarlo", *P, "--k", "1", "--trials", "5", "--predicate", "mindist"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_json_format(capsys):
    code, out = _run(["bounds", *P, "--d", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["k_sp_exact"] == 1


def test_out_file_and_determinism(tmp_path):
    targets = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert run(["curve-sp-gv", *P, "--grid", "8", "--out", str(path)]) == 0
        targets.append(path.read_bytes())
    assert targets[0] == targets[1]


def test_out_unwritable_returns_1(tmp_path, capsys):
    path = tmp_path / "nope" / "x.csv"
    assert run(["volume", *P, "--out", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["volume", "--q", "2", "--m", "2", "--eta", "2"],  # only one of eta/ell/n
        ["volume", "--q", "2", "--m", "2", "--eta", "3", "--n", "4"],  # eta does not divide n
        ["volume", "--q", "2", "--m", "2", "--eta", "2", "--ell", "3", "--n", "4"],
        ["volume", "--q", "2", "--m", "2", "--ell", "0", "--n", "4"],  # not a modulus
        ["volume", "--q", "2", "--m", "2", "--eta", "0", "--n", "4"],
        ["volume", "--q", "6", "--m", "2", "--eta", "2", "--ell", "2"],  # q not a prime power
        ["volume", *P, "--radius", "-1"],
        ["bounds", *P, "--d", "9"],
        ["bounds", *P, "--d", "0"],
        ["curve-sp-gv", *P, "--grid", "0"],
        ["genericity", *P, "--k", "5"],
        ["mmin", "--q", "2", "--n", "8", "--k", "2", "--bounds", "A,Z"],
        ["mmin", "--q", "2", "--n", "8", "--k", "9"],
        ["mmin", "--q", "2", "--n", "0", "--k", "1"],
        ["mmin", "--q", "6", "--n", "8", "--k", "2"],
        ["mmin", "--q", "1", "--n", "8", "--k", "2"],
        # a prime above 3.3e24, where Miller-Rabin to bases 2..41 proves nothing
        ["bounds", "--q", str(2**89 - 1), "--m", "1", "--eta", "1", "--ell", "2", "--d", "2"],
        ["mmin", "--q", "6", "--n", "4", "--k", "2", "--bounds", ","],  # no kind computed
        ["mmin", "--q", "2", "--n", "4", "--k", "2", "--m-cap", "0"],
        ["mmin", "--q", "2", "--n", "4", "--k", "2", "--m-cap", "-5", "--bounds", ","],
        ["montecarlo", *P, "--k", "4"],
        ["montecarlo", *P, "--k", "1", "--trials", "0"],
        ["montecarlo", *P, "--k", "1", "--seed", "-1"],
        ["montecarlo", *P, "--k", "1", "--seed", str(2**64)],  # seeds are 64-bit
        ["montecarlo", *P, "--k", "1", "--predicate", "mindist", "--d", "0"],
        ["montecarlo", *P, "--k", "1", "--trials", "5", "--predicate", "mindist", "--d", "99"],
        ["montecarlo", *P, "--k", "1", "--trials", "5", "--d", "3"],  # --d without mindist
        # q^(mk) = 2^24 messages, above the 2^20 enumeration cap
        ["montecarlo", "--q", "2", "--m", "8", "--eta", "2", "--ell", "2", "--k", "3",
         "--predicate", "mindist", "--d", "2"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        # argparse prints the usage, then one line "sumrank ...: error: <message>"
        lines = err.splitlines()
        assert [line for line in lines if ": error: " in line] == lines[-1:], argv
        assert lines[-1].startswith("sumrank"), argv
    with pytest.raises(SystemExit):
        run(["mmin", "--q", "2", "--n", "0", "--k", "1"])
    assert capsys.readouterr().err.endswith("error: --n must be >= 1\n")


def _parse(parser, argv, capsys):
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_one_command_parser_reads_as_the_full_one(name, capsys):
    """run() builds the flags of the requested subcommand only; that parser
    must parse, print help and fail exactly as the one with every flag."""
    vectors = [
        [name, *P, "--k", "2", "--d", "3"],
        [name, "--q", "2", "--n", "4", "--k", "2"],
        [name, "--help"],
        ["--help", name],
        [name, "--q", "2", "--bogus"],
        [name],
        ["nonsense", name],
    ]
    for argv in vectors:
        assert _parse(_build_parser(name), argv, capsys) == _parse(_build_parser(), argv, capsys)
