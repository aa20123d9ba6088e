import signal
from contextlib import contextmanager

import pytest

from sl2btree import cli
from sl2btree.errors import InvalidInputError
from sl2btree.field import field
from sl2btree.literals import (
    format_end,
    format_matrix,
    format_series,
    format_vertex,
    parse_end,
    parse_matrix,
    parse_series,
    parse_vertex,
)
from sl2btree.series import LaurentSeries
from sl2btree.tree import RationalEnd, TruncatedEnd, UpEnd


F = field(2)
F3 = field(3)


@contextmanager
def within_seconds(seconds):
    """Fail the block, rather than wait on it, once it runs past `seconds`."""

    def stop(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_series_grammar():
    assert parse_series(F, "0") == LaurentSeries.zero(F)
    assert parse_series(F, "1") == LaurentSeries.one(F)
    assert parse_series(F, "t") == LaurentSeries.pi_power(F, -1)
    assert parse_series(F, "p^3") == LaurentSeries.pi_power(F, 3)
    assert parse_series(F, "p^-2") == parse_series(F, "t^2")
    assert parse_series(F, "t^-1") == LaurentSeries.pi_power(F, 1)
    assert parse_series(F, "1+t+t^3") == LaurentSeries.exact(F, {0: 1, -1: 1, -3: 1})
    assert parse_series(F, " t^2 + t ") == parse_series(F, "t^2+t")
    assert parse_series(F3, "2*t+1") == LaurentSeries.exact(F3, {-1: 2, 0: 1})
    assert parse_series(F3, "t-1") == LaurentSeries.exact(F3, {-1: 1, 0: 2})


def test_series_canonical_output_is_descending():
    assert format_series(parse_series(F, "1+t+t^3")) == "t^3+t+1"
    assert format_series(parse_series(F, "p^2+p")) == "p+p^2"
    assert format_series(parse_series(F, "t^2+p^3")) == "t^2+p^3"


def test_series_roundtrip():
    for text in ("0", "1", "t^3+t+1", "p+p^4", "t^2+1+p^3", "2*t^2+t+2"):
        s = parse_series(F3, text)
        assert parse_series(F3, format_series(s)) == s


def test_extension_coefficient_brackets():
    F4 = field(4)
    s = parse_series(F4, "[x+1]*t^2+[x]*t+1")
    assert s.coefficient(-2) == F4.gen + F4.element(1)
    assert s.coefficient(-1) == F4.gen
    assert s.coefficient(0) == F4.element(1)
    assert parse_series(F4, format_series(s)) == s
    assert format_series(s) == "[1+x]*t^2+[x]*t+1"


def test_series_rejects_garbage():
    for bad in ("", "q", "t^", "1+", "t**2"):
        with pytest.raises(InvalidInputError):
            parse_series(F, bad)


def test_vertex_literals():
    v = parse_vertex(F, "(3; 1+t)")
    assert v.level == 3
    assert format_vertex(v) == "(3; t+1)"
    assert parse_vertex(F, "(-2; p^-3)").level == -2
    assert parse_vertex(F, "( 0 ; 0 )") == parse_vertex(F, "(0; 0)")
    # the residue is canonicalized modulo pi^level
    assert parse_vertex(F, "(2; 1+p^5)") == parse_vertex(F, "(2; 1)")
    with pytest.raises(InvalidInputError):
        parse_vertex(F, "(3, 1)")
    with pytest.raises(InvalidInputError):
        parse_vertex(F, "3; 1")


def test_end_literals():
    assert isinstance(parse_end(F, "up"), UpEnd)
    zero = parse_end(F, "rat(0, 1)")
    assert isinstance(zero, RationalEnd)
    assert format_end(zero) == "rat(0, 1)"
    e = parse_end(F, "rat(1, t^2+t+1)")
    assert format_end(e) == "rat(1, t^2+t+1)"
    tr = parse_end(F, "trunc(p+p^3, 6)")
    assert isinstance(tr, TruncatedEnd)
    assert tr.known_depth() == 6
    assert format_end(tr) == "trunc(p+p^3, 6)"


def test_end_normalization():
    assert parse_end(F, "rat(t, t^2)") == parse_end(F, "rat(1, t)")
    assert isinstance(parse_end(F, "rat(1, 0)"), UpEnd)
    with pytest.raises(InvalidInputError):
        parse_end(F, "rat(0, 0)")
    # the constant 1 has no digit below pi^0
    assert parse_end(F, "trunc(1, 0)") == parse_end(F, "trunc(0, 0)")
    with pytest.raises(InvalidInputError):
        parse_end(F, "sideways")


def test_end_literals_below_horizon_one():
    # the action builds such ends: diag(pi, 1/pi) lowers the horizon by two
    g = parse_matrix(F, "[[p,0],[0,p^-1]]")
    end = g.act_end(g.act_end(g.act_end(parse_end(F, "trunc(1+p^3, 5)"))))
    assert (format_end(end), end.known_depth()) == ("trunc(t^6+t^3, -1)", -1)
    assert parse_end(F, format_end(end)) == end
    end = TruncatedEnd(F, LaurentSeries(F, {-3: F.one}, 0))
    assert format_end(end) == "trunc(t^3, 0)"
    assert parse_end(F, "trunc(t^3, 0)") == end


def test_matrix_literals():
    g = parse_matrix(F, "[[1,t],[0,1]]")
    assert format_matrix(g) == "[[1,t],[0,1]]"
    h = parse_matrix(F, "[[p^-1, 0], [0, p]]")
    assert format_matrix(h) == "[[t,0],[0,p]]"
    assert parse_matrix(F, format_matrix(g)) == g
    with pytest.raises(InvalidInputError):
        parse_matrix(F, "[[1,0],[0,0]]")  # singular
    with pytest.raises(InvalidInputError):
        parse_matrix(F, "[[1,0],[0,1]")
    with pytest.raises(InvalidInputError):
        parse_matrix(F, "[[1,0,0],[0,1,0]]")


# A matrix literal has exactly one comma between its rows.
MALFORMED_MATRICES = ["[[1,0][0,1]]", "[[1,0],,,[0,1]]", "[,[1,0],[0,1]]", "[[1,0],[0,1],]"]


@pytest.mark.parametrize("text", MALFORMED_MATRICES)
def test_malformed_matrices_are_refused(text):
    with pytest.raises(InvalidInputError):
        parse_matrix(F, text)


@pytest.mark.parametrize(
    "argv",
    [[text] for text in MALFORMED_MATRICES] + [["[[[[x]]*t,0],[0,1]]", "--q", "4"]],
)
def test_classify_refuses_malformed_matrices(capsys, argv):
    rc = cli.main(["classify", *argv])
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("q", [4, 9])
def test_bracketed_coefficients_inside_matrix_entries(q):
    g = parse_matrix(field(q), "[[[x+1]*t,1],[0,[x]]]")
    assert format_matrix(g) == "[[[1+x]*t,1],[0,[x]]]"


@pytest.mark.parametrize("q", [2, 3, 5])
def test_x_over_a_prime_field_is_refused(q):
    Fq = field(q)
    for text in ("x", "t+x", "[x+1]*t", "[2*x^2]*p"):
        with pytest.raises(InvalidInputError, match=f"no generator of the prime field F_{q}"):
            parse_series(Fq, text)
    with pytest.raises(InvalidInputError, match="no generator"):
        parse_matrix(Fq, "[[x,0],[0,x]]")
    # bracketed integers still name elements of the prime field
    assert parse_series(Fq, "[2]*t+[1+1]") == parse_series(Fq, "2*t+2")
    assert parse_matrix(Fq, "[[[1],0],[0,[1]]]") == parse_matrix(Fq, "[[1,0],[0,1]]")


@pytest.mark.parametrize(
    "argv",
    [
        ["covolume", "--q", "3", "--lattice", "congruence", "--level", "t+x"],
        ["classify", "[[x,0],[0,x]]", "--q", "3"],
        ["probe", "rat(1, t+[x])", "--q", "3"],
    ],
)
def test_x_over_a_prime_field_exits_3(capsys, argv):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err == "error: x names no generator of the prime field F_3\n"


@pytest.mark.parametrize("q", [4, 9])
def test_generator_powers_are_reduced_mod_q_minus_1(q):
    Fq = field(q)
    power = Fq.one
    for k in range(3 * (q - 1)):
        assert parse_series(Fq, f"[x^{k}]") == LaurentSeries.exact(Fq, {0: power})
        power = power * Fq.gen
    k = 99999999999
    with within_seconds(1.0):
        s = parse_series(Fq, f"[x^{k}]*t")
    assert s == parse_series(Fq, f"[x^{k % (q - 1)}]*t")
