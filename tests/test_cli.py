import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from sl2btree import cli, errors
from sl2btree.errors import InsufficientPrecision, NonterminationGuard
from sl2btree.field import MAX_Q, field
from sl2btree.literals import parse_end, parse_matrix


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_covolume_nagao(capsys):
    rc, out, err = run(capsys, ["covolume"])
    assert (rc, out, err) == (0, "1/1\n", "")


def test_covolume_q3(capsys):
    rc, out, _ = run(capsys, ["covolume", "--q", "3"])
    assert rc == 0 and out == "1/4\n"


def test_covolume_congruence(capsys):
    rc, out, _ = run(
        capsys, ["covolume", "--lattice", "congruence", "--level", "t"]
    )
    assert rc == 0 and out == "6/1\n"


def test_classify_hyperbolic(capsys):
    rc, out, _ = run(capsys, ["classify", "[[p^-1,0],[0,p]]"])
    assert rc == 0
    assert out == '{"kind":"hyperbolic","length":2}\n'


def test_classify_with_ends(capsys):
    rc, out, _ = run(capsys, ["classify", "[[p^-1,0],[0,p]]", "--ends", "4"])
    assert rc == 0
    assert out == (
        '{"kind":"hyperbolic","length":2,'
        '"attracting":"rat(0, 1)","repelling":"up"}\n'
    )


@pytest.mark.parametrize(
    "matrix,ends",
    [
        # an exact-zero off-diagonal entry keeps an end exact
        ("[[t mod p^3,0],[0,p]]", ("rat(0, 1)", "up")),
        ("[[t,1],[0,p mod p^3]]", ("rat(0, 1)", "trunc(t+p, 3)")),
        ("[[t,0],[1,p mod p^3]]", ("trunc(p+p^3, 5)", "up")),
        # the power's candidate end is known to fewer digits than asked for
        ("[[t,1 mod p^4],[1,0]]", None),
        ("[[t,1 mod p^9],[1,0]]", ("trunc(p, 3)", "trunc(t+p, 3)")),
    ],
)
def test_classify_ends_of_a_matrix_with_an_inexact_entry(capsys, matrix, ends):
    rc, out, err = run(capsys, ["classify", matrix, "--ends", "3"])
    if ends is None:
        assert (rc, out) == (2, "") and "needs the input mod pi^5" in err
        return
    assert (rc, err) == (0, "")
    attracting, repelling = ends
    assert out == (
        '{"kind":"hyperbolic","length":2,'
        f'"attracting":"{attracting}","repelling":"{repelling}"}}\n'
    )


def test_classify_elliptic(capsys):
    rc, out, _ = run(capsys, ["classify", "[[1,1],[0,1]]"])
    assert rc == 0
    assert out == '{"kind":"elliptic","fixed_vertex":"(0; 0)"}\n'


def test_classify_singular_matrix(capsys):
    rc, out, err = run(capsys, ["classify", "[[1,1],[1,1]]"])
    assert rc == 3
    assert out == ""
    assert err == "error: matrix is singular\n"


def test_cusps_level_t(capsys):
    rc, out, _ = run(
        capsys, ["cusps", "--lattice", "congruence", "--level", "t"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["cusps"] == [
        {"end": "up", "parameter_multiple": "t", "stabilizer_index": 1},
        {"end": "rat(0, 1)", "parameter_multiple": "t", "stabilizer_index": 1},
        {"end": "rat(1, 1)", "parameter_multiple": "t", "stabilizer_index": 1},
    ]
    assert data["matches"] == [[0, 0], [1, 1], [2, 2]]
    assert data["bijective"] is True


def test_cusps_with_certification(capsys):
    rc, out, _ = run(capsys, ["cusps", "--q", "2", "--truncation", "6"])
    assert rc == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert data["pairs_checked"] == 106
    assert data["cross_pairs_checked"] == 0


def test_cusps_rejects_a_negative_truncation(capsys):
    rc, out, err = run(capsys, ["cusps", "--q", "2", "--truncation", "-2"])
    assert (rc, out) == (3, "")
    assert err == "error: horoball truncation must be >= 0, got -2\n"


def test_cusps_with_truncation_zero(capsys):
    rc, out, _ = run(capsys, ["cusps", "--q", "2", "--truncation", "0"])
    assert rc == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert data["pairs_checked"] == 1


def test_verify_selected_suites(capsys):
    rc, out, _ = run(
        capsys, ["verify", "--suites", "busemann-cocycle,distance-bfs"]
    )
    assert rc == 0
    assert out == "busemann-cocycle: 36 checks, ok\ndistance-bfs: 10 checks, ok\n"


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, ["verify", "--suites", "nope"])
    assert rc == 3
    assert "unknown suites" in err


@pytest.mark.parametrize("value", [",", "", " , "])
def test_verify_suites_naming_no_suite(capsys, value):
    rc, out, err = run(capsys, ["verify", "--suites", value])
    assert (rc, out) == (3, "")
    assert err.startswith("error: --suites names no suite; known: busemann-cocycle, ")
    assert err.endswith(", horoball-union\n")


def test_probe_json_shape(capsys):
    rc, out, _ = run(capsys, ["probe", "rat(0, 1)", "--depth", "6"])
    assert rc == 0
    data = json.loads(out)
    assert data["orders"] == [6, 4, 8, 16, 32, 64, 128]
    assert data["reduced_levels"] == list(range(7))
    assert data["entry_radius"] == 1
    assert data["truncated_at"] is None
    assert set(data) == {
        "orders",
        "reduced_levels",
        "entry_radius",
        "step_index",
        "truncated_at",
    }


def test_probe_max_order_exceeded(capsys):
    rc, out, _ = run(
        capsys, ["probe", "rat(0, 1)", "--depth", "6", "--max-order", "20"]
    )
    assert rc == 1
    assert json.loads(out)["bounded"] is False


def test_probe_max_order_respected(capsys):
    rc, out, _ = run(
        capsys,
        ["probe", "trunc(p+p^3+p^7, 10)", "--depth", "9", "--max-order", "20"],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["bounded"] is True and data["max_order"] == 20


def test_quotient_json(capsys):
    rc, out, _ = run(capsys, ["quotient", "--depth", "3"])
    assert rc == 0
    assert out.startswith("{\n  ")  # indent=2
    data = json.loads(out)
    assert data["lattice"] == {"kind": "nagao", "q": 2}
    assert data["vertices"][0] == {"id": "L0", "level": 0, "order": 6, "q": 2}
    assert data["covolume"] is None  # depth 3 cannot certify the tail


def test_contract_dot(capsys):
    rc, out, _ = run(capsys, ["contract", "--format", "dot"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "graph quotient {"
    assert "  node [shape=circle];" in lines
    assert '  "L0" [label="L0\\n6"];' in lines
    assert '  "cusp0" [shape=doublecircle, label="cusp0\\ninfinite"];' in lines
    assert '  "L0" -- "cusp0" [label="2"];' in lines
    assert lines[-1] == "}"


def test_contract_json(capsys):
    rc, out, _ = run(capsys, ["contract"])
    assert rc == 0
    data = json.loads(out)
    cusp = [v for v in data["vertices"] if v["id"] == "cusp0"][0]
    assert cusp == {"id": "cusp0", "level": 1, "order": "infinite", "q": 2}
    edge = data["edges"][0]
    assert edge["from"] == "L0" and edge["to"] == "cusp0"
    assert edge["edge_order"] == 2
    assert edge["idx_from"] == 3 and edge["idx_to"] == "infinite"
    assert data["rays"] == []
    assert data["covolume"] == "1/1"


def test_uncertified_tail_exit(capsys):
    rc, out, err = run(capsys, ["covolume", "--depth", "2"])
    assert rc == 1
    assert out == ""
    assert "lacks three nested index-q steps" in err


@pytest.mark.parametrize(
    "q,level,depth,top",
    [(2, "t^2", 1, "L1C0"), (2, "t^3", 2, "L2C0"), (2, "t^4+t+1", 3, "L3C0"),
     (3, "t^2", 1, "L1C0"), (4, "t^2", 1, "L1C0")],
)
def test_covolume_below_the_tails_exits_1(capsys, q, level, depth, top):
    # below depth deg f no top vertex has a single down-edge: the tails are
    # not in the graph, and the finite edge sum alone is too small
    argv = ["covolume", "--q", str(q), "--lattice", "congruence", "--level", level]
    rc, out, err = run(capsys, [*argv, "--depth", str(depth)])
    assert (rc, out) == (1, "")
    assert f"vertex {top} at depth {depth} heads no ray" in err


def test_quotient_json_has_no_covolume_below_the_tails(capsys):
    argv = ["quotient", "--lattice", "congruence", "--level", "t^2", "--depth", "1"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert json.loads(out)["covolume"] is None


def test_size_guard_exit(capsys):
    rc, _, err = run(
        capsys, ["cusps", "--lattice", "congruence", "--level", "t^5"]
    )
    assert rc == 4
    assert "SL2(R) has 24576 elements (bound 20000)" in err


@pytest.fixture
def digit_limit():
    """Python's default limit on the digits of an int printed as text."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv,named",
    [
        ("quotient --q 9 --depth 4600", "quotient --depth 4600"),
        ("quotient --q 9 --depth 4600 --format dot", "quotient --depth 4600"),
        ("probe up --q 9 --depth 4600", "probe --depth 4600"),
        ("quotient --q 9 --depth 4505", "quotient --depth 4505"),
    ],
)
def test_orders_past_the_printable_digits_exit_4(capsys, digit_limit, argv, named):
    rc, out, err = run(capsys, argv.split())
    assert (rc, out) == (4, "")
    assert err == (
        f"error: {named} can print stabilizer orders of more than 4300 digits "
        "(bound: depth 4504)\n"
    )


def test_deep_quotients_answer_up_to_the_printable_bound(capsys, digit_limit):
    # the order at level 4504 over F_9 is 8 * 9^4505, of 4300 digits
    rc, out, _ = run(capsys, ["probe", "up", "--q", "9", "--depth", "4504"])
    assert rc == 0
    assert len(str(json.loads(out)["orders"][-1])) == 4300
    # covolume and contract print no order of the deep levels
    rc, out, _ = run(capsys, ["covolume", "--q", "9", "--depth", "4600"])
    assert (rc, out) == (0, "1/64\n")
    rc, out, _ = run(capsys, ["contract", "--q", "9", "--depth", "4600"])
    assert rc == 0 and json.loads(out)["depth"] == 4600
    rc, _, err = run(capsys, ["quotient", "--depth", "14284"])
    assert (rc, err[-21:]) == (4, "(bound: depth 14283)\n")


def test_unbounded_horoball_exits_4(capsys):
    rc, out, err = run(capsys, ["cusps", "--truncation", "60"])
    assert (rc, out) == (4, "")
    assert err == (
        "error: horoellipse within distance 60 of (1; 0) has at least 20002 "
        "members (bound 20000)\n"
    )


def test_bad_field_exits_3(capsys):
    rc, _, err = run(capsys, ["covolume", "--q", "6"])
    assert rc == 3
    assert "not a prime power" in err
    rc, _, err = run(capsys, ["covolume", "--q", "4", "--modulus", "1,0,1"])
    assert rc == 3
    assert "reducible" in err


@pytest.mark.parametrize("modulus", ["", " ", ","])
def test_malformed_modulus_exits_3(capsys, modulus):
    # an empty modulus is malformed too, not a request for the default one
    rc, out, err = run(capsys, ["covolume", "--q", "4", "--modulus", modulus])
    assert (rc, out) == (3, "")
    assert err == (
        "error: --modulus takes comma-separated integer coefficients, constant term first\n"
    )


def test_usage_errors_exit_3():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 3
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 3


def test_main_builds_the_parser_at_most_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(20):
        assert run(capsys, ["covolume"]) == (0, "1/1\n", "")
    assert len(builds) <= 1


@pytest.mark.parametrize(
    "argv,code",
    [(["covolume", "--depth", "x"], 3), (["--help"], 0), (["covolume", "--help"], 0)],
)
def test_reused_parser_reports_as_a_fresh_one(capsys, argv, code):
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(argv)
    assert fresh.value.code == code
    expected = capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == code
        assert capsys.readouterr() == expected


def test_precision_failures_exit_2(monkeypatch, capsys):
    def boom(args):
        raise InsufficientPrecision("series digits were exhausted")

    monkeypatch.setattr(cli, "_cmd_covolume", boom)
    rc, out, err = run(capsys, ["covolume"])
    assert rc == 2
    assert "series digits were exhausted" in err


def test_self_check_failure_exits_5(monkeypatch, capsys):
    def boom(args):
        raise NonterminationGuard("constructive lift failed to check")

    monkeypatch.setattr(cli, "_cmd_covolume", boom)
    rc, out, err = run(capsys, ["covolume"])
    assert (rc, out) == (5, "")
    assert "internal self-check failed: constructive lift failed to check" in err


# the exit codes documented in the cli module docstring, per error class
DOCUMENTED_EXIT_CODES = {
    "UncertifiedTail": 1,
    "InsufficientPrecision": 2,
    "IndeterminateValuation": 2,
    "EndPrecisionExhausted": 2,
    "InvalidInputError": 3,
    "EqualEndsError": 3,
    "DoesNotFixEnd": 3,
    "NotFixingError": 3,
    "NotTypePreserving": 3,
    "SizeGuardExceeded": 4,
    "NonterminationGuard": 5,
}


def test_every_error_class_exits_with_its_documented_code(monkeypatch, capsys):
    classes = errors.Sl2BTreeError.__subclasses__()
    assert sorted(c.__name__ for c in classes) == sorted(DOCUMENTED_EXIT_CODES)
    for cls in classes:

        def boom(args):
            raise cls("it broke")

        monkeypatch.setattr(cli, "_cmd_covolume", boom)
        rc, out, err = run(capsys, ["covolume"])
        prefix = "internal self-check failed: " if cls is NonterminationGuard else ""
        assert rc == DOCUMENTED_EXIT_CODES[cls.__name__]
        assert (out, err) == ("", f"error: {prefix}it broke\n")


def test_unwritable_out_exits_3(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x", tmp_path):
        rc, out, err = run(capsys, ["covolume", "--out", str(target)])
        assert (rc, out) == (3, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_huge_field_sizes_exit_4_at_once(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, ["covolume", "--q", "2147483647"])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (4, "")
    assert err == f"error: field size q = 2147483647 exceeds the bound {MAX_Q}\n"


def test_reducible_modulus_exits_3_at_once(capsys):
    # x^10 + 1 = (x^5 + 1)^2 over F_2; refused before any power of a candidate is built
    modulus = (1,) + (0,) * 9 + (1,)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["covolume", "--q", "1024", "--modulus", ",".join(map(str, modulus))])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (3, "")
    assert err == f"error: modulus {modulus} is reducible over F_2\n"


def test_negative_probe_depth_exits_3(capsys):
    rc, out, err = run(capsys, ["probe", "up", "--depth", "-1"])
    assert (rc, out) == (3, "")
    assert "depth" in err


def test_nonpositive_end_depth_exits_3(capsys):
    # -2 used to loop without returning; 0 asks for no digit of either end
    for ends in ("-2", "0"):
        for matrix in ("[[t,1],[1,0]]", "[[1,t],[0,1]]"):
            rc, out, err = run(capsys, ["classify", matrix, "--ends", ends])
            assert (rc, out) == (3, "")
            assert "end depth must be >= 1" in err


@pytest.mark.parametrize("q", [2, 3])
def test_classify_certifies_deep_ends(capsys, q):
    # the candidate read off g^k shares k times the length 2 digits with the
    # end, less one, so depth 1 100 is read off the one power g^551
    F = field(q)
    g = parse_matrix(F, "[[t,1],[1,0]]")
    ends = {}
    for depth in ("6", "1100"):
        rc, out, err = run(capsys, ["classify", "[[t,1],[1,0]]", "--q", str(q), "--ends", depth])
        assert (rc, err) == (0, "")
        answer = json.loads(out)
        ends[depth] = [parse_end(F, answer[key]) for key in ("attracting", "repelling")]
    for shallow, deep in zip(ends["6"], ends["1100"]):
        w = deep.y
        assert w.prec == 1100
        # a fixed end w of g solves b w^2 + (a - d) w - c = 0
        residual = g.b * w * w + (g.a - g.d) * w - g.c
        assert not residual.has_terms() and residual.prec >= 1099
        assert w.reduce_precision(6) == shallow.y


def test_classify_reads_a_deep_end_of_a_precise_inexact_matrix(capsys):
    # depth 1 100 is read off g^551, and the entry's 3 000 digits leave that
    # power the digits it needs, so the ends are those of the exact matrix
    _, exact, _ = run(capsys, ["classify", "[[t,1],[1,0]]", "--ends", "1100"])
    rc, out, err = run(capsys, ["classify", "[[t,1 mod p^3000],[1,0]]", "--ends", "1100"])
    assert (rc, err) == (0, "")
    assert out == exact


def test_classify_refuses_an_end_beyond_the_power_bound(capsys):
    # depth 2 000 000 needs g^1000001, past the bound 2^19, refused before any product
    start = time.perf_counter()
    rc, out, err = run(capsys, ["classify", "[[t,1],[1,0]]", "--ends", "2000000"])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (4, "")
    assert "g^1000001" in err and f"g^{2**19}" in err


def test_out_writes_a_file(tmp_path, capsys):
    target = tmp_path / "cov.txt"
    rc, out, _ = run(capsys, ["covolume", "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert target.read_text() == "1/1\n"


def test_congruence_requires_a_level(capsys):
    rc, _, err = run(capsys, ["covolume", "--lattice", "congruence"])
    assert rc == 3
    assert "level" in err


@pytest.mark.parametrize(
    "command", [["quotient"], ["covolume"], ["cusps"], ["contract"], ["probe", "rat(0, 1)"]]
)
@pytest.mark.parametrize("lattice", [[], ["--lattice", "nagao"]])
def test_level_without_congruence_exits_3(capsys, command, lattice):
    rc, out, err = run(capsys, [*command, *lattice, "--level", "t"])
    assert rc == 3
    assert out == ""
    assert "--level" in err


# strings with the characters the writer's markers and brackets could clash with
TEXT = st.text(st.sampled_from(["\0", ",", "{", "}", "[", "]", "\n", '"', "\\", "a", "\u00e9", "\u2028"]))
SCALARS = st.none() | st.booleans() | st.integers() | TEXT | st.text(max_size=4)
FLAT_RECORDS = st.lists(st.dictionaries(TEXT, SCALARS, min_size=1, max_size=4), max_size=4)
JSON_VALUES = st.recursive(
    SCALARS | FLAT_RECORDS,
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(obj=JSON_VALUES)
def test_json_text_is_json_dumps_with_indent_2(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)
