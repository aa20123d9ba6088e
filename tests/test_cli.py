import json

import pytest

from sl2btree import cli
from sl2btree.errors import InsufficientPrecision, NonterminationGuard


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


def test_size_guard_exit(capsys):
    rc, _, err = run(
        capsys, ["cusps", "--lattice", "congruence", "--level", "t^5"]
    )
    assert rc == 4
    assert "SL2(R) has 24576 elements (bound 20000)" in err


def test_bad_field_exits_3(capsys):
    rc, _, err = run(capsys, ["covolume", "--q", "6"])
    assert rc == 3
    assert "not a prime power" in err
    rc, _, err = run(capsys, ["covolume", "--q", "4", "--modulus", "1,0,1"])
    assert rc == 3
    assert "reducible" in err


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
