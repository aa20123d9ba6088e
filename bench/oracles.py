"""Output oracles for the benchmark's jobs, sharing no code with the package.

Closed forms (Serre, *Trees*, Ch. II), for R = F_q[t]/(f) with d = deg f:

* |SL2(R)| = q^(3d) * prod over distinct primes P | f of (1 - q^(-2 deg P));
* covolume(Gamma(f)) = |SL2(R)| / (q-1)^2, and covolume(SL2(F_q[t])) = 1/(q-1)^2;
* cusp count = ray count = |SL2(R)| / ((q-1) q^d), one cusp for SL2(F_q[t]);
* stabilizer orders of the standard vertices: q(q^2-1) at level 0 and
  (q-1) q^(n+1) at level n >= 1 for SL2(F_q[t]); in Gamma(f) the level-0
  group is trivial and level n has order q^max(0, n-d+1);
* an element of SL2(F_q[t]) with trace of t-degree k >= 1 is hyperbolic of
  translation length 2k, otherwise it fixes a vertex.

`verify` passes iff every suite it ran reports no failure. `quotient` and
`contract` outputs must also match the stdout digests in digests.json,
recorded from the package as first committed with the benchmark.

`check(job, code, stdout)` returns an Outcome: "ok", "refused" (the
documented size-guard exit 4) or "failed". A failed outcome with
`wrong=True` is an answer that contradicts its oracle, as opposed to an
operation that stopped without one.
"""

import hashlib
import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction

import fpoly

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "digests.json")) as _fh:
    DIGESTS = json.load(_fh)["digests"]


@dataclass
class Outcome:
    status: str  # "ok", "refused" or "failed"
    reason: str = ""
    wrong: bool = False


OK = Outcome("ok")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sl2_order(q, level):
    order = Fraction(q ** (3 * level["degree"]))
    for k in level["prime_degrees"]:
        order *= 1 - Fraction(1, q ** (2 * k))
    if order.denominator != 1:
        raise ValueError(f"|SL2(R)| came out as {order}: prime degrees {level['prime_degrees']} do not fit")
    return int(order)


def covolume(q, level):
    if level is None:
        return Fraction(1, (q - 1) ** 2)
    return Fraction(sl2_order(q, level), (q - 1) ** 2)


def cusp_count(q, level):
    if level is None:
        return 1
    return Fraction(sl2_order(q, level), (q - 1) * q ** level["degree"])


def vertex_order(q, level, n):
    if level is None:
        return q * (q * q - 1) if n == 0 else (q - 1) * q ** (n + 1)
    return 1 if n == 0 else q ** max(0, n - level["degree"] + 1)


def _fraction_text(x):
    return f"{x.numerator}/{x.denominator}"


# -- Laurent polynomials in pi over F_p, for the fixed-vertex check ------------------


def _parse_series(text, p):
    """A printed exact series over F_p as {pi-exponent: coefficient}."""
    out = {}
    if text.strip() == "0":
        return out
    for term in text.split("+"):
        term = term.strip()
        coeff, _, var = term.rpartition("*") if "*" in term else ("", "", term)
        if var and var[0] not in "tp":
            coeff, var = var, ""
        c = int(coeff) if coeff else 1
        if not var:
            k = 0
        else:
            m = re.fullmatch(r"([tp])(?:\^(-?\d+))?", var)
            if not m:
                raise ValueError(f"unreadable series term {term!r}")
            e = int(m.group(2) or 1)
            k = -e if m.group(1) == "t" else e
        out[k] = (out.get(k, 0) + c) % p
    return {k: c for k, c in out.items() if c}


def _lmul(a, b, p):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = (out.get(i + j, 0) + x * y) % p
    return {k: c for k, c in out.items() if c}


def _ladd(a, b, p, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = (out.get(k, 0) + sign * c) % p
    return {k: c for k, c in out.items() if c}


def _val(a):
    return min(a) if a else float("inf")


def _from_tpoly(f):
    return {-k: c for k, c in enumerate(f) if c}


def fixes_vertex(matrix, n, a, p):
    """Does [[A, B], [C, D]] fix the class of the lattice <(1, a), (0, pi^n)>?

    With M the basis matrix, M^-1 g M must be integral; its entries are
    A + B a, B pi^n, D - a B and pi^-n (C + (D - A) a - B a^2).
    """
    A, B, C, D = (_from_tpoly(e) for e in matrix)
    Ba = _lmul(B, a, p)
    corner = _ladd(_ladd(C, _lmul(_ladd(D, A, p, -1), a, p), p), _lmul(Ba, a, p), p, -1)
    return (
        _val(_ladd(A, Ba, p)) >= 0
        and _val(B) + n >= 0
        and _val(_ladd(D, Ba, p, -1)) >= 0
        and _val(corner) >= n
    )


# -- per-command checks -------------------------------------------------------------


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _check_digest(job, stdout):
    key = " ".join(job["argv"])
    want = DIGESTS.get(key)
    if want is None:
        return f"no recorded digest for {key!r}"
    if digest(stdout) != want:
        return "stdout digest differs from the recorded one"
    return None


def _check_quotient(job, stdout):
    out = _json(stdout)
    if out is None:
        return "output is not JSON"
    want = _fraction_text(covolume(job["q"], job["level"]))
    if out.get("covolume") != want:
        return f"covolume {out.get('covolume')} != closed form {want}"
    return _check_digest(job, stdout)


def _check_covolume(job, stdout):
    want = _fraction_text(covolume(job["q"], job["level"]))
    if stdout.strip() != want:
        return f"covolume {stdout.strip()!r} != closed form {want}"
    return None


def _check_cusps(job, stdout):
    out = _json(stdout)
    if out is None:
        return "output is not JSON"
    want = cusp_count(job["q"], job["level"])
    count, rays = out.get("count"), out.get("ray_count")
    if count != want or rays != want:
        return f"cusp count {count} / ray count {rays} != closed form {want}"
    if len(out.get("cusps", [])) != count or out.get("bijective") is not True:
        return "cusp list is not a bijection onto the rays"
    matches = out.get("matches", [])
    if sorted(m[0] for m in matches) != list(range(count)) or sorted(
        m[1] for m in matches
    ) != list(range(count)):
        return "cusp-ray matches are not a bijection"
    if "truncation" in job:
        if out.get("certified") is not True:
            return "independent horoballs not certified"
        if not all(isinstance(out.get(k), int) for k in ("pairs_checked", "cross_pairs_checked")):
            return "certificate lacks its pair counts"
    return None


_SUITE_LINE = re.compile(r"^(\S+): (\d+) checks, (ok|FAILED \((\d+)\))$")


def _verify_report(job, code, stdout):
    """(failed suites, inconsistency or None) for a verify run."""
    lines = stdout.splitlines()
    seen, failed, i = [], [], 0
    while i < len(lines):
        m = _SUITE_LINE.match(lines[i])
        if not m:
            return failed, f"unreadable line {lines[i]!r}"
        name, checks, count = m.group(1), int(m.group(2)), m.group(4)
        i += 1
        details = 0
        while i < len(lines) and lines[i].startswith("  "):
            details += 1
            i += 1
        if checks < 1:
            return failed, f"suite {name} ran no checks"
        if count is None and details:
            return failed, f"suite {name} is ok but lists failures"
        if count is not None:
            if int(count) != details:
                return failed, f"suite {name} reports {count} failures, lists {details}"
            failed.append(name)
        seen.append(name)
    if seen != job["suites"]:
        return failed, f"ran suites {seen}, asked for {job['suites']}"
    if code != (1 if failed else 0):
        return failed, f"exit {code} with failed suites {failed}"
    return failed, None


def _check_classify(job, stdout):
    out = _json(stdout)
    if out is None:
        return "output is not JSON"
    p, m = job["q"], job["matrix"]
    trace_deg = fpoly.degree(fpoly.add(m[0], m[3], p))
    if trace_deg >= 1:
        if out.get("kind") != "hyperbolic" or out.get("length") != 2 * trace_deg:
            return f"expected hyperbolic of length {2 * trace_deg}, got {out}"
        if "--ends" in job["argv"] and not (
            out.get("attracting") and out.get("repelling")
            and out["attracting"] != out["repelling"]
        ):
            return "axis ends missing or equal"
        return None
    if out.get("kind") != "elliptic":
        return f"expected elliptic, got {out}"
    mv = re.fullmatch(r"\((-?\d+); (.*)\)", out.get("fixed_vertex", ""))
    if not mv:
        return f"unreadable fixed vertex {out.get('fixed_vertex')!r}"
    if not fixes_vertex(m, int(mv.group(1)), _parse_series(mv.group(2), p), p):
        return f"matrix does not fix {out['fixed_vertex']}"
    return None


def _check_probe(job, stdout):
    out = _json(stdout)
    if out is None:
        return "output is not JSON"
    q, orders, levels = job["q"], out.get("orders", []), out.get("reduced_levels", [])
    if out.get("truncated_at") is not None or len(orders) != job["depth"] + 1:
        return f"walk has {len(orders)} steps, expected {job['depth'] + 1}"
    if len(levels) != len(orders) or min(levels) < 0:
        return "reduced levels do not match the walk"
    for n, order in zip(levels, orders):
        if order != vertex_order(q, job["level"], n):
            return f"order {order} at level {n} != closed form {vertex_order(q, job['level'], n)}"
    entry = next(
        (
            k
            for k in range(len(orders) - 3)
            if all(
                orders[k + j + 1] == q * orders[k + j] and levels[k + j + 1] == levels[k + j] + 1
                for j in range(3)
            )
        ),
        None,
    )
    if out.get("entry_radius") != entry or out.get("step_index") != q:
        return f"entry radius {out.get('entry_radius')} != {entry} or step index != q"
    return None


_CHECKS = {
    "quotient": _check_quotient,
    "contract": _check_quotient,
    "digest": _check_digest,
    "covolume": _check_covolume,
    "cusps": _check_cusps,
    "classify": _check_classify,
    "probe": _check_probe,
}

DOCUMENTED_CODES = {0, 1, 2, 3, 4}


def check(job, code, stdout):
    """Judge one finished job by its exit code and stdout."""
    if code == 4:
        return Outcome("refused", "size guard")
    expected = (0, 1) if job["check"] == "verify" else (0,)
    if code not in expected:
        kind = "documented" if code in DOCUMENTED_CODES else "undocumented"
        return Outcome("failed", f"exit {code} ({kind})")
    if job["check"] == "verify":
        failed, problem = _verify_report(job, code, stdout)
        if problem:
            return Outcome("failed", problem, wrong=True)
        if failed:
            return Outcome("failed", "verify suite failed: " + ",".join(failed))
        return OK
    problem = _CHECKS[job["check"]](job, stdout)
    return Outcome("failed", problem, wrong=True) if problem else OK
