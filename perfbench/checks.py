"""Answer checks, run outside the timed region.

Each checker returns a list of failure messages; an empty list means the
answer is right.  The Riemann-Roch reference is computed here in the Chow
ring of X_e, independently of the package's own ``chow`` module.
"""

from __future__ import annotations

import json

MIN_VERIFY_CASES = 31670


def _deg_div_div_div(e, d1, d2, d3):
    """Degree of a product of three divisors x*xi + y*f on X_e."""
    (x1, y1), (x2, y2), (x3, y3) = d1, d2, d3
    # d1*d2 = (e*x1*x2 + x1*y2 + x2*y1) xi*f + y1*y2 f^2, and
    # deg(xi * xi*f) = e, deg(f * xi*f) = deg(xi * f^2) = 1, deg(f * f^2) = 0.
    p = e * x1 * x2 + x1 * y2 + x2 * y1
    q = y1 * y2
    return x3 * p * e + x3 * q + y3 * p


def rr_chi_line(e: int, a: int, b: int) -> int:
    """chi(O(D)) for D = a*xi + b*f by Riemann-Roch on the threefold:

        chi = 1 + D^3/6 - K*D^2/4 + D*(K^2 + c2)/12

    with K = -2*xi + (e-3)*f and c2 = 6*xi*f + (3-3e)*f^2.
    """
    d = (a, b)
    k = (-2, e - 3)
    d3 = _deg_div_div_div(e, d, d, d)
    kdd = _deg_div_div_div(e, k, d, d)
    kkd = _deg_div_div_div(e, k, k, d)
    c2d = 6 * (a * e + b) + (3 - 3 * e) * a  # deg(D * c2)
    twelve = 12 + 2 * d3 - 3 * kdd + kkd + c2d
    if twelve % 12:
        raise ArithmeticError(f"Riemann-Roch gave a fraction at {(e, a, b)}")
    return twelve // 12


def check_coh(e: int, kind: str, a: int, b: int, h) -> list[str]:
    """The large-twist answer ``h = (h0, h1, h2, h3)`` for O(a,b) or Omega(a,b)."""
    bad = []
    if len(h) != 4 or any(x < 0 for x in h):
        bad.append(f"negative or missing h^i {tuple(h)}")
    elif a >= 0 and h[3] != 0:
        bad.append(f"h3 = {h[3]} for a >= 0")
    chi = h[0] - h[1] + h[2] - h[3] if len(h) == 4 else None
    if kind == "line":
        want = rr_chi_line(e, a, b)
    else:
        want = 3 * rr_chi_line(e, a, b - 1) - rr_chi_line(e, a, b)
    if chi != want:
        bad.append(f"chi {chi} != Riemann-Roch {want}")
    return [f"{kind}({a},{b}) on X_{e}: {m}" for m in bad]


def check_monad(query, out) -> list[str]:
    """One monad-roundtrip answer.  ``out`` holds what the timed query made:
    ``consistent`` (monad_consistency(...).ok), ``monad``, ``decoded`` (the
    JSON round trip), ``cells`` (the table's value cells) and ``h1`` (the
    ``h1_values`` of the table's variant, or None when they are inadmissible)."""
    bad = []
    if not out["consistent"]:
        bad.append("monad_consistency not ok")
    if out["decoded"] != out["monad"]:
        bad.append("JSON round trip changed the monad")
    if out["h1"] is None:
        if not any(v < 0 for v in out["cells"]):
            bad.append("inadmissible h1 values but no negative table cell")
    elif sorted(out["cells"]) != sorted(out["h1"]):
        bad.append(f"table cells {sorted(out['cells'])} != h1_values {sorted(out['h1'])}")
    return [f"{query}: {m}" for m in bad]


def check_cli(argv, got: tuple, want: tuple) -> list[str]:
    """``got`` and ``want`` are ``(exit code, stdout)`` of the subprocess and
    of an in-process ``cli.main`` on the same argv."""
    bad = []
    if got[0] != want[0]:
        bad.append(f"exit code {got[0]} != in-process {want[0]}")
    if got[1] != want[1]:
        bad.append("stdout differs from in-process cli.main")
    return [f"{' '.join(argv)}: {m}" for m in bad]


def check_verify(exit_code: int, stdout: str) -> tuple[list[str], dict]:
    """Failures of one verify run, and the payload (empty if unreadable)."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"verify printed no JSON (exit {exit_code})"], {}
    bad = []
    if exit_code != 0:
        bad.append(f"verify exit code {exit_code}")
    if payload.get("passed") is not True:
        bad.append("verify did not pass")
    if payload.get("total_cases", 0) < MIN_VERIFY_CASES:
        bad.append(f"total_cases {payload.get('total_cases')} < {MIN_VERIFY_CASES}")
    bad += [f"suite {s['name']} failed" for s in payload.get("suites", []) if s.get("failures")]
    return bad, payload
