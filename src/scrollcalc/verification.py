"""Self-verification suites behind the ``verify`` CLI subcommand.

Each suite sweeps one family of cross-checked identities over a default
grid (e <= 5, |a|, |b| <= 10, alpha, beta <= 8 unless a formula's own range
says otherwise) and reports the number of cases, any failures, and any
findings.  A *failure* means the artifact is wrong.  A *finding* is a
recorded tension between two encoded sources of truth (currently: points
where the existence decision and a monad admissibility gate disagree);
findings are printed but do not fail the run.  A suite reads its grid from
``E_MAX``, ``AB_MAX``, ``PARAM_MAX`` and ``RR_PROBES`` when it is called.

A suite counts each case through ``SuiteResult.check(condition, message,
*args)``.  The message is a ``str.format`` template and ``args`` its values;
the text ``message.format(*args)`` is built only when the case fails, so a
passing case formats nothing.

Everything is deterministic: randomized sweeps draw from ``random.Random``
with an explicit seed that is echoed in the report.
"""

from __future__ import annotations

import json
import random

from . import beilinson, chow, cohomology, instanton
from .chow import ChowClass
from .cohomology import FormalSheaf, line, omega
from .errors import Inadmissible, ScrollcalcError

DEFAULT_SEED = 20240613
E_MAX = 5
AB_MAX = 10
PARAM_MAX = 8
# The (alpha, beta) points at which chow-riemann-roch-cross evaluates chi_rr, far corner last.
RR_PROBES = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (8, 8))


class SuiteResult:
    """One suite's report: its name, the number of cases, the failure texts
    and the findings.

    Every ``check`` counts one case.  Its message is formatted, and appended
    to ``failures``, only when the case fails; the template and its values
    are not kept, so the report holds exactly these four fields.
    """

    def __init__(self, name: str):
        self.name, self.cases, self.failures, self.findings = name, 0, [], []

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str, *args) -> None:
        """Count one case; if ``condition`` is false, record ``message.format(*args)``."""
        self.cases += 1
        if not condition:
            self.failures.append(message.format(*args))


def _random_class(rng: random.Random, e: int) -> ChowClass:
    return ChowClass(e, *(rng.randint(-50, 50) for _ in range(6)))


def chow_ring_axioms(seed: int) -> SuiteResult:
    r = SuiteResult("chow-ring-axioms")
    rng = random.Random(seed)
    for e in range(9):
        for _ in range(40):
            x, y, z = (_random_class(rng, e) for _ in range(3))
            r.check(x * y == y * x, "commutativity at e={}", e)
            r.check((x * y) * z == x * (y * z), "associativity at e={}", e)
            r.check(x * (y + z) == x * y + x * z, "distributivity at e={}", e)
    return r


def chow_degree_identities(_seed: int) -> SuiteResult:
    r = SuiteResult("chow-degree-identities")
    for e in range(9):
        h = chow.hyperplane(e)
        xi, f = chow.xi_class(e), chow.f_class(e)
        r.check((h * f * f).degree() == 1, "deg((xi+f)f^2) at e={}", e)
        r.check((h ** 3).degree() == e * e + 3 * e + 3, "deg(H^3) at e={}", e)
        r.check((xi ** 3).degree() == e * e, "deg(xi^3) at e={}", e)
        r.check((xi * xi * f).degree() == e, "deg(xi^2 f) at e={}", e)
        r.check(
            ((-chow.canonical_class(e)) * chow.c2_cotangent(e)).degree() == 24,
            "deg(-K c2(Omega)) at e={}", e,
        )
        r.check(
            chow.canonical_class(e) + 2 * h == chow.divisor(e, 0, e - 1),
            "K + 2H = (e-1)f at e={}", e,
        )
        r.check(
            chow.exceptional_divisor(e) == xi - e * f, "contracted divisor at e={}", e
        )
    return r


def chow_slope_oracle(_seed: int) -> SuiteResult:
    r = SuiteResult("chow-slope-oracle")
    for e in range(7):
        h2 = chow.hyperplane(e) ** 2
        r.check(
            2 * chow.slope_mu_H(e) == (chow.divisor(e, 0, e - 1) * h2).degree(),
            "2 mu_H at e={}", e,
        )
        for a in range(-AB_MAX, AB_MAX + 1):
            for b in range(-AB_MAX, AB_MAX + 1):
                r.check(
                    chow.delta_H(e, a, b) == (chow.divisor(e, a, b) * h2).degree(),
                    "delta_H({},{},{})", e, a, b,
                )
    return r


def chow_riemann_roch_cross(seed: int) -> SuiteResult:
    """Twisted Riemann-Roch (Chow route) against the closed cubic.

    The Chow route is affine in (alpha, beta) — c2 enters the twist and the
    Riemann-Roch formula linearly — so per twist we evaluate it at probe
    points that also certify the affineness (second differences and a far
    corner), then sweep the closed form over the whole parameter box.
    """
    r = SuiteResult("chow-riemann-roch-cross")
    # Bound per call, not per module: a patched or traced chow function is
    # the one called.
    chi_instanton, chi_rr, twist_chern = chow.chi_instanton, chow.chi_rr, chow.twist_chern
    params = range(PARAM_MAX + 1)
    far_al, far_be = RR_PROBES[-1]
    for e in range(E_MAX + 1):
        probe_data = [chow.instanton_chern(e, *p) for p in RR_PROBES]
        for a in range(-AB_MAX, AB_MAX + 1):
            for b in range(-AB_MAX, AB_MAX + 1):
                d = chow.divisor(e, a, b)
                # in RR_PROBES order: (0,0), (1,0), (0,1), (2,0), (0,2), (1,1), far corner
                c0, v10, v01, v20, v02, v11, vfar = [
                    chi_rr(twist_chern(data, d)) for data in probe_data
                ]
                da = v10 - c0
                db = v01 - c0
                affine = (
                    v20 - 2 * v10 + c0 == 0
                    and v02 - 2 * v01 + c0 == 0
                    and v11 == c0 + da + db
                    and vfar == c0 + far_al * da + far_be * db
                )
                r.check(affine, "chi_rr not affine in (alpha,beta) at {}", (e, a, b))
                # the closed form over the (alpha, beta) box, alpha outer,
                # against c0 + alpha da + beta db
                bases = [c0 + al * da for al in params]
                steps = [be * db for be in params]
                closed = [chi_instanton(e, al, be, a, b) for al in params for be in params]
                ring = [base + step for base in bases for step in steps]
                r.check(closed == ring, "chi mismatch somewhere at (e,a,b)={}", (e, a, b))
    # integrality and correctness of chi_rr on random rank-2 sheaf data:
    # split sums of two line bundles and twisted Omega pullbacks cover all
    # the rank-2 Chern data this artifact ever feeds it.
    rng = random.Random(seed + 1)
    for _ in range(300):
        e = rng.randint(0, E_MAX)
        if rng.random() < 0.5:
            sheaf = FormalSheaf.of(
                e,
                [
                    (line(rng.randint(-4, 4), rng.randint(-6, 6)), 1),
                    (line(rng.randint(-4, 4), rng.randint(-6, 6)), 1),
                ],
            )
        else:
            sheaf = FormalSheaf.of(
                e, [(omega(rng.randint(-4, 4), rng.randint(-6, 6)), 1)]
            )
        try:
            r.check(
                chi_rr(sheaf.chern_data()) == sheaf.chi(),
                "chi_rr disagrees with cohomology on {}", sheaf,
            )
        except ScrollcalcError as exc:
            r.check(False, "chi_rr failed on {}: {}", sheaf, exc)
    return r


def coh_serre_duality(_seed: int) -> SuiteResult:
    r = SuiteResult("coh-serre-duality")
    for e in range(7):
        for a in range(-AB_MAX, AB_MAX + 1):
            for b in range(-AB_MAX, AB_MAX + 1):
                dual = cohomology.h_vector(e, line(-a - 2, e - 3 - b))
                ok = cohomology.h_vector(e, line(a, b)) == dual[::-1]
                r.check(ok, "line duality at {}", (e, a, b))
    return r


def coh_chi_additivity(_seed: int) -> SuiteResult:
    r = SuiteResult("coh-chi-additivity")
    for e in range(E_MAX + 1):
        for a in range(-6, 7):
            for b in range(-6, 7):
                for name, fn in cohomology.NAMED_SEQUENCES.items():
                    r.check(
                        cohomology.chi_alternating(fn(e, a, b)) == 0,
                        "chi additivity of {} at {}", name, (e, a, b),
                    )
    return r


def coh_omega_consistency(_seed: int) -> SuiteResult:
    r = SuiteResult("coh-omega-consistency")
    for e in range(E_MAX + 1):
        for a in range(-8, 9):
            for b in range(-8, 9):
                r.check(
                    3 * cohomology.chi_line(e, a, b - 1) - cohomology.chi_line(e, a, b)
                    == cohomology.h_vector(e, omega(a, b)).chi,
                    "Euler-sequence chi at {}", (e, a, b),
                )
    for k in range(-12, 13):
        euler_chi = 3 * (k * (k + 1) // 2) - (k + 1) * (k + 2) // 2
        got = sum((-1) ** i * cohomology.h_omega_p2(i, k) for i in range(3))
        r.check(got == euler_chi, "plane Omega chi at k={}", k)
    return r


def coh_nonnegativity(_seed: int) -> SuiteResult:
    r = SuiteResult("coh-nonnegativity")
    for e in range(E_MAX + 1):
        for a in range(-AB_MAX, AB_MAX + 1):
            for b in range(-AB_MAX, AB_MAX + 1):
                hs = cohomology.h_vector(e, line(a, b))
                ho = cohomology.h_vector(e, omega(a, b))
                r.check(min(hs + ho) >= 0, "negative h at {}", (e, a, b))
                if a >= 0:
                    r.check(hs[3] == 0 and ho[3] == 0, "h3 nonzero at {}", (e, a, b))
    return r


def beilinson_orthogonality(_seed: int) -> SuiteResult:
    r = SuiteResult("beilinson-orthogonality")
    for e in range(6):
        for pair in (1, 2, 3):
            report = beilinson.orthogonality_check(e, pair)
            r.check(report.ok, "pair {} at e={}: {}", pair, e, report.violations[:4])
    return r


def beilinson_strongness(_seed: int) -> SuiteResult:
    r = SuiteResult("beilinson-strongness")
    for e in range(6):
        for item in beilinson.strongness_check(e).items:
            r.check(item.ok, "{} -> {} at e={}", item.source, item.target, e)
    return r


def beilinson_monads(_seed: int) -> SuiteResult:
    r = SuiteResult("beilinson-monads")
    expected_positions = ((2, 1), (2, 2), (4, 3), (4, 4), (4, 5))
    for e in range(5):
        for alpha in range(PARAM_MAX + 1):
            for beta in range(PARAM_MAX + 1):
                for variant in (1, 2, 3):
                    try:
                        m = beilinson.monad_shape(e, alpha, beta, variant)
                    except Inadmissible:
                        continue
                    rep = beilinson.monad_consistency(m)
                    r.check(
                        rep.ok, "consistency at {} variant {}", (e, alpha, beta), variant
                    )
                    table = beilinson.beilinson_table(e, alpha, beta, variant)
                    r.check(
                        table.value_positions() == expected_positions,
                        "table positions at {} variant {}", (e, alpha, beta), variant,
                    )
                    if variant == 3:
                        pullback = all(
                            s.kind == cohomology.LINE and s.a == 0
                            for sheaf in (m.A, m.B, m.C)
                            for s, _ in sheaf.terms
                        )
                        r.check(pullback, "variant 3 not a pullback at {}", (e, beta))
    return r


def beilinson_general_monad(_seed: int) -> SuiteResult:
    r = SuiteResult("beilinson-general-monad")
    for e in range(4):
        for alpha, beta in ((0, 8), (1, 4), (2, 5), (3, 3)):
            for g in range(3):
                for d in range(3):
                    for t in range(3):
                        try:
                            m = beilinson.monad_general(e, alpha, beta, g, d, t)
                        except Inadmissible:
                            continue
                        r.check(
                            beilinson.monad_consistency(m).ok,
                            "general monad at {}", (e, alpha, beta, g, d, t),
                        )
    return r


def instanton_charge_ulrich(_seed: int) -> SuiteResult:
    r = SuiteResult("instanton-charge-ulrich")
    for e in range(E_MAX + 1):
        h = chow.hyperplane(e)
        for alpha in range(PARAM_MAX + 1):
            for beta in range(PARAM_MAX + 1):
                p = instanton.InstantonParams(e, alpha, beta)
                data = chow.instanton_chern(e, alpha, beta)
                r.check(
                    p.charge == data.c2.pairing(h),
                    "charge vs c2.H at {}", (e, alpha, beta),
                )
                if alpha >= 1:
                    r.check(
                        p.charge
                        - instanton.InstantonParams(e, alpha - 1, beta).charge
                        == e + 1,
                        "charge/alpha at {}", (e, alpha, beta),
                    )
                r.check(
                    instanton.is_ulrich_twist(p) == (chow.chi_rr(data) == 0)
                    == (chow.chi_instanton(e, alpha, beta, 0, 0) == 0),
                    "ulrich criterion at {}", (e, alpha, beta),
                )
    return r


def instanton_stability_region(_seed: int) -> SuiteResult:
    r = SuiteResult("instanton-stability-region")
    window = (-AB_MAX, AB_MAX, -AB_MAX, AB_MAX)
    for e in range(7):
        region = set(instanton.stability_test_region(e, window))
        h2 = chow.hyperplane(e) ** 2
        mu2 = (chow.divisor(e, 0, e - 1) * h2).degree()
        for a in range(-AB_MAX, AB_MAX + 1):
            for b in range(-AB_MAX, AB_MAX + 1):
                oracle = 2 * (chow.divisor(e, a, b) * h2).degree() <= -mu2
                r.check(
                    ((a, b) in region) == oracle, "region membership at {}", (e, a, b)
                )
    return r


def instanton_ext_grr(_seed: int) -> SuiteResult:
    r = SuiteResult("instanton-ext-grr")
    for e in range(7):
        for alpha in range(11):
            for beta in range(11):
                dims = instanton.ext_dimensions(e, alpha, beta)
                r.check(
                    dims.ext1_minus_ext2 == 1 - instanton.chi_end_grr(e, alpha, beta),
                    "GRR at {}", (e, alpha, beta),
                )
        r.check(
            instanton.ext_dimensions(e, 0, 12).ext1_minus_ext2
            == instanton.plane_moduli_dim(e, 12),
            "moduli dims at e={}", e,
        )
    return r


def instanton_modification(_seed: int) -> SuiteResult:
    r = SuiteResult("instanton-modification")
    for e in range(4):
        for alpha in range(e + 1, PARAM_MAX + 1):
            p = instanton.InstantonParams(e, alpha, 0)
            rep = instanton.existence_report(p)
            ext1 = rep.ext1
            for n in range(1, 6):
                p, ext1 = instanton.elementary_modification(p, ext1)
                r.check(
                    p.beta == n and ext1 == rep.ext1 + 4 * n,
                    "modification step {} at e={}, alpha={}", n, e, alpha,
                )
                r.check(
                    p.charge == instanton.InstantonParams(e, alpha, 0).charge + n,
                    "charge after {} modifications", n,
                )
                follow = instanton.existence_report(p)
                r.check(
                    follow.status == instanton.EXISTS and follow.ext1 == ext1,
                    "modification tracks the existence formula at {}", (e, alpha, n),
                )
    return r


def instanton_existence_vs_monad(_seed: int) -> SuiteResult:
    """Existence decisions against the Serre route and the earnest-monad gate.

    At an ``exists`` point (one case per point) the section construction must
    give the instanton's Chern data in its theorem range.  Unless the report
    says ``earnest: False`` the bundle may be earnest, so its first-variant
    monad multiplicities, its h^1 dimensions, must be non-negative; where the
    gate rejects, a finding records the tension and the negative candidate.
    """
    r = SuiteResult("instanton-existence-vs-monad")
    for e in range(4):
        for alpha in range(PARAM_MAX + 1):
            for beta in range(PARAM_MAX + 1):
                rep = instanton.existence_report(instanton.InstantonParams(e, alpha, beta))
                serre = rep.status == instanton.EXISTS and instanton.serre_construction(e, alpha)
                r.check(
                    not serre or serre == (chow.instanton_chern(e, alpha, 0), True),
                    "Serre route at {}", (e, alpha, beta),
                )
                if not serre or rep.earnest is False:
                    continue
                try:
                    beilinson.h1_values(e, alpha, beta, 1)
                except Inadmissible as exc:
                    r.findings.append(
                        f"exists-report vs monad gate at (e,alpha,beta)="
                        f"({e},{alpha},{beta}): {exc}"
                    )
    return r


def serialization_roundtrip(seed: int) -> SuiteResult:
    r = SuiteResult("serialization-roundtrip")
    rng = random.Random(seed + 2)
    kinds = ["chow", "sheaf", "monad", "existence"]

    def through_json(obj):
        return json.loads(json.dumps(obj.to_dict(), sort_keys=True))

    produced = 0
    while produced < 1000:
        kind = kinds[produced % len(kinds)]
        e = rng.randint(0, 4)
        if kind == "chow":
            x = _random_class(rng, e)
            r.check(ChowClass.from_dict(through_json(x)) == x, "chow roundtrip {}", x)
        elif kind == "sheaf":
            terms = [
                (
                    (line if rng.random() < 0.6 else omega)(
                        rng.randint(-3, 3), rng.randint(-5, 5)
                    ),
                    rng.randint(1, 6),
                )
                for _ in range(rng.randint(0, 4))
            ]
            s = FormalSheaf.of(e, terms)
            r.check(
                FormalSheaf.from_dict(through_json(s)) == s, "sheaf roundtrip {}", s
            )
        elif kind == "monad":
            alpha, beta = rng.randint(0, 6), rng.randint(0, 8)
            variant = rng.choice([1, 2, 3])
            if variant == 3:
                alpha = 0
            try:
                m = beilinson.monad_shape(e, alpha, beta, variant)
            except Inadmissible:
                continue
            r.check(
                beilinson.Monad.from_dict(through_json(m)) == m,
                "monad roundtrip {}", m,
            )
        else:
            p = instanton.InstantonParams(e, rng.randint(-1, 8), rng.randint(-1, 12))
            rep = instanton.existence_report(p)
            r.check(
                instanton.ExistenceReport.from_dict(through_json(rep)) == rep,
                "report roundtrip {}", rep,
            )
        produced += 1
    return r


ALL_SUITES = (
    chow_ring_axioms,
    chow_degree_identities,
    chow_slope_oracle,
    chow_riemann_roch_cross,
    coh_serre_duality,
    coh_chi_additivity,
    coh_omega_consistency,
    coh_nonnegativity,
    beilinson_orthogonality,
    beilinson_strongness,
    beilinson_monads,
    beilinson_general_monad,
    instanton_charge_ulrich,
    instanton_stability_region,
    instanton_ext_grr,
    instanton_modification,
    instanton_existence_vs_monad,
    serialization_roundtrip,
)


def run_all(seed: int = DEFAULT_SEED):
    return [suite(seed) for suite in ALL_SUITES]
