"""Acceptance suite: one test per criterion, one pass/fail line each.

The matrices are desk-scale analogs of the large random test matrices;
convergence behavior is governed by the singular value interval, so each
claim carries over at reduced size. Run with ``pytest -s`` to see the
per-criterion lines.

Criterion 8 checks that the shift-invert closed-form bound dominates the
error at every k <= 80 and that the error decays at the bound's rate
-2 sqrt(sigma_min / sigma_max), fitted over k in [40, 80]. That rate is
asymptotic: for a function with branch points the best rational error
behaves like C k^(-p) rho^(-k), and a linear fit of log error over [lo, hi]
is biased by about p ln(hi/lo) / (hi - lo). Over [5, 30] that bias is
0.072 p, which accounts for the steep early slope (the scalar rational fit
of f with the same pole, no matrix involved, has slope -0.253 on [5, 30],
-0.217 on [40, 80] and -0.211 on [80, 120], tending to -log rho = -0.2007).
Over [40, 80] it is 0.017 p. The early window also lets a wrong pole
through: with xi = -10 in place of -sigma_min sigma_max (true rate -0.066)
the [5, 30] fit passes at 0.244 while the [40, 80] fit fails at 0.56.
The [5, 30] slope is still printed, as information only.
"""

import json
from pathlib import Path

import numpy as np

from gmfkrylov import (LinearOperator, PoleSequence, ScalarFunction, builtin,
                       extended_poles, gk_approximate, gk_init, gk_step,
                       gmf_apply_reference, gmf_via_transpose, odd_monomial,
                       polynomial_poles, rational_gmf_approximate, reconstruct_dense, rgk_run,
                       rho_branches, sample_h_sup, si_closed_form_bound,
                       si_optimal_pole, si_style_bound)
from gmfkrylov.harness import parse_config, run

from conftest import explicit_profile_problem, seeded_problem
from oracles import generators, project, rational_arnoldi


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>3}] {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_oracle_equivalence_at_invariance():
    # every method at k = n = 30 matches the dense oracle to 1e-9
    op, b = explicit_profile_problem(np.arange(30, 0, -1, dtype=float), 30, 30, 7)
    f = builtin("sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    poles = si_optimal_pole(1.0, 30.0, 30)
    errs = {}
    _, tr = gk_approximate(f, op, b, 30, reorth=True, reference=ref)
    errs["gk"] = tr.errors[-1]
    _, tr = rational_gmf_approximate(f, op, b, poles, 30, reference=ref)
    errs["rational_full"] = tr.errors[-1]
    _, _, tr = rgk_run(f, op, b, poles, 30, reference=ref)
    errs["rational_short"] = tr.errors[-1]
    _, tr = gmf_via_transpose(f, op, b, "rational_full", poles=poles, k_max=30,
                              reference=ref)
    errs["transpose_trick"] = tr.errors[-1]
    worst = max(errs.values())
    report("1", worst <= 1e-9,
           "worst over methods: %.2e (%s)" % (worst, errs))


def test_criterion_02_polynomial_exactness():
    op, b = seeded_problem(40, 25, "chebyshev2", 0.5, 4.0, 3)
    worst = 0.0
    for ell, k in ((1, 1), (2, 2), (3, 3), (3, 5)):
        f = odd_monomial(ell)
        ref = gmf_apply_reference(f, op.dense, b)
        _, tr = gk_approximate(f, op, b, k, reorth=True, reference=ref)
        worst = max(worst, tr.errors[-1])
    report("2", worst <= 1e-11, "worst over (l,k) pairs: %.2e" % worst)


def test_criterion_03_rational_exactness():
    op, b = seeded_problem(40, 25, "chebyshev2", 0.5, 4.0, 3)
    xis = (-1.5, -3.0)
    worst = 0.0
    for ell in (1, 2, 3):
        def f_eval(z, e=ell):
            return z ** (2 * e - 1) / ((z * z - xis[0]) * (z * z - xis[1]))

        f = ScalarFunction(f"r{ell}", f_eval)
        ref = gmf_apply_reference(f, op.dense, b)
        _, tr = rational_gmf_approximate(f, op, b, PoleSequence(xis), 3,
                                         reference=ref)
        worst = max(worst, tr.errors[-1])
    report("3", worst <= 1e-9, "worst over l in {1,2,3}: %.2e" % worst)


def test_criterion_04_interlacing():
    lo, hi = 0.5, 8.0
    worst_hi, worst_lo = hi, lo
    for seed in range(20):
        op, b = seeded_problem(30, 30, "logspace", lo, hi, seed)
        for poles in (polynomial_poles(12), extended_poles(12),
                      si_optimal_pole(lo, hi, 12)):
            fac = rational_arnoldi(op, b, poles, 12)
            sv = np.linalg.svd(project(op, fac.Q).B, compute_uv=False)
            worst_hi = max(worst_hi, sv.max())
            worst_lo = min(worst_lo, sv.min())
    ok = worst_hi <= hi + 1e-10 and worst_lo >= lo - 1e-10
    report("4", ok, "sv range [%.12f, %.12f] vs [%g, %g]" %
           (worst_lo, worst_hi, lo, hi))


def test_criterion_05_quasiseparable_structure():
    op, b = seeded_problem(40, 40, "logspace", 0.5, 8.0, 5)
    poles = PoleSequence(tuple(np.linspace(-1.0, -9.0, 15)))
    _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 15)
    Bd = reconstruct_dense(B)
    nB = np.linalg.norm(Bd, 2)
    worst_second = 0.0
    for i in range(1, 15):
        sv = np.linalg.svd(Bd[:i, i:], compute_uv=False)
        if sv.size > 1:
            worst_second = max(worst_second, sv[1])
    u, v = generators(B)
    gen_err = np.abs(np.triu(np.outer(u, v), 1) - np.triu(Bd, 1)).max()
    ok = worst_second <= 1e-8 * nB and gen_err <= 1e-9
    report("5", ok, "2nd sval %.2e (tol %.2e), generator defect %.2e" %
           (worst_second, 1e-8 * nB, gen_err))


def test_criterion_06_short_recurrence_fidelity():
    op, b = seeded_problem(200, 200, "logspace", 0.1, 10.0, 5)
    f = builtin("sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    poles = si_optimal_pole(0.1, 10.0, 30)
    ys_short, B, _ = rgk_run(f, op, b, poles, 25, reference=ref)
    fac = rational_arnoldi(op, b, poles, 20)
    B_full = project(op, fac.Q).B
    entry_dev = np.abs(reconstruct_dense(B)[:20, :20] - B_full).max()
    ys_full, _ = rational_gmf_approximate(f, op, b, poles, 25)
    nref = np.linalg.norm(ref)
    diff = max(np.linalg.norm(a - c) / nref for a, c in zip(ys_short, ys_full))
    ok = entry_dev <= 1e-8 and diff <= 1e-6
    report("6", ok, "entry dev %.2e (<=1e-8), approx diff %.2e (<=1e-6)" %
           (entry_dev, diff))


def test_criterion_07_golub_kahan_reduction():
    op, b = seeded_problem(30, 20, "chebyshev2", 1.0, 6.0, 9)
    _, B, _ = rgk_run(builtin("sqrt"), op, b, polynomial_poles(10), 10)
    state = gk_init(b)
    for _ in range(10):
        gk_step(state, op)
    dev_alpha = np.abs(np.array(B.d) - np.array(state.alpha)).max()
    dev_beta = np.abs(np.array(B.beta) - np.array(state.beta[:9])).max()
    ok = max(dev_alpha, dev_beta) <= 1e-10
    report("7", ok, "alpha dev %.2e, beta dev %.2e" % (dev_alpha, dev_beta))


def test_criterion_08_si_bound_dominance_and_rate():
    smin, smax = 0.1, 10.0
    op, b = seeded_problem(300, 300, "logspace", smin, smax, 11)
    f = builtin("sqrt_log1p_sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    xi = -smin * smax
    k_max, lo, hi = 80, 40, 80
    poles = si_optimal_pole(smin, smax, k_max)
    _, tr = rational_gmf_approximate(f, op, b, poles, k_max, reference=ref)
    nb, nref = np.linalg.norm(b), np.linalg.norm(ref)
    M = sample_h_sup(f, xi)
    errs_abs = np.array(tr.errors) * nref
    bound = np.array([si_closed_form_bound(smin, smax, M, k, norm_b=nb)
                      for k in tr.ks])
    dominated = bool(np.all(errs_abs <= bound))
    ks = np.array(tr.ks)
    le = np.log(errs_abs)

    def fit(a, z):
        window = (ks >= a) & (ks <= z)
        return np.polyfit(ks[window], le[window], 1)[0]

    slope, transient = fit(lo, hi), fit(5, 30)
    target = -2.0 * np.sqrt(smin / smax)
    rate_dev = abs(slope - target) / abs(target)
    report("8", dominated and rate_dev <= 0.25,
           "dominance=%s (k <= %d), slope over [%d, %d] %.4f vs %.4f "
           "(rel dev %.3f, tol 0.25); transient slope over [5, 30] %.4f "
           "(not asserted)" %
           (dominated, k_max, lo, hi, slope, target, rate_dev, transient))


def test_criterion_09_polynomial_bound_rate():
    smin, smax = 0.1, 10.0
    op, b = seeded_problem(400, 400, "chebyshev2", smin, smax, 1)
    f = builtin("sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    _, tr = gk_approximate(f, op, b, 300, reorth=True, reference=ref)
    rho = (smax + smin) / (smax - smin)
    target = -np.log(rho)
    ks = np.array(tr.ks)
    le = np.log(tr.errors)
    window = (ks >= 150) & (ks <= 300)
    slope = np.polyfit(ks[window], le[window], 1)[0]
    rate_dev = abs(slope - target) / abs(target)
    report("9", rate_dev <= 0.25,
           "asymptotic slope %.5f vs -log rho = %.5f (rel dev %.3f)" %
           (slope, target, rate_dev))


def test_criterion_10_si_pole_optimality_signature():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        s = rng.uniform(0.05, 2.0)
        S = s * rng.uniform(1.5, 50.0)
        b1, b2 = rho_branches(s, S, -s * S)
        worst = max(worst, abs(b1 - b2) / abs(b1))
    s, S = 0.3, 7.0
    xis = -np.geomspace(0.01, 100.0, 81) * (s * S)
    vals = [si_style_bound(s, S, xi, 1.0, 12) for xi in xis]
    i = int(np.argmin(vals))
    lo = xis[min(i + 1, len(xis) - 1)]
    hi = xis[max(i - 1, 0)]
    in_cell = lo <= -s * S <= hi
    report("10", worst <= 1e-6 and in_cell,
           "branch dev %.2e, argmin cell [%.4f, %.4f] around %.4f" %
           (worst, lo, hi, -s * S))


def test_criterion_11_rectangular_transpose_trick():
    op, b = seeded_problem(100, 150, "chebyshev2", 1e-2, 10.0, 42)
    f = builtin("sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    poles = si_optimal_pole(1e-2, 10.0, 100)
    _, tr_direct = rational_gmf_approximate(f, op, b, poles, 100, reference=ref)
    _, tr_transpose = gmf_via_transpose(f, op, b, "rational_full", poles=poles,
                                        k_max=100, reference=ref)
    e_t, e_d = tr_transpose.errors[-1], tr_direct.errors[-1]
    report("11", e_t <= 1e-9 and e_t < e_d,
           "transpose %.2e (<=1e-9), direct %.2e" % (e_t, e_d))


def test_criterion_12_wide_matrix_micro_example():
    op = LinearOperator.from_dense(np.array([[1.0, 0.0]]))
    eps = 1e-6
    b = np.array([eps, 1.0])
    q1 = (b / np.linalg.norm(b)).reshape(-1, 1)
    B1 = project(op, q1).B[0, 0]
    report("12", abs(B1 - eps) <= 1e-18, "|B1 - eps| = %.3e" % abs(B1 - eps))


def test_criterion_13_determinism(tmp_path):
    raw = {
        "name": "det",
        "seed": 11,
        "matrix": {"m": 300, "n": 300,
                   "profile": {"kind": "logspace", "lo": 0.1, "hi": 10.0}},
        "function": "sqrt_log1p_sqrt",
        "method": "rational_full",
        "poles": {"kind": "shift_invert"},
        "k_max": 40,
        "bounds": ["shift_invert"],
        "output_dir": str(tmp_path),
    }
    config = parse_config(json.loads(json.dumps(raw)))
    first = run(config)
    blobs = {t: Path(p).read_bytes() for t, p in first["traces"].items()}
    second = run(config)
    identical = all(Path(p).read_bytes() == blobs[t]
                    for t, p in second["traces"].items())
    report("13", identical, "trace files byte-identical across re-runs")
