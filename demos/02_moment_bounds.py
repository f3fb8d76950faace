"""The two directed moments of the sampled Gaussian mechanism, the closed-form
bound that the calibration rests on, and the numerical verification report.

Run:  python3 demos/02_moment_bounds.py
"""

from udpfl.accountant import (
    MechanismParams,
    log_moment_numeric,
    moment_bound,
    regime_ratio,
    sensitivity,
    verify_accountant,
)

dl = sensitivity(eta=0.05, clip=1.0, n_samples=800)

# A round's upload is N(0, sigma^2) if the client skipped the flagged sample
# and a q-mixture if it may have used it. Privacy composes through the
# lambda-th log-moments of the likelihood ratio, taken in both directions.
print("directed log-moments vs the closed-form bound (q=0.9, sigma=0.01):")
print(f"{'lambda':>7} {'mix||base':>12} {'base||mix':>12} {'bound':>12} {'regime':>9}")
for lam in (1, 5, 20, 50, 100):
    m = MechanismParams(q=0.9, sigma=0.01, sensitivity=dl, lam=lam)
    d10 = log_moment_numeric(m, "mix||base")
    d01 = log_moment_numeric(m, "base||mix")
    print(
        f"{lam:>7} {d10:>12.6f} {d01:>12.6f} {moment_bound(m):>12.6f} "
        f"{regime_ratio(m):>9.2e}"
    )
print(
    "\nmix||base dominates base||mix, and the bound dominates both while the\n"
    "regime ratio lambda*dl^2/(2 sigma^2) stays under 0.1 -- the small-moment\n"
    "regime the bound is stated for."
)

# The full verification grid: four (q, |D_i|, U) panels x lambda = 1..100.
rows = verify_accountant()
panels = sorted({r["panel"] for r in rows})
print(f"\nverification report: {len(rows)} rows over panels {panels}")
ov = sum(r["ordering_violation"] for r in rows)
bv = sum(r["bound_violation"] for r in rows if r["bound_checked"])
print(f"ordering violations: {ov}   bound violations (in regime): {bv}")

# At q=1 there is no mixture left; both moments collapse to the same
# closed-form Gaussian value and the bound is met with equality.
m1 = MechanismParams(q=1.0, sigma=0.01, sensitivity=dl, lam=32)
print(
    f"\nq=1 collapse: mix||base = {log_moment_numeric(m1, 'mix||base'):.12f}"
    f" = bound = {moment_bound(m1):.12f}"
)
