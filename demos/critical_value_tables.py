#!/usr/bin/env python3
"""Critical values for the one-treated-cluster t-test, from lookup to table.

The test compares the treated cluster's effect estimate against the mean of
m control estimates, scaled by the controls' sample standard deviation.
Under the assumption that the treated standard deviation is at most rho
times the k-th smallest control standard deviation, a critical value can be
chosen so the worst-case rejection rate equals alpha exactly.
"""
import numpy as np

from stc import HeterogeneitySpec, critical_value, generate_table
from stc.critical_values import alpha_underline, c_underline, round3

# --- a single critical value ------------------------------------------------
# m = 10 controls, level 5%, benchmark k = 1 (treated sd <= rho * smallest
# control sd) with rho = 1.  k = 1 has a closed form.
spec = HeterogeneitySpec(m=10, k=1, rho=1.0)
res = critical_value(10, 0.05, spec)
print(f"m=10, alpha=0.05, k=1, rho=1  ->  cv = {res.cv:.4f}  ({res.method})")
print(f"  worst-case rejection at cv: {res.worst_case.value:.6f}")

# compare with the classical t quantile one would naively use
from stc.distributions import t_quantile

naive = t_quantile(9, 0.975)
print(f"  naive t(9) quantile: {naive:.4f}  (under-covers when rho >= 1)")

# --- k = 2 needs the optimizer ----------------------------------------------
spec2 = HeterogeneitySpec(m=10, k=2, rho=1.0)
res2 = critical_value(10, 0.05, spec2)
print(f"m=10, alpha=0.05, k=2, rho=1  ->  cv = {res2.cv:.4f}  ({res2.method}, "
      f"{res2.p_max_calls[0]} complete and {res2.p_max_calls[1]} early-exit p_max calls)")

# --- where the closed form applies --------------------------------------------
# the k = 1 closed form is exact whenever the resulting cv lands at or above
# c_underline, i.e. whenever alpha <= alpha_underline; beyond that the
# optimizer path takes over
for m in (5, 10, 25):
    print(f"m={m:3d}, rho=1: closed form exact for alpha <= "
          f"{100 * alpha_underline(m, 1.0):.2f}%  "
          f"(cv threshold = {c_underline(m, 1.0):.4f})")

# --- a publication-style table ----------------------------------------------
table = generate_table([0.05], [5, 10, 25], [0.5, 1.0, 2.0], k=1)
print("\ncritical values, alpha = 0.05, k = 1")
print("rho   " + "".join(f"m={m:<6d}" for m in (5, 10, 25)))
for rho in (0.5, 1.0, 2.0):
    row = [c for c in table.cells if c.rho == rho]
    print(f"{rho:<6.1f}" + "".join(f"{round3(c.cv):<8s}" for c in row))
