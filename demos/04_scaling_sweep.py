"""Time each expansion stage as the parameter count grows.

At fixed width and observable the Hessian stage dominates and should scale
roughly as K^2 in the number of rotation parameters K; the gradient stage
is linear and the eigensolve is negligible at these sizes.
"""

import numpy as np

from cliffgrad import Observable, expand, generate_hwe_ansatz

n = 8
terms = {f"Z{q} Z{q+1}": -1.0 for q in range(n - 1)}
terms |= {f"X{q}": -0.7 for q in range(n)}
obs = Observable.from_strings(n, terms)

ks, t_hess = [], []
print(f"{'depth':>5s} {'K':>4s} {'t_grad':>8s} {'t_hess':>8s} {'t_solve':>8s}")
for depth in (1, 2, 4, 8):
    circ = generate_hwe_ansatz(n, depth, 0, "real")
    res = expand(circ, obs, "0" * n, threshold=0.0)
    ks.append(circ.n_params)
    t_hess.append(res.timings["hessian_s"])
    print(
        f"{depth:5d} {circ.n_params:4d} "
        f"{res.timings['gradient_s']:8.3f} {res.timings['hessian_s']:8.3f} "
        f"{res.timings['solve_s']:8.3f}"
    )

slope = np.polyfit(np.log(ks), np.log(t_hess), 1)[0]
print(f"\nempirical Hessian-stage exponent: t_hess ~ K^{slope:.2f}")
