"""Acceptance criterion 11: the nonlinear flow against exact traveling waves.

ETDRK4 and Strang step the y-constant waves of ``test_solver.wave_case`` to
T = 1 at dt = 4e-3, 2e-3 and 1e-3, and each final field is compared with the
exact translate.  The 30 runs take 13-18 s on a 2-CPU x86-64 host, so
the Tier-1 suite does not collect this file (its name does not match
``test_*.py``); CI runs it in its own step:

    python -m pytest -q -s tests/criterion11_waves.py
"""

import numpy as np
import pytest

from gbozk.spectral import RealField2D

from test_acceptance import report
from test_solver import _final, _max_rel, wave_case

# maximum relative error at dt = 1e-3, (ETDRK4, Strang): twice the errors
# ROADMAP item 20 recorded (512 x 8 on box 64 at a = 0 and 1, 1024 x 8 on
# box 128 between)
BOUNDS = {
    0.0: (1.04e-13, 3.34e-8),
    0.25: (7.6e-12, 3.86e-7),
    0.5: (2.8e-12, 2.76e-7),
    0.75: (1.52e-12, 2.4e-7),
    1.0: (1.08e-12, 2.38e-7),
}
DTS = (4e-3, 2e-3, 1e-3)


@pytest.mark.parametrize("integrator", ["etdrk4", "strang"])
@pytest.mark.parametrize("a", sorted(BOUNDS))
def test_error_and_order_against_the_exact_translate(a, integrator):
    g, u_at = wave_case(a)
    u0, exact = RealField2D(g, u_at(0.0)), u_at(1.0)
    errs = np.array([_max_rel(_final(u0, dt, 1.0, a, integrator), exact) for dt in DTS])
    orders = np.log2(errs[:-1] / errs[1:])
    if integrator == "etdrk4":
        # the first halving only: at a = 0 the dt = 1e-3 error (5e-14) is at
        # the round-off floor
        bound, order_ok = BOUNDS[a][0], abs(orders[0] - 4.0) < 0.1
    else:
        bound, order_ok = BOUNDS[a][1], bool(np.all(np.abs(orders - 2.0) < 0.05))
    ok = order_ok and errs[-1] < bound
    report(11, ok, f"a = {a}, {integrator}: error at dt = 1e-3 {errs[-1]:.3e} "
                   f"(bound {bound:.3g}), orders {np.round(orders, 3).tolist()}")
    assert ok
