"""How fast the lagged mode covariance q(t, t+h) reaches its Matern-type limit.

Writes temporal_matern_study.csv with the exact covariance at increasing base
times against the limiting curve, for a few fractional orders. The gap decays
like e^{-2 mu t}, so double precision saturates around t ~ 40 / mu.
"""

import sys

from stwm import ModeKernel, mode_cov, temporal_matern_limit
from stwm.fieldfile import write_csv

GAMMAS = [0.75, 1.0, 1.5, 2.5]
BASE_TIMES = [1.0, 2.0, 5.0, 10.0, 20.0, 40.0]
LAGS = [0.1, 0.5, 1.0, 2.0]
MU = 1.0

out = sys.argv[1] if len(sys.argv) > 1 else "temporal_matern_study.csv"


def rows():
    for g in GAMMAS:
        k = ModeKernel(mu=MU, weight=1.0, gamma=g)
        for h in LAGS:
            lim = temporal_matern_limit(g, MU, h)
            for t in BASE_TIMES:
                q = mode_cov(k, t, t + h)
                yield g, t, h, q, lim, q - lim


write_csv(out, ("gamma", "t", "h", "cov", "limit", "gap"), rows())
print(f"wrote {out}")
