"""Model parameters, derived quantities, and the special-function layer.

Walks through what the library derives from the epidemiological rates and
shows the Mittag-Leffler function doing its two jobs: solving the linear
population equation and interpolating between power-law and exponential
decay.
"""

import math

import numpy as np

from fracsis import (
    ModelParams,
    NonConvergenceError,
    TimeGrid,
    classical_sis,
    derive,
    mittag_leffler,
    ml_asymptotics,
    population_curve,
)

# The endemic reference parameters: contact rate 0.7, recovery 0.05,
# birth/death 0.12.  sigma > 1, so the infection persists at the
# carrying capacity c.
p = ModelParams(beta=0.7, gamma=0.05, mu=0.12, alpha=0.7, i0=0.35)
d = derive(p)
print("reproduction number sigma =", d.sigma)
print("carrying capacity      c =", d.c)
print("logistic scale         b = beta*c =", d.b)
print("time scale             M = b^(-1/alpha) =", d.M)
print("guaranteed series radius =", d.r_alpha)

# At alpha = 1 the model has a closed form; the endemic level is c.
i_inf, s_inf = classical_sis(p, 1e9)
print("\nclassical equilibrium: I ->", round(i_inf, 6), " (c =", round(d.c, 6), ")")

# Special functions under the hood.
print("\nGamma(1/2)^2 =", math.gamma(0.5) ** 2, " (pi)")
B = math.exp(math.lgamma(1.5) + math.lgamma(2.5) - math.lgamma(4.0))
print("B(1.5, 2.5)  =", B, " (pi/16)")

# E_alpha(-t^alpha) interpolates between stretched-exponential behaviour
# at small t and an algebraic t^(-alpha) tail at large t.  The direct
# series is the tool for moderate arguments; past that the large-t model
# takes over (the series would need thousands of wildly cancelling terms).
print("\n     t      E_a(-t^a)    small-t model   large-t model   (alpha = 0.5)")
for t in (0.01, 0.1, 1.0, 10.0, 100.0, 1e4):
    e0, einf = ml_asymptotics(0.5, -1.0, t)
    try:
        ml = f"{mittag_leffler(0.5, -(t**0.5)):10.6f}"
    except NonConvergenceError:
        ml = "(series impractical)"
    print(f"{t:9.2f}   {ml}   {e0:13.6f}   {einf:13.6f}")

# The total population solves the linear Caputo equation
# D^alpha N = (lambda - mu) N: constant when the rates balance,
# Mittag-Leffler decay when deaths dominate.
grid = TimeGrid(10.0, 0.5)
balanced = population_curve(0.7, 0.12, 0.12, 1.0, grid)
declining = population_curve(0.7, 0.02, 0.12, 1.0, grid)
print("\npopulation with lambda = mu   :", balanced[:5], "... constant")
print("population with lambda < mu   :", np.round(declining[:5], 6), "... decaying")
