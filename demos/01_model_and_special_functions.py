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
    TimeGrid,
    classical_sis,
    derive,
    mittag_leffler,
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
# at small t, exp(-t^alpha / Gamma(1 + alpha)), and an algebraic tail at
# large t, t^(-alpha) / Gamma(1 - alpha).  On the negative axis E_alpha is
# a fixed 33-node contour integral, as accurate at t = 1e4 as at t = 0.01,
# so it can be set beside both models.
print("\n     t      E_a(-t^a)    small-t model   large-t model   (alpha = 0.5)")
for t in (0.01, 0.1, 1.0, 10.0, 100.0, 1e4):
    e0 = math.exp(-(t**0.5) / math.gamma(1.5))
    einf = t**-0.5 / math.gamma(0.5)
    ml = mittag_leffler(0.5, -(t**0.5))
    print(f"{t:9.2f}   {ml:10.6f}   {e0:13.6f}   {einf:13.6f}")

# On the positive axis E_alpha grows like exp(z^(1/alpha))/alpha.  The
# contour takes that pole in closed form and integrates the rest at a fixed
# cost, so it gives E_0.5(20) = 1.0e174, where the power series needs
# over 2000 terms to stop, and inf once E_alpha is past binary64.
print("\nE_0.5(z) = e^(z^2) erfc(-z):", end="")
for z in (1.0, 20.0, 27.0):
    print(f"  E_0.5({z:g}) = {mittag_leffler(0.5, z):.6e}", end="")
print()

# The total population solves the linear Caputo equation
# D^alpha N = (lambda - mu) N: constant when the rates balance,
# Mittag-Leffler decay when deaths dominate, growth when births do.
grid = TimeGrid(10.0, 0.5)
balanced = population_curve(0.7, 0.12, 0.12, 1.0, grid)
declining = population_curve(0.7, 0.02, 0.12, 1.0, grid)
print("\npopulation with lambda = mu   :", balanced[:5], "... constant")
print("population with lambda < mu   :", np.round(declining[:5], 6), "... decaying")
growing = population_curve(0.7, 0.22, 0.12, 1.0, grid)
print("population with lambda > mu   :", np.round(growing[:5], 6), "... growing")
