"""Physical constants, CODATA 2018 exact values, SI units.

Compiled in; never read from configuration.
"""

import math

h = 6.62607015e-34          # Planck constant, J s (exact)
hbar = h / (2 * math.pi)    # reduced Planck constant, J s
k_B = 1.380649e-23          # Boltzmann constant, J/K (exact)
e = 1.602176634e-19         # elementary charge, C (exact)
Phi0 = h / (2 * e)          # magnetic flux quantum h/2e, Wb
R_q = h / (4 * e**2)        # resistance quantum for Cooper pairs h/4e^2, Ohm

TWO_PI = 2 * math.pi

