"""maxcurves: exact-arithmetic verification of three maximal curves
over small finite fields, their Weierstrass semigroups and order
sequences."""

__version__ = "0.1.0"
