"""Exact symbolic verification of current-algebra quantization identities.

The package materializes simple Lie algebras of type A, their enveloping
algebras with PBW normal form, the graded current Lie bialgebra, the free
model of its deformation on degree-0/1 generators, and the cohomological
machinery (Chevalley-Eilenberg, cobar, their bicomplex and the correction
solver), all over exact rationals, and mechanically checks the
identities tying them together.
"""

from .liealg import build_sl

__all__ = ["build_sl"]
__version__ = "0.1.0"
