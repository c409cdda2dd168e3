"""Finite-group engine for non-abelian tensor products, coset enumeration,
and the homotopy-group invariants they compute."""

from . import (abelian, catalog, coset, errors, groups, homotopy, parsing,
               report, tensor, words)

__version__ = "0.1.0"
