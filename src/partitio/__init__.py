"""Desk-scale number-theory workbench.

Exact representation counts for sums of a square and k-th powers, smooth
Weyl sums and their Farey-dissection slices, singular series, and a root
finding engine for the special constants that govern how many k-th powers
the circle method needs.

The package root exports nothing but ``__version__``: each name is imported
from the module that defines it, e.g. ``from partitio.counting import
representation_counts`` (the README's "Library layout" lists the modules).
"""

__version__ = "0.1.0"
