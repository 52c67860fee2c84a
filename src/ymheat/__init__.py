"""Yang-Mills heat flow toolkit on a 3-D box.

Gauge fields are algebra-valued differential forms on a uniform grid;
the package provides the gradient-flow integrator, the scalar Neumann
heat semigroup used as a comparison oracle, parallel transport and
Wilson loops, and the singular washer field whose loop integrals are
regularized by the flow.
"""

__version__ = "0.1.0"
