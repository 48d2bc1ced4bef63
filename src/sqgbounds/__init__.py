"""Critical dissipative SQG on a bounded square with Dirichlet sqrt-Laplacian.

Spectral library plus CLI for simulating the equation and numerically
checking the boundary-regularity bound families (convexity identities,
decay envelopes, velocity/commutator scalings, heat-kernel envelopes).

The submodules are the API; importing the package loads none of them.
"""

__version__ = "0.1.0"
