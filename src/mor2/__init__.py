"""Two-sided low-rank reduction of semilinear matrix differential equations.

Offline: snapshots of the state and of the nonlinearity are compressed by
an incremental two-sided decomposition with adaptive snapshot selection.
Online: the reduced system is integrated with an exponential Euler scheme,
the nonlinearity handled through two-sided interpolation so that no
full-size matrix is ever formed.
"""

__version__ = "0.1.0"
