"""Distance kernels and lower bounds.

The paper performs every distance calculation with SIMD (Section 3.4); the
Python analog is batch NumPy kernels over whole candidate matrices, which
keeps pruning behaviour and operation counts identical while replacing the
scalar inner loops.

* :mod:`repro.distance.euclidean` — exact (squared) Euclidean distance,
  batch kernels and early abandoning.
* :mod:`repro.distance.lower_bounds` — LB_EAPCA (DSTree node bound).
"""

from repro.distance.euclidean import (
    euclidean,
    squared_euclidean,
    batch_squared_euclidean,
    early_abandon_squared,
)
from repro.distance.lower_bounds import (
    lb_eapca,
    lb_eapca_table_squared,
    series_synopsis,
)

__all__ = [
    "euclidean",
    "squared_euclidean",
    "batch_squared_euclidean",
    "early_abandon_squared",
    "lb_eapca",
    "lb_eapca_table_squared",
    "series_synopsis",
]
