"""Data-series summarization techniques (Figure 1 of the paper).

* :mod:`repro.summarization.paa` — Piecewise Aggregate Approximation.
* :mod:`repro.summarization.sax` — SAX discretization of PAA values.
* :mod:`repro.summarization.isax` — indexable SAX words with per-segment
  cardinalities (used by the ParIS+ baseline and Hercules' LSDFile).
* :mod:`repro.summarization.eapca` — Extended APCA: per-segment mean and
  standard deviation over arbitrary segmentations (used by DSTree and the
  Hercules tree).
* :mod:`repro.summarization.dft` — orthonormal DFT features (used by the
  VA+file baseline).
"""

from repro.summarization.paa import paa, paa_segment_bounds
from repro.summarization.sax import (
    SaxSpace,
    inverse_normal_cdf,
    sax_breakpoints,
)
from repro.summarization.isax import IsaxWord, isax_from_symbols
from repro.summarization.eapca import (
    Segmentation,
    SeriesSketch,
    segment_stats,
)
from repro.summarization.dft import dft_features, DftBasis

__all__ = [
    "paa",
    "paa_segment_bounds",
    "SaxSpace",
    "inverse_normal_cdf",
    "sax_breakpoints",
    "IsaxWord",
    "isax_from_symbols",
    "Segmentation",
    "SeriesSketch",
    "segment_stats",
    "dft_features",
    "DftBasis",
]
