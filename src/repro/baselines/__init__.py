"""The state-of-the-art methods Hercules is evaluated against (Section 4.1).

* :mod:`repro.baselines.dstree` — DSTree*: the best single-core tree index
  (EAPCA segmentation, adaptive splits), plus its parallelized variant
  DSTree*P used by the ablation study.
* :mod:`repro.baselines.paris` — ParIS+: the iSAX-family multi-core index
  with ADS+SIMS-style query answering.
* :mod:`repro.baselines.vafile` — VA+file: the best skip-sequential method
  (DFT features with non-uniform scalar quantization).
* :mod:`repro.baselines.pscan` — PSCAN: the parallel optimized scan built
  on the UCR-suite Euclidean-distance optimizations.
* :mod:`repro.baselines.scan` — the plain serial scan (the red dotted
  reference line of Figure 9).

All methods answer exact k-NN queries and return the same
:class:`~repro.core.query.QueryAnswer` structure as Hercules, with
identical distances for identical inputs (tested).
"""

from repro.baselines.dstree import DSTreeConfig, DSTreeIndex
from repro.baselines.paris import ParisConfig, ParisIndex
from repro.baselines.vafile import VAFileConfig, VAFileIndex
from repro.baselines.pscan import PScan
from repro.baselines.scan import SerialScan

__all__ = [
    "DSTreeConfig",
    "DSTreeIndex",
    "ParisConfig",
    "ParisIndex",
    "VAFileConfig",
    "VAFileIndex",
    "PScan",
    "SerialScan",
]
