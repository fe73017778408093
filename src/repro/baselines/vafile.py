"""VA+file — the best skip-sequential baseline (Ferhatosmanoglu et al.).

The VA+file keeps a small in-memory *filter file* of quantized
approximations of every series and scans it entirely for each query; the
raw file is only touched for candidates whose cell lower bound survives
the best-so-far.  The variant evaluated in the paper (following [21])
derives features with the DFT instead of the Karhunen–Loève transform.

Our implementation:

* features — leading orthonormal DFT features (lower-bounding by
  Parseval, see :mod:`repro.summarization.dft`);
* quantization — per-dimension *equi-depth* (quantile) bins, the
  "non-uniform" aspect that gives VA+ its edge over the plain VA-file,
  with a per-dimension bit budget weighted by feature variance;
* search — phase 1 computes cell lower bounds for all series from the
  filter file and seeds the best-so-far with real distances of the k
  smallest-bound candidates; phase 2 visits surviving candidates
  skip-sequentially in file-position order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.prefilter import SignatureArray
from repro.core.query import QueryAnswer, QueryProfile
from repro.obs import timed_profile
from repro.core.results import ResultSet
from repro.distance.euclidean import early_abandon_squared
from repro.errors import ConfigError
from repro.storage.dataset import Dataset
from repro.summarization.dft import DftBasis
from repro.summarization.paa import paa
from repro.summarization.sax import SaxSpace
from repro.types import DISTANCE_DTYPE


@dataclass(frozen=True)
class VAFileConfig:
    """Tunables of the VA+file baseline."""

    #: Number of DFT feature dimensions (paper: 16 DFT symbols).
    num_features: int = 16
    #: Total quantization bit budget across dimensions.
    total_bits: int = 64
    #: Refinement block size for skip-sequential candidate visits.
    refine_block: int = 64
    #: Filter-file flavour: ``"dft"`` is the classic VA+ filter (DFT
    #: features, equi-depth bins); ``"sax"`` is the fair-contender mode
    #: that runs Hercules' LB_SAX kernel over the whole array
    #: (SAX words over ``num_features`` PAA segments at ``sax_bits``
    #: cardinality), so baseline comparisons reflect equal kernel
    #: quality.
    filter_kind: str = "dft"
    #: Per-segment cardinality of the SAX filter, in bits.
    sax_bits: int = 4

    def __post_init__(self) -> None:
        if self.num_features < 1:
            raise ConfigError(f"num_features must be >= 1, got {self.num_features}")
        if self.total_bits < self.num_features:
            raise ConfigError(
                f"total_bits ({self.total_bits}) must allow at least one bit "
                f"per dimension ({self.num_features})"
            )
        if self.refine_block < 1:
            raise ConfigError(f"refine_block must be >= 1, got {self.refine_block}")
        if self.filter_kind not in ("dft", "sax"):
            raise ConfigError(
                f"filter_kind must be 'dft' or 'sax', got {self.filter_kind!r}"
            )
        if not 1 <= self.sax_bits <= 8:
            raise ConfigError(
                f"sax_bits must be in [1, 8], got {self.sax_bits}"
            )


class VAFileIndex:
    """A built VA+file: per-dimension bin edges plus the cell id matrix."""

    name = "VA+file"

    def __init__(
        self,
        dataset: Dataset,
        config: VAFileConfig,
        basis: DftBasis,
        edges: list[np.ndarray],
        cells: np.ndarray,
        build_seconds: float,
        signatures: Optional[SignatureArray] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.basis = basis
        #: ``edges[d]`` has ``bins_d + 1`` boundaries for dimension d.
        self.edges = edges
        #: ``cells[i, d]``: bin index of series i in dimension d.
        self.cells = cells
        #: Fair-contender filter (``filter_kind="sax"``): Hercules' LB_SAX
        #: kernel, here over the whole array.
        self.signatures = signatures
        self.num_series = dataset.num_series
        self.build_seconds = build_seconds

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: Union[np.ndarray, Dataset],
        config: Optional[VAFileConfig] = None,
    ) -> "VAFileIndex":
        dataset = data if isinstance(data, Dataset) else Dataset.from_array(data)
        if dataset.num_series == 0:
            raise ConfigError("cannot index an empty dataset")
        config = config if config is not None else VAFileConfig()
        if config.num_features > dataset.series_length:
            raise ConfigError(
                f"num_features={config.num_features} exceeds series length "
                f"{dataset.series_length}"
            )

        started = time.perf_counter()
        basis = DftBasis(dataset.series_length, config.num_features)
        if config.filter_kind == "sax":
            space = SaxSpace(segments=config.num_features)
            symbols = np.empty(
                (dataset.num_series, config.num_features), dtype=np.uint8
            )
            for start, batch in dataset.iter_batches(8192):
                symbols[start : start + batch.shape[0]] = space.symbolize(
                    paa(batch, config.num_features)
                )
            signatures = SignatureArray.from_full_symbols(
                symbols, space, config.sax_bits
            )
            build_seconds = time.perf_counter() - started
            return cls(
                dataset,
                config,
                basis,
                edges=[],
                cells=signatures.reduced.astype(np.int32),
                build_seconds=build_seconds,
                signatures=signatures,
            )
        features = np.empty(
            (dataset.num_series, config.num_features), dtype=DISTANCE_DTYPE
        )
        for start, batch in dataset.iter_batches(8192):
            features[start : start + batch.shape[0]] = basis.transform(batch)

        bits = _allocate_bits(features, config.total_bits)
        edges: list[np.ndarray] = []
        cells = np.empty_like(features, dtype=np.int32)
        for d in range(config.num_features):
            bins = 1 << bits[d]
            dim_edges = _equi_depth_edges(features[:, d], bins)
            edges.append(dim_edges)
            # Duplicate quantiles may merge bins; the effective bin count
            # is len(dim_edges) - 1 and searchsorted output stays within it.
            cells[:, d] = np.searchsorted(
                dim_edges[1:-1], features[:, d], side="right"
            )
        build_seconds = time.perf_counter() - started
        return cls(dataset, config, basis, edges, cells, build_seconds)

    # -- persistence -----------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> "Path":
        """Persist the filter file (edges + cells) and settings.

        Like ParIS+, VA+file owns no raw data; ``open`` re-binds the
        filter to a caller-provided dataset.
        """
        import json
        from dataclasses import asdict
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        arrays = {"cells": self.cells}
        for d, dim_edges in enumerate(self.edges):
            arrays[f"edges_{d}"] = dim_edges
        np.savez(directory / "vafile-filter.npz", **arrays)
        (directory / "vafile-meta.json").write_text(
            json.dumps(
                {
                    "config": asdict(self.config),
                    "num_series": self.num_series,
                    "series_length": self.dataset.series_length,
                    "num_dimensions": len(self.edges),
                },
                sort_keys=True,
            )
        )
        return directory

    @classmethod
    def open(
        cls, directory, data: Union[np.ndarray, Dataset]
    ) -> "VAFileIndex":
        """Reopen a saved VA+file over its (caller-provided) dataset."""
        import json
        from pathlib import Path

        from repro.errors import StorageError

        directory = Path(directory)
        meta_path = directory / "vafile-meta.json"
        if not meta_path.exists():
            raise StorageError(f"no VA+file metadata at {meta_path}")
        try:
            meta = json.loads(meta_path.read_text())
            config = VAFileConfig(**meta["config"])
            with np.load(directory / "vafile-filter.npz") as arrays:
                cells = arrays["cells"]
                edges = [
                    arrays[f"edges_{d}"] for d in range(meta["num_dimensions"])
                ]
        except (json.JSONDecodeError, KeyError, OSError, ValueError) as exc:
            raise StorageError(f"{directory}: corrupt VA+file state") from exc
        dataset = data if isinstance(data, Dataset) else Dataset.from_array(data)
        if dataset.num_series != meta["num_series"]:
            raise StorageError(
                f"dataset holds {dataset.num_series} series, filter was "
                f"built over {meta['num_series']}"
            )
        basis = DftBasis(meta["series_length"], config.num_features)
        signatures = None
        if config.filter_kind == "sax":
            signatures = SignatureArray(
                cells.astype(np.uint8),
                SaxSpace(segments=config.num_features),
                config.sax_bits,
            )
        return cls(
            dataset, config, basis, edges, cells, build_seconds=0.0,
            signatures=signatures,
        )

    # -- querying --------------------------------------------------------------

    def knn(self, query: np.ndarray, k: int = 1) -> QueryAnswer:
        query64 = np.asarray(query, dtype=DISTANCE_DTYPE)
        results = ResultSet(k)
        profile = QueryProfile()
        path = (
            "vafile-sax-skipseq"
            if self.signatures is not None
            else "vafile-skipseq"
        )
        with timed_profile(
            profile, path=path, io_stats=self.dataset.stats, k=k
        ):
            if self.signatures is not None:
                # Fair-contender mode: LB_SAX over the whole array.
                bounds = self.signatures.lower_bounds(
                    paa(query64, self.config.num_features), query64.shape[0]
                )
            else:
                q_feat = self.basis.transform(query64)
                bounds = self._cell_lower_bounds(q_feat)

            # Phase 1: seed the BSF with real distances of the k most
            # promising candidates (smallest cell lower bounds).
            seed_count = min(self.num_series, k)
            seed = np.argpartition(bounds, seed_count - 1)[:seed_count]
            self._refine(query64, np.sort(seed), results, profile)

            # Phase 2: skip-sequential visit of surviving candidates.
            candidates = np.nonzero(bounds < results.bsf)[0]
            profile.candidate_series = int(candidates.shape[0])
            profile.sax_pruning = (
                1.0 - candidates.shape[0] / self.num_series if self.num_series else 1.0
            )
            if self.signatures is not None:
                profile.prefilter_screened = self.num_series
                profile.prefilter_survivors = int(candidates.shape[0])
            seeded = set(int(p) for p in seed)
            remaining = np.array(
                [p for p in candidates if int(p) not in seeded], dtype=np.int64
            )
            block = self.config.refine_block
            for start in range(0, remaining.shape[0], block):
                chunk = remaining[start : start + block]
                alive = chunk[bounds[chunk] < results.bsf]
                if alive.shape[0]:
                    self._refine(query64, alive, results, profile)

        distances, positions = results.items()
        return QueryAnswer(distances, positions, profile)

    def _cell_lower_bounds(self, q_feat: np.ndarray) -> np.ndarray:
        """Distance from the query to every series' cell, via lookup tables.

        For each dimension a table of squared distances from the query
        feature to each bin is built once (O(bins)), then the N cell ids
        index into it — the standard VA-file trick that keeps the filter
        scan at O(N·d) regardless of bin counts.
        """
        total = np.zeros(self.num_series, dtype=DISTANCE_DTYPE)
        for d, dim_edges in enumerate(self.edges):
            lower = dim_edges[:-1]
            upper = dim_edges[1:]
            gap = np.maximum(
                np.maximum(lower - q_feat[d], q_feat[d] - upper), 0.0
            )
            table = gap * gap
            total += table[self.cells[:, d]]
        return np.sqrt(total)

    def _refine(
        self,
        query: np.ndarray,
        positions: np.ndarray,
        results: ResultSet,
        profile: QueryProfile,
    ) -> None:
        if positions.shape[0] == 0:
            return
        rows = self.dataset.read_positions(positions)
        profile.series_accessed += positions.shape[0]
        squared, compared = early_abandon_squared(
            query, rows, results.bsf_squared
        )
        profile.distance_computations += positions.shape[0]
        profile.points_compared += compared
        profile.points_total += positions.shape[0] * rows.shape[1]
        results.update_batch_squared(squared, positions)

    @property
    def query_io(self):
        """I/O counters of the raw file this index refines against."""
        return self.dataset.stats

    def close(self) -> None:
        """VA+file owns no files; the dataset is managed by the caller."""


def _allocate_bits(features: np.ndarray, total_bits: int) -> np.ndarray:
    """Greedy variance-weighted bit allocation (the VA+ heuristic).

    Every dimension gets one bit; each remaining bit goes to the dimension
    with the largest variance-per-cell, i.e. variance / 4^bits, since one
    extra bit halves the expected cell width.
    """
    d = features.shape[1]
    bits = np.ones(d, dtype=np.int64)
    variances = features.var(axis=0)
    variances = np.maximum(variances, 1e-12)
    remaining = total_bits - d
    cost = variances / 4.0  # variance / 4^bits with bits = 1
    for _ in range(remaining):
        target = int(np.argmax(cost))
        bits[target] += 1
        if bits[target] >= 16:  # cap: 65536 bins per dimension is plenty
            cost[target] = -np.inf
        else:
            cost[target] /= 4.0
    return bits


def _equi_depth_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Quantile bin edges with open outer boundaries.

    Interior edges are data quantiles (equi-depth); the outer edges are
    pushed to ±inf so every future query value falls in some bin.
    """
    quantiles = np.quantile(values, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.concatenate(([-np.inf], np.unique(quantiles), [np.inf]))


