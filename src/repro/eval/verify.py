"""Self-verification: prove a method's answers against brute force.

The paper's baseline claim — "all algorithms return the same, exact
results" (Section 1) — deserves a tool users can run against their own
data and configurations, not just our test suite.  ``verify_exactness``
checks any method against a brute-force scan; ``verify_epsilon`` checks
the ε-approximate guarantee.  Both return structured reports and are
exposed through ``python -m repro verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.distance.euclidean import batch_squared_euclidean


@dataclass
class VerificationReport:
    """Outcome of one verification sweep."""

    method: str
    queries_checked: int
    k: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status}: {self.method} over {self.queries_checked} queries "
            f"(k={self.k})"
        ]
        lines.extend(f"  - {failure}" for failure in self.failures[:10])
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


def _brute_force(data: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    distances = np.sqrt(batch_squared_euclidean(query, data))
    return np.sort(distances)[: min(k, distances.shape[0])]


def verify_exactness(
    method,
    data: np.ndarray,
    queries: np.ndarray,
    k: int = 10,
    atol: float = 1e-5,
) -> VerificationReport:
    """Check that ``method.knn`` matches brute force on every query."""
    report = VerificationReport(
        method=getattr(method, "name", method.__class__.__name__),
        queries_checked=int(np.asarray(queries).shape[0]),
        k=k,
    )
    for i, query in enumerate(np.asarray(queries)):
        expected = _brute_force(data, query, k)
        answer = method.knn(query, k=k)
        if answer.distances.shape[0] != expected.shape[0]:
            report.failures.append(
                f"query {i}: returned {answer.distances.shape[0]} answers, "
                f"expected {expected.shape[0]}"
            )
            continue
        gap = np.abs(answer.distances - expected)
        if np.any(gap > atol):
            worst = int(np.argmax(gap))
            report.failures.append(
                f"query {i}: rank {worst} distance "
                f"{answer.distances[worst]:.6f} != exact "
                f"{expected[worst]:.6f}"
            )
    return report


def epsilon_failures(
    answers,
    data: np.ndarray,
    queries: np.ndarray,
    epsilon: float,
    k: int = 10,
    atol: float = 1e-6,
) -> list[str]:
    """The ε-approximate guarantee, answer by answer: one failure line
    per answer whose kth distance exceeds (1+ε)·exact kth."""
    failures = []
    for i, (query, answer) in enumerate(zip(np.asarray(queries), answers)):
        expected = _brute_force(data, query, k)
        bound = (1.0 + epsilon) * expected[-1] + atol
        if answer.distances[-1] > bound:
            failures.append(
                f"query {i}: kth distance {answer.distances[-1]:.6f} "
                f"exceeds guarantee {bound:.6f}"
            )
    return failures


def verify_epsilon(
    index,
    data: np.ndarray,
    queries: np.ndarray,
    epsilon: float,
    k: int = 10,
    atol: float = 1e-6,
) -> VerificationReport:
    """Check the ε-approximate guarantee: reported kth ≤ (1+ε)·exact kth."""
    config = index.config.with_options(epsilon=epsilon)
    queries = np.asarray(queries)
    answers = (index.knn(query, k=k, config=config) for query in queries)
    return VerificationReport(
        method=f"Hercules(epsilon={epsilon})",
        queries_checked=int(queries.shape[0]),
        k=k,
        failures=epsilon_failures(answers, data, queries, epsilon, k=k, atol=atol),
    )
