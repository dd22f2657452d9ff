"""Seeding and statistical-result primitives shared by the sampling modules.

Seeding contract
----------------
A single nonnegative 64-bit ``seed`` determines every random draw. Work is
split into batches of ``DEFAULT_BATCH_SIZE`` trials; batch ``j`` draws from
the generator ``substream(seed, j)``, possibly in consecutive pieces that
consume it in order, and reductions run in batch order. The public
estimators' results are therefore bit-identical for a given
(seed, n_trials) regardless of how batches are split into chunks, screened
or scheduled (see ``montecarlo._eig_batches``). Derived seeds for
independent sub-tasks (e.g. the two sides of an identity check) come from
``derive_seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1

#: Number of trials drawn per substream. Part of the determinism contract:
#: changing it changes which substream a trial lands in.
DEFAULT_BATCH_SIZE = 4096


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for batch ``index`` of master ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed & _MASK64, index)))


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for an independent sub-task."""
    ss = np.random.SeedSequence(entropy=(seed & _MASK64, index))
    return int(ss.generate_state(1, np.uint64)[0])


def batch_sizes(n_trials: int, batch_size: int):
    """Yield (batch_index, batch_length) covering ``n_trials`` trials."""
    if n_trials < 1:
        raise DomainError(f"n_trials must be >= 1, got {n_trials}")
    index = 0
    done = 0
    while done < n_trials:
        take = min(batch_size, n_trials - done)
        yield index, take
        done += take
        index += 1


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error and provenance.

    ``stderr`` is the sample standard deviation divided by sqrt(n_trials).
    """

    mean: float
    stderr: float
    n_trials: int
    seed: int

    def __post_init__(self):
        if self.n_trials < 1:
            raise DomainError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.stderr < 0:
            raise DomainError(f"stderr must be >= 0, got {self.stderr}")


class RunningMoments:
    """Streaming mean / variance accumulator with a fixed reduction order."""

    def __init__(self):
        self.count = 0
        self._sum = 0.0
        self._sumsq = 0.0

    def add(self, values: np.ndarray) -> None:
        self.count += values.size
        self._sum += float(values.sum())
        self._sumsq += float(np.square(values).sum())

    def estimate(self, seed: int) -> MCEstimate:
        n = self.count
        mean = self._sum / n
        if n > 1:
            var = max(0.0, (self._sumsq - n * mean * mean) / (n - 1))
            stderr = float(np.sqrt(var / n))
        else:
            stderr = 0.0
        return MCEstimate(mean=mean, stderr=stderr, n_trials=n, seed=seed)

    def effective_size(self) -> float:
        """(sum w)^2 / sum w^2 of the values w added, nonnegative ones; 0
        when every square is 0, which leaves the standard error no digits
        either."""
        return self._sum * self._sum / self._sumsq if self._sumsq else 0.0


def z_score(a: MCEstimate, b: MCEstimate) -> float:
    """|a - b| in combined standard errors; 0.0 when both are exact and equal."""
    gap = abs(a.mean - b.mean)
    se = float(np.hypot(a.stderr, b.stderr))
    if se == 0.0:
        return 0.0 if gap == 0.0 else float("inf")
    return gap / se
