"""Count samples: the common currency of the fitting and testing machinery."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from citefit.exceptions import DomainError, EmptySampleError


def positive_ints(x, what: str) -> np.ndarray:
    """``x`` as a new int64 array (at least 1-d) of integers in [1, 2**63).

    Everything is checked before the cast, so a non-finite, fractional or
    out-of-range value raises DomainError instead of wrapping around.
    """
    arr = np.atleast_1d(np.asarray(x))
    if arr.dtype == object:
        # Python ints beyond 64 bits; as floats they fail the range check
        arr = arr.astype(np.float64)
    if arr.size == 0:
        return arr.astype(np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.isfinite(arr) & (arr == np.rint(arr))):
            raise DomainError(f"{what} must be integers")
    if arr.max() >= 2 ** 63:
        raise DomainError(f"{what} must be below 2**63")
    if arr.min() < 1:
        raise DomainError(f"{what} must be >= 1")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class CitationSample:
    """A multiset of offset-adjusted positive integer counts.

    Parameters
    ----------
    counts : array_like of int
        Counts on the support {1, 2, ...} (zeros become 1 once the usual
        offset of 1 has been applied at ingestion).
    offset_applied : int
        Offset added to the raw data before construction, recorded as
        provenance. Defaults to 1, the convention for citation counts.
    label : str
        Subject or provenance tag used in report rows.
    """

    counts: np.ndarray
    offset_applied: int = 1
    label: str = ""

    def __post_init__(self):
        arr = positive_ints(self.counts, "counts (after the offset)").reshape(-1)
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        if self.offset_applied < 0:
            raise DomainError("offset_applied must be non-negative")

    def __len__(self) -> int:
        return int(self.counts.size)

    @cached_property
    def sorted_counts(self) -> np.ndarray:
        out = np.sort(self.counts)
        out.flags.writeable = False
        return out

    @cached_property
    def unique_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct values and their multiplicities (both read-only)."""
        values, mult = np.unique(self.counts, return_counts=True)
        values.flags.writeable = False
        mult.flags.writeable = False
        return values, mult

    def require_nonempty(self) -> None:
        if self.counts.size == 0:
            raise EmptySampleError("operation requires a non-empty sample")


@dataclass(frozen=True, eq=False)
class DistinctCounts:
    """A count multiset held only as its distinct values and multiplicities.

    This is all that fits and the Vuong test read of a sample
    (:attr:`CitationSample.unique_counts`), so a study replicate that only
    fits and compares models keeps one of these instead of its raw counts.
    ``values`` is strictly increasing and ``mult`` positive, as
    :func:`numpy.unique` returns them; nothing is checked, because they
    come from counts that were.
    """

    values: np.ndarray
    mult: np.ndarray

    def __len__(self) -> int:
        return int(self.mult.sum())

    @property
    def unique_counts(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values, self.mult

    def require_nonempty(self) -> None:
        if self.values.size == 0:
            raise EmptySampleError("operation requires a non-empty sample")


def count_total(values: np.ndarray, mult: np.ndarray) -> int:
    """The exact total of counts given as distinct values and multiplicities:
    in int64 while no partial sum can reach 2**63, else in Python ints."""
    if values.size == 0 or int(values.max()) * int(mult.sum()) < 2 ** 63:
        return int(np.dot(mult, values))
    return sum(map(operator.mul, values.tolist(), mult.tolist()))


def as_sample(data, label: str = "",
              offset_applied: int = 1) -> CitationSample | DistinctCounts:
    """Coerce an array of counts to a CitationSample (or pass through a
    CitationSample or DistinctCounts)."""
    if isinstance(data, (CitationSample, DistinctCounts)):
        return data
    return CitationSample(np.asarray(data), offset_applied=offset_applied, label=label)
