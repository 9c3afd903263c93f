"""Count samples: the common currency of the fitting and testing machinery."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from citefit.exceptions import DomainError, EmptySampleError


def positive_ints(x, what: str) -> np.ndarray:
    """``x`` as a new int64 array (at least 1-d) of integers in [1, 2**63).

    Only integer and real-float arrays, and object arrays of real numbers
    other than bools, hold counts; anything else (bool, complex, text,
    dates) raises DomainError. Everything is checked before the cast, so a
    non-finite, fractional or out-of-range value raises DomainError instead
    of wrapping around.
    """
    arr = np.atleast_1d(np.asarray(x))
    if arr.dtype == object and all(isinstance(v, Real) and not isinstance(v, bool)
                                   for v in arr.flat):
        # Python ints beyond 64 bits; as floats they fail the range check
        arr = arr.astype(np.float64)
    kind = arr.dtype.kind
    if not (kind in "iu" or kind == "f" and np.all(np.isfinite(arr) & (arr == np.rint(arr)))):
        raise DomainError(f"{what} must be integers")
    if arr.size == 0:
        return arr.astype(np.int64)
    # Python scalars, so that 2**63 is never cast to the array's dtype
    if arr.max().item() >= 2 ** 63:
        raise DomainError(f"{what} must be below 2**63")
    if arr.min().item() < 1:
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
    label : str
        Subject or provenance tag used in report rows.
    """

    counts: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = positive_ints(self.counts, "counts (after the offset)").reshape(-1)
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    def __len__(self) -> int:
        return int(self.counts.size)

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

    These are all that any reader of a sample reads
    (:attr:`CitationSample.unique_counts`): fits, the Vuong test, KS, the
    ECDF and the shape table. Bootstrap resamples and simulated samples are
    held as one of these. ``values`` is strictly increasing and ``mult``
    positive, as :func:`numpy.unique` returns them; nothing is checked,
    because they come from counts that were. ``label`` tags report rows.
    """

    values: np.ndarray
    mult: np.ndarray
    label: str = ""

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


def as_sample(data) -> CitationSample | DistinctCounts:
    """The sample every reader reads: ``data`` itself if it is a
    CitationSample or DistinctCounts, else a CitationSample of its counts.

    Raises EmptySampleError ("operation requires a non-empty sample") for a
    sample with no counts, so no reader checks that again. Each class's
    ``require_nonempty`` reads an array size, not ``len``, which sums
    ``mult`` for DistinctCounts.
    """
    if not isinstance(data, (CitationSample, DistinctCounts)):
        data = CitationSample(np.asarray(data))
    data.require_nonempty()
    return data
