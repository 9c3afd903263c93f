"""Count samples: the common currency of the fitting and testing machinery."""

from __future__ import annotations

import operator
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from citefit.exceptions import DomainError, EmptySampleError


def positive_ints(x, what: str) -> np.ndarray:
    """``x`` as a new int64 array (at least 1-d) of integers in [1, 2**63).

    Only integer and real-float arrays, and object arrays of real numbers
    other than bools, hold counts; anything else (bool, complex, text,
    dates) raises DomainError. In an object array an integer is read exactly,
    as a Python int however large, and any other real as a float64.
    Everything is checked before the cast, so a non-finite, fractional or
    out-of-range value raises DomainError instead of wrapping around.
    """
    arr = np.atleast_1d(np.asarray(x))
    kind = arr.dtype.kind
    if kind == "O" and all(isinstance(v, Real) and not isinstance(v, bool) for v in arr.flat):
        exact = [v if isinstance(v, Integral) else float(v) for v in arr.flat]
        if all(isinstance(v, Integral) or v.is_integer() for v in exact):
            arr, kind = np.array([int(v) for v in exact], dtype=object).reshape(arr.shape), "i"
    if not (kind in "iu" or kind == "f" and np.all(np.isfinite(arr) & (arr == np.rint(arr)))):
        raise DomainError(f"{what} must be integers")
    if arr.size == 0:
        return arr.astype(np.int64)
    # Python ints, so that 2**63 is never cast to the array's dtype
    if int(arr.max()) >= 2 ** 63:
        raise DomainError(f"{what} must be below 2**63")
    if int(arr.min()) < 1:
        raise DomainError(f"{what} must be >= 1")
    return arr.astype(np.int64)


def positive_int(value, what: str):
    """``value`` if it is an integer >= 1, else DomainError: a float, even
    an integral one, and a bool are not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise DomainError(f"{what} must be >= 1 and an integer, got {value!r}")
    return value


class CitationSample:
    """A multiset of offset-adjusted positive integer counts.

    It is held as its counts, checked and kept in the order given, or as
    its distinct counts (:meth:`from_distinct`), as drawn samples are; each
    form derives the other on first read. A sample is immutable.

    Parameters
    ----------
    counts : array_like of int
        Counts on the support {1, 2, ...} (zeros become 1 once the usual
        offset of 1 has been applied at ingestion).
    label : str
        Subject or provenance tag used in report rows.
    """

    def __init__(self, counts, label: str = ""):
        arr = positive_ints(counts, "counts (after the offset)").reshape(-1)
        arr.flags.writeable = False
        vars(self).update(counts=arr, label=label, _size=int(arr.size))

    @classmethod
    def from_distinct(cls, values: np.ndarray, mult: np.ndarray,
                      label: str = "") -> CitationSample:
        """The sample of distinct counts ``values``, strictly increasing, with
        positive multiplicities ``mult``, as :func:`numpy.unique` returns
        them. Nothing is checked, because they come from counts that were."""
        sample = cls.__new__(cls)
        vars(sample).update(unique_counts=(values, mult), label=label)
        return sample

    def __setattr__(self, name, *value):
        raise AttributeError(f"a sample is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return self._size

    @cached_property
    def _size(self) -> int:
        return int(self.unique_counts[1].sum())

    @cached_property
    def counts(self) -> np.ndarray:
        """The counts (read-only): in the order given, or sorted for a
        sample built from its distinct counts."""
        counts = np.repeat(*self.unique_counts)
        counts.flags.writeable = False
        return counts

    @cached_property
    def unique_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct values and their multiplicities (read-only when derived
        from the counts)."""
        values, mult = np.unique(self.counts, return_counts=True)
        values.flags.writeable = False
        mult.flags.writeable = False
        return values, mult


def count_total(values: np.ndarray, mult: np.ndarray) -> int:
    """The exact total of counts given as distinct values and multiplicities:
    in int64 while no partial sum can reach 2**63, else in Python ints."""
    if values.size == 0 or int(values.max()) * int(mult.sum()) < 2 ** 63:
        return int(np.dot(mult, values))
    return sum(map(operator.mul, values.tolist(), mult.tolist()))


def as_sample(data) -> CitationSample:
    """The sample every reader reads: ``data`` itself if it is a
    CitationSample, else a CitationSample of its counts.

    Raises EmptySampleError ("operation requires a non-empty sample") for a
    sample with no counts, so no reader checks that again. The check reads
    the form the sample was built in, so a drawn sample is neither summed
    nor expanded.
    """
    if not isinstance(data, CitationSample):
        data = CitationSample(np.asarray(data))
    held = vars(data).get("counts")
    if (data.unique_counts[0] if held is None else held).size == 0:
        raise EmptySampleError("operation requires a non-empty sample")
    return data
