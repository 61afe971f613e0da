"""Counter sample types shared by the kernel ring and the tools.

A leaf module (it imports nothing from the simulator) so that the
kernel's sample ring can build these objects without importing the
tool layer:

* :class:`Sample` — one periodic reading as a timestamp plus a dict of
  cumulative counter values; what the perf, PAPI, LiMiT and DBI
  sessions collect.
* :class:`SampleColumns` — a fixed-schema series in struct-of-arrays
  form; what a :class:`~repro.kernel.ringbuffer.ColumnarRing` drain
  returns and what a K-LEB report carries.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.errors import ToolError


@dataclass(frozen=True)
class Sample:
    """One periodic reading: cumulative counter values at a timestamp."""

    timestamp: int
    values: Dict[str, int]


class SampleColumns(_SequenceABC):
    """A sample series kept in struct-of-arrays form.

    Duck-types ``Sequence[Sample]`` — indexing materializes a
    :class:`Sample` on demand — while exposing the typed columns
    (``timestamps`` plus one ``array('q')`` per event in ``names``)
    directly, so columnar-aware consumers (CSV/JSON writers, the
    time-series resampler) never build a per-sample dict.

    A ring drain hands out independent copies of the drained window,
    never views: the ring reuses drained slots for later pushes, so a
    view would observe future samples.
    """

    __slots__ = ("names", "timestamps", "columns")

    def __init__(self, names: Sequence[str], timestamps: array,
                 columns: Sequence[array]) -> None:
        self.names: Tuple[str, ...] = tuple(names)
        self.timestamps = timestamps
        self.columns = list(columns)

    @classmethod
    def concat(cls, names: Sequence[str],
               parts: Iterable["SampleColumns"]) -> "SampleColumns":
        """Concatenate ``parts`` that share the schema ``names``.

        No parts yields an empty series that still carries the schema.
        """
        names = tuple(names)
        timestamps = array("q")
        columns = [array("q") for _ in names]
        for part in parts:
            if part.names != names:
                raise ToolError(
                    "cannot concatenate sample columns with different "
                    f"schemas: {names} vs {part.names}"
                )
            timestamps.extend(part.timestamps)
            for column, piece in zip(columns, part.columns):
                column.extend(piece)
        return cls(names, timestamps, columns)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        timestamp = self.timestamps[index]  # raises IndexError as a list would
        return Sample(
            timestamp=timestamp,
            values={name: column[index]
                    for name, column in zip(self.names, self.columns)},
        )

    def column(self, name: str) -> array:
        """The values of one event column (KeyError for unknown names)."""
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def __eq__(self, other):
        # Value equality, so reports survive dataclass comparison (the
        # parallel-vs-serial determinism gate) and pickling round-trips.
        if isinstance(other, SampleColumns):
            return (self.names == other.names
                    and self.timestamps == other.timestamps
                    and self.columns == other.columns)
        if isinstance(other, _SequenceABC) and not isinstance(
                other, (str, bytes)):
            return (len(self) == len(other)
                    and all(mine == theirs
                            for mine, theirs in zip(self, other)))
        return NotImplemented

    __hash__ = None
