"""PIM crossbar array geometry.

:class:`PIMArray` models the only two properties the paper's analytical
model needs — the number of rows (``2^X``, word lines / input ports) and
columns (``2^Y``, bit lines / outputs).  Device-level parameters (ADC
bits, conductance noise, energy per conversion) live in :mod:`repro.pim`
and :mod:`repro.core.cost` so that the pure mapping layer stays free of
device assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from .types import ConfigurationError, require_positive_int

__all__ = ["PIMArray", "PAPER_ARRAY_SIZES"]


@dataclass(frozen=True, order=True)
class PIMArray:
    """A PIM crossbar of ``rows x cols`` memory cells.

    ``rows`` is the number of word lines (one input element drives one
    row per cycle); ``cols`` is the number of bit lines (one output
    partial sum is read per column per cycle).  The paper denotes these
    ``2^X`` and ``2^Y`` but nothing in the model requires powers of two,
    so any positive size is accepted.

    >>> PIMArray(512, 512).cells
    262144
    >>> str(PIMArray(512, 256))
    '512x256'
    """

    rows: int
    cols: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", require_positive_int("rows", self.rows))
        object.__setattr__(self, "cols", require_positive_int("cols", self.cols))

    @classmethod
    def square(cls, size: int, name: str = "") -> "PIMArray":
        """Build a square ``size x size`` array."""
        return cls(rows=size, cols=size, name=name)

    @classmethod
    def parse(cls, spec: str) -> "PIMArray":
        """Parse an array spec string such as ``"512x256"``.

        Accepts ``x``, ``X`` or ``*`` as the separator; a single number
        means a square array.  Anything else raises
        :class:`~repro.core.types.ConfigurationError` naming *spec*.

        >>> PIMArray.parse("128x256")
        PIMArray(rows=128, cols=256)
        >>> PIMArray.parse("512")
        PIMArray(rows=512, cols=512)
        """
        text = spec.strip().lower().replace("*", "x")
        row_text, sep, col_text = text.partition("x")
        try:
            rows = int(row_text)
            cols = int(col_text) if sep else rows
        except ValueError:
            raise ConfigurationError(
                f"array spec must look like '512x256' or '512', "
                f"got {spec!r}") from None
        return cls(rows=rows, cols=cols)

    @property
    def cells(self) -> int:
        """Total number of memory cells."""
        return self.rows * self.cols

    @property
    def is_square(self) -> bool:
        """Whether the array has as many rows as columns."""
        return self.rows == self.cols

    def __str__(self) -> str:  # noqa: D105 - obvious
        return f"{self.rows}x{self.cols}"

    def __repr__(self) -> str:  # noqa: D105 - keep name out when empty
        if self.name:
            return f"PIMArray(rows={self.rows}, cols={self.cols}, name={self.name!r})"
        return f"PIMArray(rows={self.rows}, cols={self.cols})"

    def scaled(self, row_factor: int = 1, col_factor: int = 1) -> "PIMArray":
        """Return an array enlarged by integer factors (for DSE sweeps)."""
        return PIMArray(self.rows * require_positive_int("row_factor", row_factor),
                        self.cols * require_positive_int("col_factor", col_factor))


def _paper_arrays() -> Tuple[PIMArray, ...]:
    sizes: Iterable[Tuple[int, int]] = (
        (128, 128), (128, 256), (256, 256), (512, 256), (512, 512))
    result: List[PIMArray] = []
    for rows, cols in sizes:
        result.append(PIMArray(rows, cols, name=f"{rows}x{cols}"))
    return tuple(result)


#: The five array sizes the paper evaluates (Fig. 8(b)); the references
#: for the physical arrays are [5] (128x128, 256x256), [2] (512x512) and
#: [8] (512x256).
PAPER_ARRAY_SIZES: Tuple[PIMArray, ...] = _paper_arrays()
