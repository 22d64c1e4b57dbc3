"""Convolutional-layer geometry.

:class:`ConvLayer` captures exactly the parameters the paper's cycle
model needs — IFM size, kernel size, channel counts — plus stride,
padding and a repeat count so that full networks (e.g. ResNet-18 with
its repeated basic blocks) can be described faithfully.

The paper's evaluation (Table I) folds stride and padding away: it lists
each layer with the IFM size *after* padding/striding effects and treats
the convolution as stride-1/valid.  ``ConvLayer`` supports both views:
build paper-style layers with the defaults (``stride=1, padding=0``), or
describe the real network and map it as written — the analytical model
counts windows on the stride grid, so strided layers need no folding.
:meth:`ConvLayer.folded` still gives the paper's equivalent stride-1
layer when that view is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from .types import (
    ConfigurationError,
    as_pair,
    require_non_negative_int,
    require_positive_int,
)

__all__ = ["ConvLayer"]


@dataclass(frozen=True)
class ConvLayer:
    """A 2-D convolutional layer.

    Parameters
    ----------
    ifm_h, ifm_w:
        Input feature map height / width (excluding padding).
    kernel_h, kernel_w:
        Kernel height / width.
    in_channels, out_channels:
        Number of input / output channels (``IC`` / ``OC`` in the paper).
    stride:
        Convolution stride (same in both dimensions).  The paper's model
        assumes 1; here kernel windows sit on the stride grid, and a
        group of ``nw`` of them spans ``K + (nw - 1) * stride`` pixels
        (:meth:`repro.core.window.ParallelWindow.windows_along`).
    padding:
        Zero padding added on every side.
    repeats:
        How many times this layer occurs in the network.  Table I counts
        each distinct shape once (``repeats`` is ignored for the paper's
        totals) but network-level analysis can weight by it.
    name:
        Optional human-readable label, e.g. ``"conv3_1"``.
    """

    ifm_h: int
    ifm_w: int
    kernel_h: int
    kernel_w: int
    in_channels: int
    out_channels: int
    stride: int = 1
    padding: int = 0
    repeats: int = 1
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        for attr in ("ifm_h", "ifm_w", "kernel_h", "kernel_w",
                     "in_channels", "out_channels", "stride", "repeats"):
            object.__setattr__(self, attr,
                               require_positive_int(attr, getattr(self, attr)))
        object.__setattr__(self, "padding",
                           require_non_negative_int("padding", self.padding))
        if self.kernel_h > self.padded_ifm_h or self.kernel_w > self.padded_ifm_w:
            raise ConfigurationError(
                f"kernel {self.kernel_h}x{self.kernel_w} larger than padded "
                f"IFM {self.padded_ifm_h}x{self.padded_ifm_w}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def square(cls, ifm: int, kernel: int, in_channels: int,
               out_channels: int, *, stride: int = 1, padding: int = 0,
               repeats: int = 1, name: str = "") -> "ConvLayer":
        """Build a layer with square IFM and kernel (the common case).

        >>> ConvLayer.square(56, 3, 128, 256).ofm_w
        54
        """
        return cls(ifm_h=ifm, ifm_w=ifm, kernel_h=kernel, kernel_w=kernel,
                   in_channels=in_channels, out_channels=out_channels,
                   stride=stride, padding=padding, repeats=repeats, name=name)

    @classmethod
    def from_dict(cls, entry: Dict) -> "ConvLayer":
        """Build a layer from the project's JSON wire format.

        The format is shared by network files (``vwsdk network --file``,
        :mod:`repro.networks.io`) and the engine API envelopes:
        ``ifm``/``kernel`` accept a scalar (square) or an ``[h, w]``
        pair; ``stride``, ``padding``, ``repeats`` and ``name`` are
        optional.  Integer fields are validated as given, never
        coerced: ``64.5``, ``true`` or ``"64"`` raise
        :class:`ConfigurationError`.

        >>> ConvLayer.from_dict({"ifm": 8, "kernel": [1, 3],
        ...                      "ic": 2, "oc": 4}).shape_str
        '1x3x2x4'
        """
        missing = {"ifm", "kernel", "ic", "oc"} - set(entry)
        if missing:
            raise ConfigurationError(
                f"layer spec missing keys: {sorted(missing)}")
        ifm_h, ifm_w = as_pair("ifm", entry["ifm"])
        kernel_h, kernel_w = as_pair("kernel", entry["kernel"])
        return cls(
            ifm_h=ifm_h, ifm_w=ifm_w, kernel_h=kernel_h, kernel_w=kernel_w,
            in_channels=entry["ic"], out_channels=entry["oc"],
            stride=entry.get("stride", 1),
            padding=entry.get("padding", 0),
            repeats=entry.get("repeats", 1),
            name=str(entry.get("name", "")))

    def to_dict(self) -> Dict:
        """The layer in the JSON wire format (defaults omitted).

        Inverse of :meth:`from_dict`.
        """
        entry: Dict = {
            "ifm": [self.ifm_h, self.ifm_w],
            "kernel": [self.kernel_h, self.kernel_w],
            "ic": self.in_channels,
            "oc": self.out_channels,
        }
        if self.stride != 1:
            entry["stride"] = self.stride
        if self.padding != 0:
            entry["padding"] = self.padding
        if self.repeats != 1:
            entry["repeats"] = self.repeats
        if self.name:
            entry["name"] = self.name
        return entry

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def padded_ifm_h(self) -> int:
        """IFM height including zero padding on both sides."""
        return self.ifm_h + 2 * self.padding

    @property
    def padded_ifm_w(self) -> int:
        """IFM width including zero padding on both sides."""
        return self.ifm_w + 2 * self.padding

    @property
    def ofm_h(self) -> int:
        """Output feature-map height."""
        return (self.padded_ifm_h - self.kernel_h) // self.stride + 1

    @property
    def ofm_w(self) -> int:
        """Output feature-map width."""
        return (self.padded_ifm_w - self.kernel_w) // self.stride + 1

    @property
    def num_windows(self) -> int:
        """Total sliding-window positions (= OFM elements per channel)."""
        return self.ofm_h * self.ofm_w

    @property
    def kernel_area(self) -> int:
        """``K_h * K_w``."""
        return self.kernel_h * self.kernel_w

    @property
    def weight_count(self) -> int:
        """Total weight elements ``K_h*K_w*IC*OC``."""
        return self.kernel_area * self.in_channels * self.out_channels

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for one inference of the layer."""
        return self.weight_count * self.num_windows

    @property
    def im2col_rows(self) -> int:
        """Rows of the im2col weight matrix: ``K_h*K_w*IC``."""
        return self.kernel_area * self.in_channels

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def folded(self) -> "ConvLayer":
        """Return the stride-1/no-padding layer the paper's tables list.

        The paper lists every layer with an IFM size such that a stride-1
        valid convolution yields the right number of windows.  Folding
        maps a strided/padded layer to that convention: the IFM becomes
        ``OFM + K - 1`` in each dimension and stride/padding reset.  The
        window count is kept, but a strided window group's pixel span is
        not, so folded cycle counts are optimistic for strided layers.
        """
        if self.stride == 1 and self.padding == 0:
            return self
        return replace(
            self,
            ifm_h=self.ofm_h + self.kernel_h - 1,
            ifm_w=self.ofm_w + self.kernel_w - 1,
            stride=1,
            padding=0,
        )

    def with_name(self, name: str) -> "ConvLayer":
        """Return a copy of this layer with a different ``name``."""
        return replace(self, name=name)

    def with_repeats(self, repeats: int) -> "ConvLayer":
        """Return a copy of this layer with a different ``repeats``."""
        return replace(self, repeats=require_positive_int("repeats", repeats))

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    @property
    def shape_str(self) -> str:
        """Paper-style shape string ``KhxKw x IC x OC`` (e.g. ``3x3x128x256``)."""
        return (f"{self.kernel_h}x{self.kernel_w}x"
                f"{self.in_channels}x{self.out_channels}")

    def describe(self) -> str:
        """One-line human description used by reports and the CLI."""
        label = self.name or "conv"
        extras = []
        if self.stride != 1:
            extras.append(f"s={self.stride}")
        if self.padding != 0:
            extras.append(f"p={self.padding}")
        if self.repeats != 1:
            extras.append(f"x{self.repeats}")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (f"{label}: IFM {self.ifm_h}x{self.ifm_w}, "
                f"weights {self.shape_str}{suffix}")

    def kernel_pair(self) -> Tuple[int, int]:
        """Kernel size as an ``(h, w)`` pair."""
        return (self.kernel_h, self.kernel_w)


def _kernel_pair_of(kernel: object) -> Tuple[int, int]:
    """Internal helper shared with other constructors."""
    return as_pair("kernel", kernel)
