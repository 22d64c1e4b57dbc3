"""Map your own CNN, including real strides and padding.

Run:  python examples/custom_network.py

Builds a custom edge-vision CNN the way a downstream user would — with
real strides and padding — then (1) folds it to the paper's stride-1
view and maps it with every scheme, and (2) maps the real layers,
stride-2 ones included, with the same search, showing where the two
routes agree on cycle counts and where folding is optimistic.
"""

from repro import ConvLayer, Network, PIMArray, compare_schemes
from repro.reporting import format_table
from repro.search import vwsdk_solution


def build_edge_net() -> Network:
    """A MobileNet-ish edge CNN: stride-2 stem, pyramid of 3x3 convs."""
    return Network.from_layers("EdgeNet", [
        ConvLayer.square(96, 3, 3, 32, stride=2, padding=1, name="stem"),
        ConvLayer.square(48, 3, 32, 64, padding=1, name="stage1"),
        ConvLayer.square(48, 3, 64, 64, stride=2, padding=1, name="down1"),
        ConvLayer.square(24, 3, 64, 128, padding=1, name="stage2"),
        ConvLayer.square(24, 3, 128, 128, stride=2, padding=1,
                         name="down2"),
        ConvLayer.square(12, 3, 128, 256, padding=1, name="stage3"),
    ])


def map_folded(network: Network, array: PIMArray) -> None:
    """Route 1: fold to stride-1 (the paper's convention) and map."""
    folded = network.folded()
    reports = compare_schemes(folded, array)
    rows = []
    for i, layer in enumerate(folded):
        rows.append({
            "layer": layer.name,
            "folded IFM": f"{layer.ifm_h}x{layer.ifm_w}",
            "im2col": reports["im2col"].solutions[i].cycles,
            "sdk": reports["sdk"].solutions[i].cycles,
            "vw-sdk": reports["vw-sdk"].solutions[i].cycles,
            "window": str(reports["vw-sdk"].solutions[i].window),
        })
    print(format_table(rows, title=f"{network.name} on {array} "
                                   f"(folded stride-1 view)"))
    vw = reports["vw-sdk"]
    print(f"totals: im2col={reports['im2col'].total_cycles} "
          f"sdk={reports['sdk'].total_cycles} "
          f"vw-sdk={vw.total_cycles} "
          f"({vw.speedup_over(reports['im2col']):.2f}x vs im2col)")


def map_strided(network: Network, array: PIMArray) -> None:
    """Route 2: map the real layers and quantify the folding gap.

    The paper folds strided layers into stride-1 equivalents, which
    *understates* the rows a parallel window really needs: with stride
    ``s`` a group of ``nw`` windows spans ``K + (nw-1)*s`` pixels, not
    ``K + nw - 1``.  Algorithm 1 counts windows on the stride grid, so
    mapping the real layer is exact; at stride 1 the two agree, and for
    stride > 1 native >= folded.
    """
    print("\nnative search vs the paper's folded approximation:")
    rows = []
    for layer in network:
        native = vwsdk_solution(layer, array)
        folded = vwsdk_solution(layer.folded(), array)
        gap = 100.0 * (native.cycles - folded.cycles) / folded.cycles
        rows.append({
            "layer": layer.name,
            "stride": layer.stride,
            "native cycles": native.cycles,
            "folded cycles": folded.cycles,
            "folding understates by": f"{gap:.1f}%",
            "pixel window": str(native.window),
        })
        assert native.cycles >= folded.cycles
        if layer.stride == 1:
            assert native.cycles == folded.cycles
    print(format_table(rows))
    print("-> exact at stride 1; the folded (paper) view is optimistic "
          "for stride-2 layers.")


if __name__ == "__main__":
    network = build_edge_net()
    array = PIMArray(256, 256)
    print(network.describe())
    print()
    map_folded(network, array)
    map_strided(network, array)
