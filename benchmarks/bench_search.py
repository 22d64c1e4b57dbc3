"""Bench: Algorithm 1 search cost and scaling (not a paper figure).

The paper notes its algorithm is a simple scan; these benches quantify
that: per-layer search latency across IFM sizes, the cost of the
exhaustive oracle, and the search on a strided layer.
"""

import pytest

from repro.core import ConvLayer, PIMArray
from repro.search import exhaustive_solution, vwsdk_solution

ARRAY = PIMArray.square(512)


@pytest.mark.parametrize("ifm", [14, 28, 56, 112, 224])
def test_search_scaling_with_ifm(benchmark, ifm):
    """Algorithm 1 latency grows ~quadratically with the IFM side."""
    layer = ConvLayer.square(ifm, 3, 128, 128)
    solution = benchmark(vwsdk_solution, layer, ARRAY)
    benchmark.extra_info["ifm"] = ifm
    benchmark.extra_info["candidates"] = solution.candidates_searched
    assert solution.cycles <= layer.num_windows * max(
        1, -(-layer.im2col_rows // ARRAY.rows))


def test_search_oracle_same_cost_class(benchmark):
    """The area-major oracle visits the same candidate set."""
    layer = ConvLayer.square(56, 3, 128, 256)
    solution = benchmark(exhaustive_solution, layer, ARRAY)
    assert solution.cycles == vwsdk_solution(layer, ARRAY).cycles


def test_search_strided_stem(benchmark):
    """Algorithm 1 on ResNet-18's real conv1 (stride 2, padding 3)."""
    stem = ConvLayer.square(224, 7, 3, 64, stride=2, padding=3)
    solution = benchmark(vwsdk_solution, stem, ARRAY)
    assert solution.cycles < stem.num_windows
    benchmark.extra_info["cycles"] = solution.cycles


def test_search_whole_network_resnet(benchmark):
    """End-to-end mapping latency for all five ResNet-18 layers."""
    from repro.networks import map_network, resnet18
    report = benchmark(map_network, resnet18(), ARRAY, "vw-sdk")
    assert report.total_cycles == 4294
