"""ResNet-18 with its real strides (the zoo's ``resnet18-full``): one
answer on every surface.

Windows are counted on the stride grid everywhere, so the per-layer
engine path, the batched sweep, the server and both CLI spellings give
the same native totals (each listed layer counted once, the Table I
convention).  SDK answers as well: its ``d x d`` kernel copies sit one
stride apart.
"""

import http.client
import json
import re

from repro.api import MappingEngine, MappingRequest
from repro.cli import main
from repro.core import PIMArray
from repro.networks import get_network, save_network
from repro.server import ServerThread

SIDES = (128, 256, 512, 1024)
TOTALS = {"vw-sdk": [57232, 16660, 6811, 2898],
          "sdk": [74480, 25284, 11907, 4557]}


def _post(server, path, body):
    conn = http.client.HTTPConnection(*server.address, timeout=120)
    try:
        conn.request("POST", path, json.dumps(body),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _cli_totals(argv, capsys):
    """The ``totals:`` line of ``vwsdk network`` as ``{scheme: cycles}``;
    the command must exit 0."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    line = next(row for row in out.splitlines() if row.startswith("totals:"))
    return {scheme: int(cycles)
            for scheme, cycles in re.findall(r"([\w-]+)=(\d+)", line)}


def test_resnet18_full_native_totals_on_every_surface(tmp_path, capsys):
    network = get_network("resnet18-full")
    arrays = [PIMArray.square(side) for side in SIDES]
    engine = MappingEngine(backend="numpy")
    for scheme, totals in TOTALS.items():
        mapped = [sum(engine.map(MappingRequest(layer=layer, array=array,
                                                scheme=scheme)
                                 ).solution.cycles for layer in network)
                  for array in arrays]
        assert mapped == totals, scheme
        swept = engine.sweep_cycles(network, arrays, scheme)
        assert [int(cycles) for cycles in swept] == totals, scheme

    with ServerThread(workers=1, backend="numpy") as server:
        for scheme, totals in TOTALS.items():
            status, body = _post(server, "/v1/network_sweep",
                                 {"network": "resnet18-full",
                                  "arrays": list(SIDES), "scheme": scheme})
            assert status == 200, body
            assert body["cycles"] == totals, scheme

    path = save_network(network, tmp_path / "resnet18_full.json")
    for i, side in enumerate(SIDES):
        array = ["--array", str(side)]
        by_name = _cli_totals(["network", "resnet18-full"] + array, capsys)
        by_file = _cli_totals(["network", "--file", str(path)] + array,
                              capsys)
        assert by_name == by_file
        for scheme, totals in TOTALS.items():
            assert by_name[scheme] == totals[i], (scheme, side)
