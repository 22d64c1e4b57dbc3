"""End-to-end PIM fidelity replay: planning meets the functional stack.

The 4-D frontier's semantics rest on two contracts pinned here:

* **bit-exactness** — replaying any ``chip_pareto`` design point's
  per-stage solutions through the functional
  :class:`~repro.pim.engine.PIMEngine` under
  :class:`~repro.pim.noise.NoNoise` reproduces the
  :mod:`repro.pim.reference` direct convolution exactly, for every
  golden Table-I frontier point and for hypothesis-drawn input seeds;
* **monotone degradation** — the attached ``accuracy_proxy`` is 1.0
  exactly when noise-free and non-increasing as the
  :class:`~repro.pim.noise.LognormalNoise` sigma grows.

Noisy replays are pinned bit for bit too: ``fixtures/fidelity_noisy.json``
holds the exact :class:`~repro.pim.replay.StageFidelity` of every pinned
stage under two noise models at two seeds.  Regenerate it after an
*intentional* change to the noise streams with::

    PYTHONPATH=src python tests/test_fidelity.py
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import MappingEngine
from repro.core import ConvLayer, PIMArray
from repro.core.types import ConfigurationError
from repro.dse import chip_pareto
from repro.networks import get_network
from repro.pim import (FidelitySpec, LognormalNoise, NoNoise, StuckCells,
                       make_noise, replay_point, replay_stage)

FIXTURES = Path(__file__).parent / "fixtures"

#: The square ladder the golden chip_pareto fixtures sweep.
SIDES = (128, 256, 512)
NETWORKS = ("resnet18", "vgg13")

SIGMA_LADDER = (0.0, 0.05, 0.1, 0.2, 0.4)

NOISY_FIXTURE = FIXTURES / "fidelity_noisy.json"

#: Noise models the noisy fixture pins, by fixture label.
NOISY_MODELS = {
    "lognormal(0.05)": LognormalNoise(0.05),
    "lognormal(0.1)+stuck(0.02)": make_noise(sigma=0.1, stuck=0.02),
}

#: Replay seeds the noisy fixture pins.
NOISY_SEEDS = (0, 1)

#: Noisy replays run in a child process with one BLAS thread and
#: OpenBLAS's Haswell kernels.  A threaded or wider-SIMD dgemm splits
#: its dot products differently, which moves the last bits of noisy
#: outputs (ideal outputs are exact integers either way).
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _distinct_plans(front):
    """One representative per distinct per-stage solution tuple."""
    seen, plans = set(), []
    for point in front:
        key = tuple(id(s) for s in point.solutions)
        if key not in seen:
            seen.add(key)
            plans.append(point)
    return plans


@pytest.fixture(scope="module")
def engine():
    return MappingEngine()


def noisy_stages(mapping_engine):
    """``(label, stage index, solution)`` for every noisy-pinned stage.

    The ResNet-18 golden 512x512 plan covers whole-channel tiles,
    fine-grained tiles cut at row capacity (its 3x3x512x512 stage) and
    window groups clamped along x (its 7x7 stage).  Three extra plans
    cover groups clamped along both axes, an ``im2col`` layout whose row
    tiles start mid-channel, and a stride-2 padded layer with two
    output-channel tiles.
    """
    front = chip_pareto(get_network("resnet18"),
                        [PIMArray.square(side) for side in SIDES],
                        engine=mapping_engine)
    point = next(p for p in front if p.pool == "512x512")
    stages = [(f"resnet18@512x512/{index}", index, solution)
              for index, solution in enumerate(point.solutions)]
    fine = mapping_engine.solve(ConvLayer.square(16, 3, 64, 32, padding=1),
                                PIMArray.square(256), "im2col")
    strided = mapping_engine.solve(
        ConvLayer.square(15, 3, 24, 160, stride=2, padding=1),
        PIMArray.square(128), "vw-sdk")
    clamped = mapping_engine.solve(ConvLayer.square(13, 3, 8, 8),
                                   PIMArray.square(128), "vw-sdk")
    stages.append(("clamped 3x3x8x8@128x128", 0, clamped))
    stages.append(("im2col 3x3x64x32@256x256", 0, fine))
    stages.append(("stride-2 3x3x24x160@128x128", 0, strided))
    return stages


def blas_probe():
    """Digest of a seeded noisy matmul and sum, as the replay does them.

    It differs between hosts whose BLAS or vector math round
    differently, on which the committed floats cannot be reproduced.
    """
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(504, 512)) * np.exp(
        rng.normal(0.0, 0.1, size=(504, 512)))
    inputs = rng.integers(-4, 5, size=(72, 504)).astype(np.float64)
    out = inputs @ weights
    digest = hashlib.sha256(out.tobytes())
    digest.update(np.float64(np.sum(out * out)).tobytes())
    return digest.hexdigest()[:16]


def noisy_payload(mapping_engine):
    """Every pinned noisy replay as JSON-ready rows."""
    rows = []
    for label, stage, solution in noisy_stages(mapping_engine):
        for noise_label, noise in NOISY_MODELS.items():
            for seed in NOISY_SEEDS:
                fidelity = replay_stage(solution, noise=noise, seed=seed,
                                        stage=stage)
                rows.append({"stage": label, "noise": noise_label,
                             "seed": seed,
                             "fidelity": list(dataclasses.astuple(
                                 fidelity))})
    return rows


def pinned_noisy_payload():
    """:func:`noisy_payload` plus the probe, run under :data:`PINNED_BLAS`."""
    env = dict(os.environ, **PINNED_BLAS)
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--payload"], env=env, capture_output=True,
                           text=True, check=True)
    return json.loads(child.stdout)


# ----------------------------------------------------------------------
# Golden design points: NoNoise replay is bit-exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NETWORKS)
def test_golden_points_replay_bit_exact(name, engine):
    """Every golden frontier point's plan replays exactly (NoNoise)."""
    golden = json.loads(
        (FIXTURES / f"chip_pareto_{name}.json").read_text())
    front = chip_pareto(get_network(name),
                        [PIMArray.square(side) for side in SIDES],
                        engine=engine)
    assert len(front) == len(golden)  # same points the fixture pins
    for point in _distinct_plans(front):
        report = engine.point_fidelity(point.solutions)
        assert report.exact
        assert report.accuracy_proxy == 1.0
        assert report.error_norm == 0.0


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_golden_resnet_replay_exact_for_any_input_seed(seed):
    """Bit-exactness is input-independent: hypothesis draws the seed."""
    engine = MappingEngine()
    front = chip_pareto(get_network("resnet18"),
                        [PIMArray.square(side) for side in SIDES],
                        engine=engine)
    for point in _distinct_plans(front):
        report = replay_point(point, seed=seed)
        assert report.exact and report.accuracy_proxy == 1.0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 20),
       stage=st.integers(min_value=0, max_value=7))
def test_single_stage_replay_exact(seed, stage, engine):
    solution = engine.solve(ConvLayer.square(10, 3, 8, 8),
                            PIMArray.square(128), "vw-sdk")
    fidelity = replay_stage(solution, seed=seed, stage=stage)
    assert fidelity.exact
    assert fidelity.nrmse == 0.0


# ----------------------------------------------------------------------
# Noisy replays: pinned bit for bit
# ----------------------------------------------------------------------
def test_noisy_replays_match_committed_fixture():
    """Noise draws, accumulation order and duplicate-output resolution
    all reach these floats, so any drift in the replay path shows."""
    expected = json.loads(NOISY_FIXTURE.read_text())
    got = pinned_noisy_payload()
    if got["blas_probe"] != expected["blas_probe"]:
        pytest.skip("this host's BLAS rounds noisy products differently "
                    "from the host that pinned the fixture")
    assert got["rows"] == expected["rows"]


def test_noisy_fixture_is_sane():
    """Every pinned replay is really noisy, and both an ``im2col`` and
    VW-SDK layouts are pinned."""
    rows = json.loads(NOISY_FIXTURE.read_text())["rows"]
    assert len(rows) == 8 * len(NOISY_MODELS) * len(NOISY_SEEDS)
    for row in rows:
        scheme, _shape, _cycles, exact, error_sq, reference_sq, _max = \
            row["fidelity"]
        assert not exact and 0.0 < error_sq < reference_sq
    schemes = {row["fidelity"][0] for row in rows}
    assert schemes == {"vw-sdk", "im2col"}


# ----------------------------------------------------------------------
# accuracy_proxy semantics: perfect when ideal, monotone in sigma
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_plan(engine):
    layers = [ConvLayer.square(12, 3, 8, 16), ConvLayer.square(8, 3, 16, 8)]
    return [engine.solve(layer, PIMArray.square(128), "vw-sdk")
            for layer in layers]


def test_no_noise_scores_perfect(small_plan):
    report = replay_point(small_plan, noise=NoNoise())
    assert report.exact
    assert report.accuracy_proxy == 1.0
    assert report.nrmse == 0.0


def test_zero_sigma_and_zero_stuck_score_perfect(small_plan):
    assert replay_point(small_plan,
                        noise=LognormalNoise(0.0)).accuracy_proxy == 1.0
    assert replay_point(small_plan,
                        noise=StuckCells(0.0)).accuracy_proxy == 1.0


@pytest.mark.parametrize("seed", (0, 1, 2, 7))
def test_accuracy_proxy_monotone_in_sigma(small_plan, seed):
    proxies = [replay_point(small_plan, noise=LognormalNoise(sigma),
                            seed=seed).accuracy_proxy
               for sigma in SIGMA_LADDER]
    assert proxies[0] == 1.0
    for lo, hi in zip(proxies[1:], proxies):
        assert lo <= hi
    assert proxies[-1] < 1.0  # heavy noise really degrades


def test_noisy_replay_not_exact_but_scored(small_plan):
    report = replay_point(small_plan, noise=LognormalNoise(0.3), seed=0)
    assert not report.exact
    assert 0.0 < report.accuracy_proxy < 1.0
    assert report.error_norm > 0.0
    assert report.snr_db < float("inf")


# ----------------------------------------------------------------------
# FidelitySpec coercion + engine memoization
# ----------------------------------------------------------------------
def test_fidelity_spec_coercion():
    assert FidelitySpec.of(None).noise == NoNoise()
    assert FidelitySpec.of(True).noise == NoNoise()
    assert FidelitySpec.of(0).noise == NoNoise()
    assert FidelitySpec.of(0.1).noise == LognormalNoise(0.1)
    spec = FidelitySpec(noise=StuckCells(0.2), seed=3)
    assert FidelitySpec.of(spec) is spec
    assert FidelitySpec.of(StuckCells(0.2)).noise == StuckCells(0.2)


def test_fidelity_spec_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        FidelitySpec.of(-0.5)
    with pytest.raises(ConfigurationError):
        FidelitySpec.of("not a noise model")
    with pytest.raises(ConfigurationError):
        FidelitySpec(seed=-1)


def test_point_fidelity_empty_plan_rejected(engine):
    with pytest.raises(ConfigurationError):
        engine.point_fidelity([])


def test_point_fidelity_memoized(engine, small_plan):
    first = engine.point_fidelity(small_plan, LognormalNoise(0.1))
    second = engine.point_fidelity(small_plan, LognormalNoise(0.1))
    assert second is first  # served from the sweep memo
    other = engine.point_fidelity(small_plan, LognormalNoise(0.2))
    assert other is not first  # the noise model is part of the key


# ----------------------------------------------------------------------
# chip_pareto(fidelity=...) integration
# ----------------------------------------------------------------------
def test_chip_pareto_attaches_accuracy_proxy(engine):
    front = chip_pareto(get_network("resnet18"), [PIMArray.square(512)],
                        fidelity=True, engine=engine)
    assert front
    assert all(point.accuracy_proxy == 1.0 for point in front)


def test_chip_pareto_without_fidelity_leaves_proxy_none(engine):
    front = chip_pareto(get_network("resnet18"), [PIMArray.square(512)],
                        engine=engine)
    assert all(point.accuracy_proxy is None for point in front)


def test_chip_pareto_noisy_fidelity_scores_below_one(engine):
    front = chip_pareto(get_network("resnet18"), [PIMArray.square(512)],
                        fidelity=LognormalNoise(0.2), engine=engine)
    assert all(0.0 < point.accuracy_proxy < 1.0 for point in front)


def main(argv=None) -> int:
    """Regenerate the noisy fixture (intentional changes only).

    ``--payload`` prints the payload instead; the test and the
    regeneration both run it in a child under :data:`PINNED_BLAS`.
    """
    if (sys.argv[1:] if argv is None else argv) == ["--payload"]:
        print(json.dumps({"blas_probe": blas_probe(),
                          "rows": noisy_payload(MappingEngine())}))
        return 0
    payload = pinned_noisy_payload()
    rows = ",\n".join(json.dumps(row) for row in payload["rows"])
    NOISY_FIXTURE.write_text(
        "{\"blas_probe\": " + json.dumps(payload["blas_probe"])
        + ",\n \"rows\": [\n" + rows + "\n]}\n")
    print(f"wrote {NOISY_FIXTURE} ({len(payload['rows'])} noisy replays)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
