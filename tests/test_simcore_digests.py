"""Frozen RunResult digests over a fixed scenario corpus.

Each digest is a sha256 over the same fields as `bench/spans.py:run_digest`:
every sample, counter, the warm-up boundary snapshot and the busy/overhead/
idle accounting. The digests were recorded with the per-event heap
simulator that preceded the batched event loop, so a match shows the
current loop reproduces it bit for bit. The corpus covers saturated rings
(typical and largest, overflow on and off, legal and illegal TTRTs),
partial active subsets, WIC traffic at the three fig3 loads with two
seeds, zero token time, and scripted arrivals that land exactly on token
visits, frame completions and the warm-up mark.
"""

from __future__ import annotations

import hashlib

import pytest

from fddiperf.presets import FIG3_FIBER_KM, FIG3_STATIONS, PRESETS
from fddiperf.simcore import RingConfig, run
from fddiperf.workload import SaturationWorkload, ScriptedWorkload, WicWorkload


def run_digest(result) -> str:
    b = result.boundary
    fields = (
        result.duration_ns, result.seed, result.completed_bits, result.completed_frames,
        result.station_bits, result.response_samples, result.access_samples,
        result.rotation_count, result.max_rotation_ns, result.trt_violations,
        result.trt_bound_enforced, result.busy_ns, result.overhead_ns, result.idle_ns,
        (b.at_ns, b.completed_bits, b.busy_ns, b.station_bits), result.sourced_stations,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _preset_ring(name: str, ttrt_ms: float, **kwargs) -> RingConfig:
    p = PRESETS[name]
    return RingConfig.uniform(p.mac_count, p.fiber_km, ttrt_ms, **kwargs)


def _fig3_ring(ttrt_ms: float, **kwargs) -> RingConfig:
    return RingConfig.uniform(FIG3_STATIONS, FIG3_FIBER_KM, ttrt_ms, allow_any_ttrt=True, **kwargs)


def _scripted(n: int, script: dict, duration_ms: float, ttrt_ms: float = 4.0, **kwargs):
    cfg = RingConfig.uniform(n, 0.0, ttrt_ms, token_time_us=0.0, **kwargs)
    return lambda: run(cfg, ScriptedWorkload(script), duration_ms=duration_ms, seed=0)


def _saturated_cases() -> dict:
    cases = {}
    for preset, frame_bytes, duration_ms in (("typical", 512, 300.0), ("largest", 100, 400.0)):
        for ttrt in (8.0, 20.0, 165.0):
            for overflow in (True, False):
                cfg = _preset_ring(preset, ttrt, async_overflow=overflow)
                w = SaturationWorkload(frame_bytes=frame_bytes)
                name = f"sat-{preset}-{ttrt:g}-{'overflow' if overflow else 'no-overflow'}"
                cases[name] = (lambda c=cfg, w=w, d=duration_ms: run(c, w, d, seed=1))
    illegal = _preset_ring("typical", 0.3, allow_any_ttrt=True, token_time_us=0.0)
    cases["sat-typical-illegal-0.3"] = lambda: run(
        illegal, SaturationWorkload(frame_bytes=4500), 50.0, seed=1)
    swamped = _preset_ring("largest", 2.0, allow_any_ttrt=True)
    cases["sat-largest-below-latency-2"] = lambda: run(
        swamped, SaturationWorkload(frame_bytes=512), 60.0, seed=1)
    return cases


def _subset_cases() -> dict:
    typical = _preset_ring("typical", 8.0)
    largest = _preset_ring("largest", 20.0)
    return {
        "active-typical-5": lambda: run(
            typical, SaturationWorkload(frame_bytes=512, stations=tuple(range(5))), 300.0, seed=1),
        "active-largest-50": lambda: run(
            largest, SaturationWorkload(frame_bytes=100, stations=tuple(range(50))), 200.0, seed=2),
        "active-typical-sparse": lambda: run(
            typical, SaturationWorkload(frame_bytes=4500, stations=(3, 11, 19)), 300.0, seed=1),
        "active-wic-sparse": lambda: run(
            _fig3_ring(8.0), WicWorkload(mean_interburst_ms=0.9, stations=(2, 9, 10, 33)),
            300.0, seed=4),
    }


def _wic_cases() -> dict:
    cases = {}
    for load in (28, 58, 90):
        w = WicWorkload.for_utilization(load / 100.0, FIG3_STATIONS)
        for ttrt in (0.5, 8.0):
            for seed in (1, 2):
                cfg = _fig3_ring(ttrt)
                cases[f"wic-{load}-{ttrt:g}-seed{seed}"] = (
                    lambda c=cfg, w=w, s=seed: run(c, w, 250.0, seed=s))
    w90 = WicWorkload.for_utilization(0.90, FIG3_STATIONS)
    cases["wic-90-illegal-0.2"] = lambda: run(_fig3_ring(0.2), w90, 150.0, seed=3)
    cases["wic-90-0.5-no-overflow"] = lambda: run(
        _fig3_ring(0.5, async_overflow=False), w90, 150.0, seed=3)
    return cases


def _variant_cases() -> dict:
    w = WicWorkload.for_utilization(0.58, FIG3_STATIONS)
    return {
        "token0-sat-typical": lambda: run(
            _preset_ring("typical", 8.0, token_time_us=0.0), SaturationWorkload(512), 200.0, seed=1),
        "token0-wic-58": lambda: run(_fig3_ring(8.0, token_time_us=0.0), w, 200.0, seed=1),
        "idle-typical": lambda: run(_preset_ring("typical", 8.0), None, 100.0, seed=0),
        "no-warmup-wic-28": lambda: run(
            _fig3_ring(8.0), WicWorkload.for_utilization(0.28, FIG3_STATIONS), 100.0, seed=5,
            warmup_fraction=0.0),
    }


def _scripted_cases() -> dict:
    dense_us = 10.0 * 5.085 + 6 * 1.0
    dense = RingConfig(
        segment_delays_us=(dense_us / 2, dense_us / 2),
        ttrt_ms=8.0,
        token_time_us=0.0,
    )
    sparse = RingConfig.uniform(8, 10.0, 8.0, token_time_us=0.0)
    return {
        # the hand-traced cases of test_simcore.py
        "script-mid-burst": _scripted(1, {0: [(0.0, [4500]), (0.1, [100])]}, 5.0, ttrt_ms=8.0),
        "script-unusable-token": _scripted(
            2, {0: [(0.0, [4500] * 20)], 1: [(0.1, [100])]}, 30.0),
        "script-hand-trace": _scripted(2, {1: [(0.5, [100])]}, 4.0),
        "skip-chain-sparse": lambda: run(
            sparse, SaturationWorkload(frame_bytes=512, stations=(0, 3)), 500.0, seed=5),
        "skip-chain-dense": lambda: run(dense, SaturationWorkload(frame_bytes=512), 500.0, seed=5),
        # arrivals on the token's 1 us grid: at visits, one hop apart, at
        # frame completions (100 B = 8 us), at the warm-up mark (0.4 ms)
        # and in same-instant bursts
        "script-grid-ties": _scripted(
            4,
            {
                0: [(0.0, [100]), (0.0, [512]), (0.4, [100, 100])],
                1: [(0.001, [100]), (0.002, [100]), (0.003, [100]), (0.011, [100])],
                2: [(0.0, [100, 100]), (0.018, [100]), (0.026, [100]), (0.4, [512])],
                3: [(0.009, [100]), (0.017, [100]), (0.025, [4500]), (0.399, [100])],
            },
            4.0,
        ),
        "script-grid-ties-no-overflow": _scripted(
            3,
            {
                0: [(0.0, [4500] * 3), (0.3, [100])],
                1: [(0.002, [512]), (0.006, [512]), (0.3, [100])],
                2: [(0.001, [100] * 7), (0.3, [100])],
            },
            5.0,
            ttrt_ms=0.5,
            async_overflow=False,
            allow_any_ttrt=True,
        ),
        # a burst drawn at the instant of the token's previous event: the
        # tie falls back on how that earlier burst was ordered
        "script-chained-tie": lambda: run(
            RingConfig.uniform(1, 0.0, 4.0, token_time_us=1.0),
            ScriptedWorkload({0: [(0.0, [4500, 125]), (0.051199, [125, 100]), (0.15, []),
                                  (0.63, [4500]), (0.99, [25, 100])]}),
            duration_ms=1.0, seed=0, warmup_fraction=0.25),
    }


CORPUS = {
    **_saturated_cases(),
    **_subset_cases(),
    **_wic_cases(),
    **_variant_cases(),
    **_scripted_cases(),
}

DIGESTS = {
    "active-largest-50": "79d74d7590e2590d37cd7bb17d96b26c9541455972406fedc17c74e3d284aefe",
    "active-typical-5": "55da2514b779021954fb603844993ee96f07f7c1822a22b79ffb9a45d3be12ac",
    "active-typical-sparse": "95ba59d2081014db4cc840d0634e457be422ae1a95ea14f3a18fd71b3449268c",
    "active-wic-sparse": "a47dd05b952e277f90021cc50ef76cff7434ebc125748457d0358decfc3b0d45",
    "idle-typical": "22ce268ff93e3d0bb27c2ea5880bd1abde3b2766794795b805d903057fddd6df",
    "no-warmup-wic-28": "046813582cad2c5f6791ebc2ef532064bcf2b2567d16d58e93b998bb250fa71b",
    "sat-largest-165-no-overflow": "c98ef6c7f76ce10e12a363d368583c45d24da5076c0a1dab9a02d46f18a3d5e9",
    "sat-largest-165-overflow": "7747ebd548a47b45cdd8b54fb8b741901135fb6c4dad59a842944c3721e01114",
    "sat-largest-20-no-overflow": "0346580bf613e186022cc9f24d55f589212d661ed67f7fd897e3e8bd732dc922",
    "sat-largest-20-overflow": "b4c669dac1acb0f5e4ad3cf6ae0513f3aaf4b79047f8bc0114b688e7b9259d2f",
    "sat-largest-8-no-overflow": "6a072cb69eb5623053330d72fbf1eb07916dfbf8048dbeb3a411b16c666438df",
    "sat-largest-8-overflow": "9a50c538dc4d03b76e6f6f06d29a9186337604b004f07a623de0804e2b771c8d",
    "sat-largest-below-latency-2": "4053f4427a9446727a868bb7a28993352fdf7beb4b6924d4b0921e8219093ed6",
    "sat-typical-165-no-overflow": "4c65840c250e632dbf993263f210669fbb4e0a06e141037ef0823e3eaab8a48f",
    "sat-typical-165-overflow": "39ad96be91ef46f30f6f5ef3f17c0bb376c4560cff6debee7f496f6eb2ce71e1",
    "sat-typical-20-no-overflow": "26545d59a5cc55966138bcf97cee3d8c731d63d62864b64ef4e53a18682d539a",
    "sat-typical-20-overflow": "892513141dcedce34f16c82cd26850791b5e1284967e0fb1d8bb02b95f0a9a6d",
    "sat-typical-8-no-overflow": "4baf736dec4b22245b0e5afb2aebaf1685a668b98b4a02ade9da5450d2700a32",
    "sat-typical-8-overflow": "cebdafe00cb46ca217ac95e8fa5b164cc9daca2cb8615edc055bf15c83442576",
    "sat-typical-illegal-0.3": "f8823a0005c9dd3e62d3fcdafcf56db1eaed3dc83656459c82ab917c580a0619",
    "script-chained-tie": "148e6f32a663739e88a52329ece1aea24a4534cc412e0c385609cbfc3de7aacc",
    "script-grid-ties": "2cf08c262b3ed3a718f807e28d3bdfd106cd992b5b92eb9685d0d9f4ddb3fcd2",
    "script-grid-ties-no-overflow": "edaffbf8ed9928bf748e653f206612924224f8f5b21a6ed782cf0d3afb7a9a28",
    "script-hand-trace": "1e201d4a0d41f4b9a999a12b74cfd95e67bd9e6d8371043868d0545b92e79166",
    "script-mid-burst": "07063506427b3d301a2ddc2529a60f82a8142129d3a1a8e65326920e9c0da1b9",
    "script-unusable-token": "fedc8f06611d677611c757e5d50975f3eaf99434aa080f474332ec2ec24a010a",
    "skip-chain-dense": "5a00b25b4b9e6f981b6f9e0006f3c9c64b2d1c0116db5f3b2ae47359a842c823",
    "skip-chain-sparse": "2dbf143a09e7e69201c144e543f590edfe61b959fa9a32fed618eedfe2cd2c15",
    "token0-sat-typical": "fc2405289ae695d1fa0ed44a3b9ba3013b22894ad04a23cdc9d85902935ddb46",
    "token0-wic-58": "f4b3641275947c0011ead2f6812a1a0f3080de1b44458b4245f26ad30433ca65",
    "wic-28-0.5-seed1": "fb0054b544392d7115641a751fbe790bcd565bbd8729ac34cb57349466111a9f",
    "wic-28-0.5-seed2": "9a4b7981a2c7656874bb67038d670caf767343d8910a338294c88ff2ccabd847",
    "wic-28-8-seed1": "38d85762303b3ba42931fa361bbe4b01f962cdb5173ddbe203b746005b6e704f",
    "wic-28-8-seed2": "da18b68674c27e9989d000faa8abaffc22021a194d0153128228f8d4de11f74a",
    "wic-58-0.5-seed1": "0596e166b460475c6a61cecb50d043fe1ad9ab5d3daa7fa96bd92cd1f1432979",
    "wic-58-0.5-seed2": "55077908473e88126f1a788ea0516ab1e5e74c52b68056d4253b1e6cf97a73ac",
    "wic-58-8-seed1": "5b7743af376fe21fba89dca37270a46f21e10ab721945cfc56675aeeda47a293",
    "wic-58-8-seed2": "469ee499d990667ae039b04b1a7598d83e2251693928dd5a5892b87467474bf6",
    "wic-90-0.5-no-overflow": "c53b7e91649622663540ee6045e3470c00c1ba15aff90c459d0166383282d63f",
    "wic-90-0.5-seed1": "861f9e7bebd234f15b79a237fa4de78467e9c8ac9c3ae359ab17887aa742fd2a",
    "wic-90-0.5-seed2": "48a13eae0054f61dab3c9b45267597525fbbfa8becced63b4110d1b87bf08656",
    "wic-90-8-seed1": "190a84e1e13c4d49444b4e8493058b080666edc4c3b24c8ae7d8236202523a4e",
    "wic-90-8-seed2": "cf7ccb149701b9fed003af5c7b310b1631f13376a9cbd0253592b3957e034a0a",
    "wic-90-illegal-0.2": "a74d2340783b67730616a018675150ea9d199fe333f6a4dfe88e0ac66e885be5",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_run_result_digest_is_frozen(name):
    assert run_digest(CORPUS[name]()) == DIGESTS[name]
