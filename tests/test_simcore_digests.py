"""Frozen RunResult digests over a fixed scenario corpus.

Each digest is a sha256 over the same fields as `bench/spans.py:run_digest`:
every sample, counter, the warm-up boundary snapshot and the busy/overhead/
idle accounting. The digests were recorded with the per-event heap
simulator that preceded the batched event loop, so a match shows the
current loop reproduces it bit for bit. The corpus covers saturated rings
(typical and largest, overflow on and off, legal and illegal TTRTs),
partial active subsets, WIC traffic at the three fig3 loads with two
seeds, zero token time, scripted arrivals that land exactly on token
visits, frame completions and the warm-up mark, and runs whose end, mark or
rotation-bound violations fall inside lap 0. The lap-0 digests were
recorded with the pass-by-pass walk of lap 0 that preceded its closed form.
The scripted digests (each case with "script" in its name), of bursts that
land on a token event of their own stop (in zero-gap runs, or at its frame
completions) and of empty bursts, are those of the event-by-event reference
simulator in `test_simcore_properties.py`, in which the token event at t
sees every burst at or before t; that module checks it gives each of them.
It checks too that its pass-by-pass walk gives the digest of every
saturated and idle case. In both, the warm-up boundary holds the ring's
counters after its events at the mark, so the measured window is
(mark, end]; four saturated digests, in which station 0 holds through a
mark that is a frame edge, were recorded again from the walk when the
window was made so.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial

import pytest

from fddiperf import simcore
from fddiperf.presets import FIG3_FIBER_KM, FIG3_STATIONS, PRESETS
from fddiperf.simcore import RingConfig, run
from fddiperf.workload import SaturationWorkload, ScriptedWorkload, WicWorkload


DIGEST_FIELDS = (
    "duration_ns", "seed", "completed_bits", "completed_frames", "station_bits",
    "response_samples", "access_samples", "rotation_count", "max_rotation_ns", "trt_violations",
    "trt_bound_enforced", "busy_ns", "overhead_ns", "idle_ns", "boundary", "sourced_stations",
)


def digest_fields(result) -> dict:
    """The fields of a run that its digest covers, in order, the boundary
    snapshot as a tuple."""
    fields = {name: getattr(result, name) for name in DIGEST_FIELDS}
    b = result.boundary
    fields["boundary"] = (b.at_ns, b.completed_bits, b.busy_ns, b.station_bits)
    return fields


def digest(fields: dict) -> str:
    return hashlib.sha256(repr(tuple(fields.values())).encode()).hexdigest()


def run_digest(result) -> str:
    return digest(digest_fields(result))


def _preset_ring(name: str, ttrt_ms: float, **kwargs) -> RingConfig:
    p = PRESETS[name]
    return RingConfig.uniform(p.mac_count, p.fiber_km, ttrt_ms, **kwargs)


def _fig3_ring(ttrt_ms: float, **kwargs) -> RingConfig:
    return RingConfig.uniform(FIG3_STATIONS, FIG3_FIBER_KM, ttrt_ms, **kwargs)


def _scripted(n: int, script: dict, duration_ms: float, ttrt_ms: float = 4.0, **kwargs):
    cfg = RingConfig.uniform(n, 0.0, ttrt_ms, token_time_us=0.0, **kwargs)
    return partial(run, cfg, ScriptedWorkload(script), duration_ms, 0)


def _saturated_cases() -> dict:
    cases = {}
    for preset, frame_bytes, duration_ms in (("typical", 512, 300.0), ("largest", 100, 400.0)):
        for ttrt in (8.0, 20.0, 165.0):
            for overflow in (True, False):
                cfg = _preset_ring(preset, ttrt, async_overflow=overflow)
                w = SaturationWorkload(frame_bytes=frame_bytes)
                name = f"sat-{preset}-{ttrt:g}-{'overflow' if overflow else 'no-overflow'}"
                cases[name] = partial(run, cfg, w, duration_ms, 1)
    illegal = _preset_ring("typical", 0.3, token_time_us=0.0)
    cases["sat-typical-illegal-0.3"] = partial(
        run, illegal, SaturationWorkload(frame_bytes=4500), 50.0, 1)
    swamped = _preset_ring("largest", 2.0)
    cases["sat-largest-below-latency-2"] = partial(
        run, swamped, SaturationWorkload(frame_bytes=512), 60.0, 1)
    return cases


def _subset_cases() -> dict:
    typical = _preset_ring("typical", 8.0)
    largest = _preset_ring("largest", 20.0)
    return {
        "active-typical-5": partial(
            run, typical, SaturationWorkload(frame_bytes=512, stations=tuple(range(5))), 300.0, 1),
        "active-largest-50": partial(
            run, largest, SaturationWorkload(frame_bytes=100, stations=tuple(range(50))), 200.0, 2),
        "active-typical-sparse": partial(
            run, typical, SaturationWorkload(frame_bytes=4500, stations=(3, 11, 19)), 300.0, 1),
        "active-wic-sparse": partial(
            run, _fig3_ring(8.0), WicWorkload(mean_interburst_ms=0.9, stations=(2, 9, 10, 33)),
            300.0, 4),
    }


def _wic_cases() -> dict:
    cases = {}
    for load in (28, 58, 90):
        w = WicWorkload.for_utilization(load / 100.0, FIG3_STATIONS)
        for ttrt in (0.5, 8.0):
            for seed in (1, 2):
                cfg = _fig3_ring(ttrt)
                cases[f"wic-{load}-{ttrt:g}-seed{seed}"] = partial(run, cfg, w, 250.0, seed)
    w90 = WicWorkload.for_utilization(0.90, FIG3_STATIONS)
    cases["wic-90-illegal-0.2"] = partial(run, _fig3_ring(0.2), w90, 150.0, 3)
    cases["wic-90-0.5-no-overflow"] = partial(
        run, _fig3_ring(0.5, async_overflow=False), w90, 150.0, 3)
    return cases


def _variant_cases() -> dict:
    w = WicWorkload.for_utilization(0.58, FIG3_STATIONS)
    return {
        "token0-sat-typical": partial(run, _preset_ring("typical", 8.0, token_time_us=0.0),
                                      SaturationWorkload(512), 200.0, 1),
        "token0-wic-58": partial(run, _fig3_ring(8.0, token_time_us=0.0), w, 200.0, 1),
        "idle-typical": partial(run, _preset_ring("typical", 8.0), None, 100.0, 0),
        "no-warmup-wic-28": partial(
            run, _fig3_ring(8.0), WicWorkload.for_utilization(0.28, FIG3_STATIONS), 100.0, 5,
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
        "skip-chain-sparse": partial(
            run, sparse, SaturationWorkload(frame_bytes=512, stations=(0, 3)), 500.0, 5),
        "skip-chain-dense": partial(run, dense, SaturationWorkload(frame_bytes=512), 500.0, 5),
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
        ),
        # one station with a 1 us token time: bursts on its first visit and
        # inside its holdings, an empty one, and the warm-up mark (0.25 ms)
        # inside a frame
        "script-chained-tie": partial(
            run, RingConfig.uniform(1, 0.0, 4.0, token_time_us=1.0),
            ScriptedWorkload({0: [(0.0, [4500, 125]), (0.051199, [125, 100]), (0.15, []),
                                  (0.63, [4500]), (0.99, [25, 100])]}),
            1.0, 0, 0.25),
    }


def _grid_script(seed: int, n: int, steps: int, step_ms: float) -> dict:
    """A seeded script of n stations on a grid of step_ms: a third of the
    gaps zero, bursts of 0, 1 or 2 frames of 25, 100 or 512 bytes."""
    rng = random.Random(seed)
    script = {}
    for station in range(n):
        bursts, at = [], 0
        while at < steps:
            at += rng.choice((0, 0, 1, 1, 2, 3, 8, 16))
            bursts.append((at * step_ms, rng.choice(([], [100], [100, 100], [512], [25]))))
        script[station] = bursts
    return script


def _tie_cases() -> dict:
    """Bursts that tie with a token event of their own stop, and empty
    bursts."""
    return {
        # stop 1 is visited at 4 us, the instant of four of its bursts, one
        # of them empty, after one at 3.5 us: the visit sees them all; stops
        # 0 and 2 take theirs in at that instant
        "script-zero-gap-held": _scripted(3, {
            0: [(0.004, [100])],
            1: [(0.0035, [100]), (0.004, [100]), (0.004, [512]), (0.004, []), (0.004, [100]),
                (0.02, [100])],
            2: [(0.004, [100, 100]), (0.004, [])],
        }, 1.0),
        # bursts at the holder's own frame completions go out in the same
        # holding while its budget lasts
        "script-completion-ties": _scripted(2, {
            0: [(0.0005, [100]), (0.01, [100]), (0.018, [100]), (0.018, []), (0.018, [100]),
                (0.05, [100]), (0.058, [100])],
            1: [(0.0015, []), (0.0025, [100]), (0.011, [100]), (0.019, []), (0.019, [100])],
        }, 1.0),
        "script-empty-bursts": _scripted(3, {
            0: [(0.0, []), (0.0, []), (0.003, []), (0.05, [])],
            1: [(0.001, []), (0.004, []), (0.004, [100]), (0.1, []), (0.1, [])],
            2: [(0.0, []), (0.2, [])],
        }, 0.5),
        # 1 us grids at a TTRT of 50 us: bursts land on token events of
        # their stop, most of them at a frame completion
        "script-grid-random-ties": _scripted(
            1, _grid_script(22, 1, 300, 0.001), 0.36, ttrt_ms=0.05),
        "script-grid-random-ties-no-overflow": _scripted(
            2, _grid_script(22, 2, 300, 0.001), 0.36, ttrt_ms=0.05,
            async_overflow=False),
    }


def _stretch_cases() -> dict:
    """Edges of the closed-form stretch of passes with no capture."""
    uneven = RingConfig(
        tuple((3.0, 1.0, 98.0, 31.0, 74.0)[i % 5] * 0.35 for i in range(173)), 4.0,
        async_overflow=False)
    return {
        # every sourced stop lies past the TTRT from station 0: no capture at
        # all, and rotations of one idle period over 2 x TTRT are only counted
        "stretch-idle-rotation-over-ttrt": partial(
            run, RingConfig.uniform(200, 100.0, 0.4),
            SaturationWorkload(512, stations=tuple(range(100, 200))), 50.0, 1),
        # the next usable stop lies past the wrap
        "stretch-uneven-subset-no-overflow": partial(
            run, uneven,
            SaturationWorkload(2000, stations=(12, 13, 18, 57, 64, 80, 81, 99, 101, 109, 122, 148)),
            60.0, 1),
        # an idle bursty ring at a TTRT below half its idle rotation: whole
        # idle laps count their rotations as violations
        "stretch-wic-idle-laps-over-2-ttrt": partial(
            run, RingConfig.uniform(10, 100.0, 0.2),
            WicWorkload.for_utilization(0.01, 10), 100.0, 3),
        # the warm-up mark (25 ms) and the end both fall between two passes
        "stretch-largest-mark-and-end": partial(
            run, _preset_ring("largest", 8.0), SaturationWorkload(100), 250.0, 1),
    }


def _lap0_cases() -> dict:
    """Lap 0, where every stop last saw the token at t = 0: its end, the
    warm-up mark and the rotation bound inside it."""
    largest = _preset_ring("largest", 8.0)
    illegal = _preset_ring("largest", 1 / 64)
    late = tuple(range(300, 1000, 7))
    # 200 idle stops 1 us apart: a burst at station 150 as station 20 is
    # passed, one at station 40 on its own pass, and one at station 92 on
    # its own pass at the warm-up mark (0.1 ms), once station 40 has sent
    idle = {**{i: [] for i in range(200)},
            150: [(0.02, [512])], 40: [(0.04, [100])], 92: [(0.1, [100])]}
    return {
        # station 0 holds 8 ms; the run ends in the unusable passes after it
        "lap0-largest-ends-in-lap": partial(run, largest, SaturationWorkload(100), 10.0, 1),
        "lap0-largest-mark-in-lap": partial(
            run, largest._replace(async_overflow=False), SaturationWorkload(100), 95.0, 1),
        # a TTRT of 1/64 ms: lap 0 counts the rotations of 2 x TTRT or more
        "lap0-largest-illegal-1/64": partial(run, illegal, SaturationWorkload(100), 5.0, 1),
        # the first stop is station 300, 0.87 ms from station 0: usable at
        # TTRT 8 ms; at 0.4 ms it is past 2 x TTRT and no stop of lap 0 is usable
        "lap0-subset-late-first-stop": partial(
            run, largest._replace(async_overflow=False), SaturationWorkload(4500, late), 30.0, 1),
        "lap0-subset-late-first-stop-illegal": partial(
            run, illegal._replace(ttrt_ms=0.4), SaturationWorkload(512, late), 12.0, 1),
        "lap0-script-idle-ties": _scripted(200, idle, 1.0),
    }


# each case a partial of run, so that a simulator other than run can be
# handed its arguments
CORPUS = {
    **_saturated_cases(),
    **_subset_cases(),
    **_wic_cases(),
    **_variant_cases(),
    **_scripted_cases(),
    **_tie_cases(),
    **_stretch_cases(),
    **_lap0_cases(),
}

DIGESTS = {
    "active-largest-50": "b13693d64a89057f58e7c23bc7891b04e7663417fd22fa60a2b0f1b775c9efa8",
    "active-typical-5": "55da2514b779021954fb603844993ee96f07f7c1822a22b79ffb9a45d3be12ac",
    "active-typical-sparse": "95ba59d2081014db4cc840d0634e457be422ae1a95ea14f3a18fd71b3449268c",
    "active-wic-sparse": "a47dd05b952e277f90021cc50ef76cff7434ebc125748457d0358decfc3b0d45",
    "idle-typical": "22ce268ff93e3d0bb27c2ea5880bd1abde3b2766794795b805d903057fddd6df",
    "lap0-largest-ends-in-lap": "c4111a9137e04d6da65456da6c821087e03b007437029cbb0654485876915f95",
    "lap0-largest-illegal-1/64": "6a50b0fbc93285eeefd150c63604b65ba3aaeacda13dea8843a1c4b6a127e594",
    "lap0-largest-mark-in-lap": "fac3fd19bd7dc04a37ba75e3aaa00ea2bb83148d68b307c5fbe72a99a9035db6",
    "lap0-script-idle-ties": "d0db616764a32f53ef0a4138eced5b026163f9e6c2b48ba56a5b6dff6f5282ac",
    "lap0-subset-late-first-stop": "c50f4a45935130ec268a4a9c7ba4e9d155c7937d7a34ce060a86406518b663e7",
    "lap0-subset-late-first-stop-illegal": "5fbbb0ef9246c940c73ea270ebcefa77d64a76f82386a4bc4f1c0a205253f0c9",
    "no-warmup-wic-28": "046813582cad2c5f6791ebc2ef532064bcf2b2567d16d58e93b998bb250fa71b",
    "sat-largest-165-no-overflow": "64072288badf077427f6ee17726d6d0583afad4c59a7933187ad575b65b867b1",
    "sat-largest-165-overflow": "7583ff91afd954c80b01e6a0da0aebead3c85795e416a939e5ba66fdee47b4c7",
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
    "script-chained-tie": "d72badff3d3d06e8e1d9666ec39a861d8df26ef5bc343a9bb8bdefcef1a2417a",
    "script-completion-ties": "4dbda97d2c77454bde57fd76fdd980829441caa539dcd230d7055bc5e7bfddc8",
    "script-empty-bursts": "1f3266ced0926f7ee7c3284fd53e4b86990e266151234418bb9ebcc0de19b272",
    "script-grid-random-ties": "6b8953c469d66f36fb27699d924ecad1c0b209f8f565f457cc8775cfcb59f6eb",
    "script-grid-random-ties-no-overflow": "344341ad9da5c094c2ebeddaa5c8cf5f68aa6294752086b1325dd506d5805967",
    "script-grid-ties": "abd7841018adbdeeec78a24bce01defa5779b86ac8b7a5ad2bfc551e4a30bd35",
    "script-grid-ties-no-overflow": "d6640cf9a61a609875b5445c999016f68ed6ebda14aeff96097408f06b117f6e",
    "script-hand-trace": "1e201d4a0d41f4b9a999a12b74cfd95e67bd9e6d8371043868d0545b92e79166",
    "script-mid-burst": "87c35d5e24554f6243354ebdc0889383307487d6f08529b091d54cebe4946b78",
    "script-unusable-token": "b232f519559fdc1c3267cefa14c69d73f7fcda48d65552ae3e061b96772da02d",
    "script-zero-gap-held": "313bcc1f442796a843c4fd1b20cc3e69f8ad9b1a873df79395b896b371d95fbc",
    "skip-chain-dense": "5a00b25b4b9e6f981b6f9e0006f3c9c64b2d1c0116db5f3b2ae47359a842c823",
    "skip-chain-sparse": "2dbf143a09e7e69201c144e543f590edfe61b959fa9a32fed618eedfe2cd2c15",
    "stretch-idle-rotation-over-ttrt": "92a5503921c2d6d3cb7a6612ddf0e73487e358d91acd8bbc427be4d035c68c82",
    "stretch-largest-mark-and-end": "b2de296614a3eafff91da0fc7c88b5448e3db59fced3464f5161dc3b1e07a342",
    "stretch-uneven-subset-no-overflow": "527ab0fc610fb5384979e0697ca722e3564828a436db6eb8af42fd991ac03fd8",
    "stretch-wic-idle-laps-over-2-ttrt": "371c37e275715752541b34e568b21a2c453f3eb4a2fcb534f326d17251ec5955",
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


@pytest.mark.parametrize("ring,load", [
    pytest.param(_preset_ring("largest", 8.0), SaturationWorkload(frame_bytes=100),
                 id="saturated-largest"),
    pytest.param(_fig3_ring(8.0), WicWorkload(mean_interburst_ms=0.9, stations=(2, 9, 10, 33)),
                 id="wic-subset"),
])
def test_a_ring_evicted_from_the_layout_cache_runs_as_a_fresh_one(ring, load):
    # a ring's layout is cached for 8 rings: a ring run again after nine
    # others is laid out anew, and its run is the same as a fresh ring's
    simcore._layout.cache_clear()
    fresh = run_digest(run(ring, load, 50.0, seed=3))
    assert run_digest(run(ring, load, 50.0, seed=3)) == fresh  # from the cache
    for n in range(2, 11):
        run(RingConfig.uniform(n, 1.0, 8.0), SaturationWorkload(frame_bytes=100), 5.0, seed=3)
    misses = simcore._layout.cache_info().misses
    assert run_digest(run(ring, load, 50.0, seed=3)) == fresh
    assert simcore._layout.cache_info().misses == misses + 1
    # no run can change a layout that later runs share
    layout = simcore._layout(ring.segment_delays_us, ring.token_time_us)
    assert type(layout) is tuple
    assert type(layout[0]) is tuple and type(layout[1]) is tuple
