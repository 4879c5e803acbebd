"""Frozen CLI corpus: every figure preset, table1, each sweep variable in
both modes, a bursty sweep, and analyze / simulate / validate on their own.

For each case the exit code, the sha256 of the CSV bytes written with
--out (None when no file is written) and the sha256 of stdout are pinned.
The values were recorded before the sweep engine was unified and must not
be edited: a refactor of the CLI is correct only if every case still
matches.
"""

from __future__ import annotations

import hashlib

import pytest

from fddiperf import cli

SIM = ("--duration-ms", "40")

CASES: dict[str, tuple[str, ...]] = {
    "table1": ("table1",),
    **{f"fig{i}": ("sweep", "--figure", f"fig{i}") for i in (1, 2, 4, 5, 6, 7, 8, 9)},
    "fig3": ("sweep", "--figure", "fig3", "--duration-ms", "40", "--replications", "2",
             "--seed", "3"),
    "both-ttrt-saturated-marker": ("sweep", "--var", "ttrt", "--grid", "1,8", "--preset",
                                   "largest", "--allow-any-ttrt", "--mode", "both",
                                   "--frame-bytes", "100") + SIM,
    "both-ttrt-replications": ("sweep", "--var", "ttrt", "--grid", "4,8,20", "--preset",
                               "typical", "--mode", "both", "--replications", "2",
                               "--seed", "7", "--token-time-us", "0") + SIM,
    "both-extent": ("sweep", "--var", "extent", "--grid", "1,10,100", "--macs", "20",
                    "--ttrt", "8", "--mode", "both") + SIM,
    "both-extent-preset": ("sweep", "--var", "extent", "--grid", "2,50", "--preset", "big",
                           "--mode", "both", "--no-overflow") + SIM,
    "both-total-stations": ("sweep", "--var", "total_stations", "--grid", "10,40",
                            "--fiber-km", "4", "--active", "5", "--ttrt", "8",
                            "--mode", "both") + SIM,
    "both-active-macs": ("sweep", "--var", "active_macs", "--grid", "1,5,20", "--preset",
                         "typical", "--mode", "both", "--frame-bytes", "4500") + SIM,
    "both-frame-size": ("sweep", "--var", "frame_size", "--grid", "100,4500", "--preset",
                        "typical", "--ttrt", "12", "--mode", "both") + SIM,
    "analytical-ttrt-frame": ("sweep", "--var", "ttrt", "--grid", "1,2,4,8,165",
                              "--preset", "largest", "--frame-bytes", "512"),
    "analytical-active": ("sweep", "--var", "active_macs", "--grid", "1,100,1000",
                          "--preset", "largest", "--ttrt", "4"),
    "simulate-load-pct": ("sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "typical",
                          "--mode", "simulate", "--load-pct", "40", "--replications", "2",
                          "--seed", "5") + SIM,
    "simulate-load-pct-active": ("sweep", "--var", "active_macs", "--grid", "2,10",
                                 "--macs", "20", "--fiber-km", "4", "--mode", "simulate",
                                 "--load-pct", "70") + SIM,
    "analyze-typical": ("analyze", "--preset", "typical", "--ttrt", "4"),
    "analyze-frame": ("analyze", "--preset", "big", "--ttrt", "8", "--frame-bytes", "4500"),
    "analyze-active": ("analyze", "--preset", "largest", "--ttrt", "20", "--active", "10",
                       "--frame-bytes", "100"),
    "analyze-custom": ("analyze", "--macs", "30", "--fiber-km", "12", "--ttrt", "6"),
    "analyze-zero-macs": ("analyze", "--fiber-km", "0", "--macs", "0", "--active", "1",
                          "--ttrt", "8"),
    "analyze-saturated": ("analyze", "--preset", "largest", "--ttrt", "1"),
    "simulate-saturation": ("simulate", "--preset", "typical", "--ttrt", "8", "--seed", "5",
                            "--active", "7", "--frame-bytes", "1000") + SIM,
    "simulate-saturation-largest": ("simulate", "--preset", "largest", "--ttrt", "165",
                                    "--frame-bytes", "100", "--no-overflow") + SIM,
    "simulate-wic-load-pct": ("simulate", "--preset", "typical", "--ttrt", "8",
                              "--workload", "wic", "--load-pct", "58", "--seed", "2") + SIM,
    "simulate-wic-interburst": ("simulate", "--macs", "12", "--fiber-km", "3", "--ttrt", "5",
                                "--workload", "wic", "--interburst-ms", "0.7",
                                "--token-time-us", "0") + SIM,
    "validate-ok": ("validate", "--ttrt", "8", "--max-ring"),
    "validate-violation": ("validate", "--ttrt", "3", "--max-ring"),
    "validate-preset": ("validate", "--ttrt", "4", "--preset", "big", "--sync-ms", "0.5",
                        "--service-interval-ms", "30", "--frame-bytes", "1000"),
    "validate-latency": ("validate", "--ttrt", "170", "--ring-latency-ms", "1.5"),
    "error-unknown-var": ("sweep", "--var", "nope", "--grid", "1,2", "--preset", "big"),
    "error-unknown-figure": ("sweep", "--figure", "fig99"),
    "error-grid-order": ("sweep", "--var", "ttrt", "--grid", "8,4", "--preset", "big"),
    "error-active-range": ("sweep", "--var", "active_macs", "--grid", "5,50", "--preset",
                           "typical"),
    "error-simulate-active": ("simulate", "--preset", "typical", "--active", "30") + SIM,
    "error-sweep-replications": ("sweep", "--var", "ttrt", "--grid", "8", "--preset",
                                 "typical", "--mode", "simulate", "--replications", "0"),
    "error-illegal-ttrt": ("sweep", "--var", "ttrt", "--grid", "1,8", "--preset", "typical",
                           "--mode", "simulate") + SIM,
    "error-no-ring": ("analyze", "--ttrt", "8"),
}

# name: (exit code, sha256 of the CSV or None, sha256 of stdout)
EXPECTED: dict[str, tuple[int, str | None, str]] = {
    "table1": (0, "3068e0bc008ebdcf57a685d27a52af265039ed98f49198e4d7d78bee30234372",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1": (0, "33b3d238d1d3d325df020e72f03e3cb9547eb0739b0c988cabc8dbc9764d3b4d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig2": (0, "b4b61cb7cd68ea4e09f14b96ceae54b6b80726ed81ad00a87eaeff559275f4a2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig4": (0, "1fa2b5d151257c58f77157ab6b52a8d19dd487524c25d7207d614e0987765ae8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig5": (0, "f54bc0ffb1a7e42ac6772c72c633b146a1d330a02e70b587b63b7032a360a376",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig6": (0, "9de1d8cf7fd65e64e3035970dce3253c6c34a015781f85fcf1a3a91cdee5e561",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig7": (0, "9efa3f6b01fed777c97c24555eb19665365e5053c4be52cf3801886da64d436e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig8": (0, "c4471067ddde4e2b78771ca02e29ac037a0f485978bb00833f49e9ca4e13caa0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig9": (0, "52313c7d64acba334d40bae777ee0616507ad6ab44b98886980d00309dff0b39",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig3": (0, "c870f85fd0d18383cb5039f2af759b446a8ff366a8c6b381a73a60d27e545b0f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "both-ttrt-saturated-marker": (0, "cdcd311a8760b6cc1ca021b8b0f9f1823f20ea8fecfe649a79fe718fea14a354",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "both-ttrt-replications": (0, "edda156f4ccbd73207df3c2c2ec2da65556cb67651c34a968531c9ffda17fee3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "both-extent": (0, "10ae9aa6e11a84c89f2871caeb8648a5f9b63ddee28e0a98e3cf97f1855b775a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "both-extent-preset": (0, "5afd84f64965e8f359ed597b0d7a012442c118687d7a38a4c7db045410b11594",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "both-total-stations": (0, "8b3be1c039bbe7cf4233ff11df15a37345b90dd11f84a3e5c48d9be645a124a2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "both-active-macs": (0, "1026e9c87ec45a3238f005cd2465dba1568a592590d67b795b1c1af871517ca3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "both-frame-size": (0, "0cf6620cf92ae7cf909b6b5850af30513a2238fbfa0b5ce0d778f61006f890bc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analytical-ttrt-frame": (0, "6dab02212249743c051f26601f2619e4db731c2ae92171fa893e531097acb1ab",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analytical-active": (0, "3d9e0c9f53fc10581a7ccfa64b71e4e253eb2c361ba0043038287a1745564797",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate-load-pct": (0, "342be2ea4dcea95140b2e3cce44b1628630a5cbaefbfea8256205e69f47202ff",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate-load-pct-active": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze-typical": (0, "dfdc3c83d64ba2901376496df8767c8dcc4fd3e6beed6ded464a7e354bdc51bb",
        "e7a9cf8cebf7d1f99af7fb4d54379310acdd0a789238ae9b1982f60fe234f45a"),
    "analyze-frame": (0, "19f9a6a8dda980cc28c05890979f65ec019ed66605266ac36a5caa7b7afc511e",
        "d65fcb183da017fb564d10dea9558fba0a7cacbc141f37910d6d52aa3b808c3c"),
    "analyze-active": (0, "f75423bee3106b18bfd79cc8d4b5ac2ffe40ead7fed3a8be7f94ca9c638f191d",
        "07f3ec73fd057c7512453de34427f0a26632013d7f5190872c61b1386bb79c78"),
    "analyze-custom": (0, "2e8ef19e42e87b354164baecb3d10018259c518078c4e65d0ca4cefce0f19ad4",
        "007ba50533b646c987d625cecf80954cf6387a3d9ffb8deacfc8af8cabf13959"),
    "analyze-zero-macs": (0, "e44f55fe8f628b5015612b0d50871fa947151b95c4020c99926d3abdf0d0dd8a",
        "d545421373e6787697a7b7fd683124cab358ffa3a2aa6fe230d67ea94be36a66"),
    "analyze-saturated": (1, None,
        "091e05dea652997d1d1e39b1b74b950056d1cc97b5fa282e1a5b8475f68f6b8a"),
    "simulate-saturation": (0, "1996fac0511c5b5bf82806fa238524cf83191a6a677d1fd9fcf674e22e7a472d",
        "88f94047f2f793b4b2120e1c823978483058219ce7f3d5a0c43afc470ba643cf"),
    "simulate-saturation-largest": (0, "874ad327bc22786da7c38de902417710046c7c8115a579786f9c276543b8b05f",
        "51da158363374bafc3fc8fa7fe1fbfd3ed0cb7fc103cd6766c88cc68bcf186dc"),
    "simulate-wic-load-pct": (0, "e83ca4d2fd408bfe4455c19100946991cfbdf382b5255d8a1e9ef30c43e4e905",
        "912860f36901cce7432528ed3a0f433ed77dd9be4fd5d9ef2cbd9f549351aec3"),
    "simulate-wic-interburst": (0, "e32c76ca4569e2ed37b796100d32054d283833f9f4bba9588da07e8dad628a1e",
        "42ef9ecf02ec16885862112fdff52ab2f8b2b9058eab89bfae77ef2aa4ff3c50"),
    "validate-ok": (0, None,
        "5ca1b8bfaf669dbde738273129a4ad2bf092378d135071dc5ab49d2b098c8d3e"),
    "validate-violation": (1, None,
        "b31019eb06c7b505199d61675dfbd1e85e72c615f2266f849f7558b7caf99d4e"),
    "validate-preset": (0, None,
        "4979b4fbe5501d67a488cbbd4549112bf11aa4e1d411d35bd9433e7849238cfe"),
    "validate-latency": (1, None,
        "b4e7dfc9fa6b163d50045ed65b4f0db983fe94597d72b08e87c54f243605eeb8"),
    "error-unknown-var": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-unknown-figure": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-grid-order": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-active-range": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-simulate-active": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-sweep-replications": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-illegal-ttrt": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-no-ring": (2, None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: tuple[str, ...], tmp_path, capsys) -> tuple[int, str | None, str]:
    out = tmp_path / "out.csv"
    capsys.readouterr()
    rc = cli.main([*argv, "--out", str(out)])
    stdout = capsys.readouterr().out
    csv_sha = _sha(out.read_bytes()) if out.exists() else None
    return rc, csv_sha, _sha(stdout.encode())


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_is_frozen(name, tmp_path, capsys):
    assert run_case(CASES[name], tmp_path, capsys) == EXPECTED[name]
