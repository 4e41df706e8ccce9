"""Byte-identity of the CLI output.

SHA-256 digests of `table --format json`, with and without --verify, and
of three heavy `compute --format json` reports (E7 also with each route
forced and verified by the other), recorded with the coordinate-based
implementation at commit bb4597e.  The JSON does not
say which search routes ran, so a verified table has the same digest as
the unverified one.
"""

import hashlib

import pytest

from flagample.cli import main

TABLE_DIGESTS = {
    "A1": "66487b8c74bbca3e8165b5c5114667eb600367221e8b7b5a8170888483903834",
    "A2": "234229fe7dbe79bfbac779be08e5b08d39da10a87129c8238785c674817cae6d",
    "A3": "ae5c5c21e810e4f10a7eacefaea02fe6d5a72141c8a6058b9e1573f79a8d1080",
    "A4": "7d3a8b3598b86408f1fa43dea976a7c6bc99459dab0104020b1884669ce7c772",
    "B2": "48e22862763930b33ba6718d891953d37c4e929e2756dada6a6fa7f81d41cef0",
    "B3": "bd474dde66045c05a9bb171c6253d7e48dd1ed980b58ea454b92cdcfb85f3beb",
    "B4": "0e6b22a69eab027fe3a549597daba0a3c61acded72831c7bb5ec9221e4337695",
    "C3": "03dd8d2657f4e7cec63c090fd2f0bef4e52737a4c1fae677f26868e8614fb674",
    "C4": "24aaa790c02201c3b72b20a18e04967f902cd4f6fb4e8ba4a6b30731e43a2567",
    "G2": "72f16b2b3397b4e222a5a4dcd5ce0efcc120ac4a4277d476ed30e34675d1287a",
    "D4": "a8d6ef547abde1144638c8992efe5483e790b5d84534e13dc208da4bd571bb87",
    "F4": "1e852026f54caef351d914fd4dd08569d4a88337326b300f7942506786cce8ee",
}

COMPUTE_DIGESTS = {
    "E7 {7}": (
        ["--type", "E7", "--noncompact", "7"],
        "dba1a3488aedcdebf317275d6c4f1ef2a1c56b6dd1e10855e4196994e18e2185",
    ),
    # the same report from each route as primary, cross-checked by the
    # other: the oracle scans all 51,840 elements of W(E6)
    "E7 {7} bruteforce --verify": (
        ["--type", "E7", "--noncompact", "7", "--method", "bruteforce", "--verify"],
        "dba1a3488aedcdebf317275d6c4f1ef2a1c56b6dd1e10855e4196994e18e2185",
    ),
    "E7 {7} fast --verify": (
        ["--type", "E7", "--noncompact", "7", "--method", "fast", "--verify"],
        "dba1a3488aedcdebf317275d6c4f1ef2a1c56b6dd1e10855e4196994e18e2185",
    ),
    "E8 {1}": (
        ["--type", "E8", "--noncompact", "1"],
        "3342bbbdf843da8e9133e8379c6047454ccb13c01214c3a42f03f613a588ba07",
    ),
    "A14 {1,8} levi {2,3}": (
        ["--type", "A14", "--noncompact", "1,8", "--levi", "2,3"],
        "72817fc301d9e7851f83be52bb580560a0153c0532bcc69e93c86f369050261a",
    ),
}


def _stdout_digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
@pytest.mark.parametrize("label", sorted(TABLE_DIGESTS))
def test_table_json_bytes(capsys, label, verify):
    argv = ["table", "--type", label, "--format", "json"]
    if verify:
        argv.append("--verify")
    assert _stdout_digest(capsys, argv) == TABLE_DIGESTS[label]


@pytest.mark.parametrize("name", sorted(COMPUTE_DIGESTS))
def test_compute_json_bytes(capsys, name):
    args, want = COMPUTE_DIGESTS[name]
    assert _stdout_digest(capsys, ["compute", *args, "--format", "json"]) == want
