"""Byte-identity of the CLI output.

SHA-256 digests of `table --format json`, with and without --verify, and
of three heavy `compute --format json` reports (E7 also with each route
forced and verified by the other), recorded with the coordinate-based
implementation at commit bb4597e.  The JSON does not
say which search routes ran, so a verified table has the same digest as
the unverified one.

The text and TSV digests were recorded at commit 03bcde9, before the
central functional was read off the Dynkin diagram.  The text report
prints the notes, which name the xi-half holding q ∩ s, so it also pins
the sign of xi, which the JSON does not show.
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

TEXT_COMPUTE_DIGESTS = {
    "A2 {1}": (
        ["--type", "A2", "--noncompact", "1"],
        "95f5f6d671e57a00ac0f9d8268622efa642fc85ede280f5f833ac5f7ab1bcd48",
    ),
    "A3 {1,2,3}": (
        ["--type", "A3", "--noncompact", "1,2,3"],
        "852f46400e013d5496a1c0c6a55535c4c495120b1f86b92f6047a5256fc490c6",
    ),
    "C3 {3}": (
        ["--type", "C3", "--noncompact", "3"],
        "b0468350394db8cb69f7cc1e1d6238d550bd385a2d65284a651ab22bad6de5a4",
    ),
    "E7 {7}": (
        ["--type", "E7", "--noncompact", "7"],
        "691e37f37a182aea2e1eafa43b516eebd7a898299b5a73887a99eabb8c3784a6",
    ),
    "E8 {1}": (
        ["--type", "E8", "--noncompact", "1"],
        "16e44fe59c06561ecdc6f79b38558329e4364ce02040a01b9aabda550ed885ce",
    ),
    "A14 {1,8} levi {2,3}": (
        ["--type", "A14", "--noncompact", "1,8", "--levi", "2,3"],
        "7331001c94b60468baff650d8aab66452301fabfb24b6455b0814f1cfacfdce7",
    ),
}

# (text, tsv)
TABLE_TEXT_TSV_DIGESTS = {
    "B3": (
        "9fbfa997d8333c61ec719ff82fc69eab1b00d066fa4bf061d5553005eb80b285",
        "22f450199c3cdd599f36e1c9ba64a555a0d2737b75a3463b96168988f3284c0b",
    ),
    "C3": (
        "a1519278c02175235ed4467a6017089e0b7e01072684895816585bd130a5758c",
        "5709194a0b23c34a0e8b2ff95d9f1ff2b0f2033384f8115cae0d8170c68c464c",
    ),
    "G2": (
        "7b0d22f8b38478f4b98efacc411fd90581e49823ee0eba49bbded59cbb2f3dd0",
        "1c38c56e8251fcb7a76c6cb12be733499d740a02a1f5cb2de524e14961bf1114",
    ),
    "D4": (
        "df205d53b40183c64a0f0bc76f8755c237a81d265a4f5e450a871628b13a10d1",
        "1edda9d0017844c21f9340f2de4be0352d571e2116134cb4f3aa172afd58675d",
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


@pytest.mark.parametrize("name", sorted(TEXT_COMPUTE_DIGESTS))
def test_compute_text_bytes(capsys, name):
    args, want = TEXT_COMPUTE_DIGESTS[name]
    assert _stdout_digest(capsys, ["compute", *args]) == want


@pytest.mark.parametrize("fmt", ["text", "tsv"])
@pytest.mark.parametrize("label", sorted(TABLE_TEXT_TSV_DIGESTS))
def test_table_text_and_tsv_bytes(capsys, label, fmt):
    want = TABLE_TEXT_TSV_DIGESTS[label][fmt == "tsv"]
    argv = ["table", "--type", label, "--format", fmt]
    assert _stdout_digest(capsys, argv) == want
