"""Golden outputs: byte identity of CLI files at fixed seeds.

Each case runs ``wbansim`` in-process and compares the sha256 of every file
it writes (CSV, manifest, trace) against a pinned digest.  Any change to the
codec, the channel draws, the MAC exchange order or the output formatting
moves at least one digest, so a refactor that claims to keep behaviour must
keep these passing unchanged.
"""

import hashlib

import pytest

from wbansim.cli import main

CASES = {
    "simulate-trace": (
        ["simulate", "--set", "duration_s=0.5", "--set", "node_count=3",
         "--set", "seed=88"],
        True,
        {"out.csv": "1435242b8936c86b3a9c4cea56d9bef22a6038e009c8688a77f4a926ed902013",
         "out.manifest.json": "c43b259028b41fc7d322ece17df1a869d961543f98e98e42f90fe60263c264f9",
         "trace.txt": "6b94b86535ebe59fd514e3a35248f21cbf70ae173d11b69c5d1d6b17729b4101"},
    ),
    "sweep-retries": (
        ["sweep", "--set", "duration_s=0.3", "--set", "node_count=2",
         "--set", "seed=88", "--axis", "max_retries", "--values", "0..2"],
        False,
        {"out.csv": "17d6039b2c75b1489cfb7c0b2d4fcb242e3aeec04a613a0f0cc878dc5b28d435",
         "out.manifest.json": "75aafe12debc13e861f4b367d8eba582a5f0003631afba378f89e338e97d0ed4"},
    ),
    # untraced, so clean exchanges take the arithmetic path
    "simulate-untraced-16": (
        ["simulate", "--set", "node_count=16", "--set", "duration_s=0.5",
         "--set", "seed=88"],
        False,
        {"out.csv": "d0fcbfb60ad3bc5c55be5577a7a52b15fe663c3359af1cdc1327b5f35ba2c34a",
         "out.manifest.json": "949324948b8279747a79f79d45bf857597426aeb96a1725651fd2c814438404e"},
    ),
    # untraced; clean runs cross count blocks and sequence wraps
    "simulate-wired-untraced-20s": (
        ["simulate", "--set", "preset=wired", "--set", "node_count=2",
         "--set", "duration_s=20"],
        False,
        {"out.csv": "ac04d364c6a7a3d6c6caad781e9ea5a76260b8de5385451dd0ebca5b97b016e4",
         "out.manifest.json": "a45c85f3256036bd87706e55132f2423e32d05d49336d76b813527eadd5c03af"},
    ),
    "simulate-explicit-lossy": (
        ["simulate", "--set", "preset=explicit", "--set", "ber=2e-3",
         "--set", "node_count=3", "--set", "duration_s=2", "--set", "seed=5"],
        True,
        {"out.csv": "4c17269b092392649eadcfc0c49e5059c77827ee30085847bfe3657a070bbb68",
         "out.manifest.json": "6f097fb9e390ba23eeb33d23b9985666098966330a97c23481db1f55ed07280e",
         "trace.txt": "2ce6d76effefda9a67bde38e2123a58d6a81c07846af8e83b834e492ec92233b"},
    ),
}


def run_case(tmp_path, argv, traced) -> dict:
    """Run one CLI case in `tmp_path`; return {file name: sha256 hex}."""
    args = list(argv) + ["--output", str(tmp_path / "out.csv")]
    if traced:
        args += ["--trace", str(tmp_path / "trace.txt")]
    assert main(args) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_are_byte_identical(tmp_path, name, monkeypatch):
    monkeypatch.delenv("WBAN_SEED", raising=False)
    argv, traced, expected = CASES[name]
    assert run_case(tmp_path, argv, traced) == expected
