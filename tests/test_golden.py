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
        {"out.csv": "c26df8136106891da85b5f290cc9b8460549ba69e8a0e02700b51dd444c54764",
         "out.manifest.json": "c43b259028b41fc7d322ece17df1a869d961543f98e98e42f90fe60263c264f9",
         "trace.txt": "c05c0491cd4c1bccee431515c1b82e13654b263bbaf58b65af793fefb2e6b604"},
    ),
    "sweep-retries": (
        ["sweep", "--set", "duration_s=0.3", "--set", "node_count=2",
         "--set", "seed=88", "--axis", "max_retries", "--values", "0..2"],
        False,
        {"out.csv": "087baebe3180469fc940b39e58860cdd4f8879997d288ead3bd4a4c83f48baf4",
         "out.manifest.json": "75aafe12debc13e861f4b367d8eba582a5f0003631afba378f89e338e97d0ed4"},
    ),
    # untraced, so clean exchanges take the arithmetic path
    "simulate-untraced-16": (
        ["simulate", "--set", "node_count=16", "--set", "duration_s=0.5",
         "--set", "seed=88"],
        False,
        {"out.csv": "c3cd3fd98abbcaf160a194281c4f230fc5c9d826160dcd09754aa15297f9e697",
         "out.manifest.json": "949324948b8279747a79f79d45bf857597426aeb96a1725651fd2c814438404e"},
    ),
    # untraced; clean runs cross sequence wraps
    "simulate-wired-untraced-20s": (
        ["simulate", "--set", "preset=wired", "--set", "node_count=2",
         "--set", "duration_s=20"],
        False,
        {"out.csv": "cbf5d11caa3eb261e79ff0d337187b671ece8810176b4f9d6635814ed3e6bc45",
         "out.manifest.json": "a45c85f3256036bd87706e55132f2423e32d05d49336d76b813527eadd5c03af"},
    ),
    "simulate-explicit-lossy": (
        ["simulate", "--set", "preset=explicit", "--set", "ber=2e-3",
         "--set", "node_count=3", "--set", "duration_s=2", "--set", "seed=5"],
        True,
        {"out.csv": "dc55deaa2dee1f12b9356660060acb381b25d5e50bc562acdf5c8462dc181bbf",
         "out.manifest.json": "6f097fb9e390ba23eeb33d23b9985666098966330a97c23481db1f55ed07280e",
         "trace.txt": "61d05963b59b24f0740e5d3d152a01a51db8233d3666bcb9a1f6204daa82373d"},
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
