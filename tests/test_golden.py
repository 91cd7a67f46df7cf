"""Golden outputs: byte identity of CLI files and demo stdout at fixed seeds.

Each case runs ``wbansim`` in-process and compares the sha256 of every file
it writes (CSV, manifest, trace) against a pinned digest; each script in
``demos/`` runs in-process too, and the sha256 of its stdout is pinned.  Any change to the
codec, the channel draws, the MAC exchange order or the output formatting
moves at least one digest, so a refactor that claims to keep behaviour must
keep these passing unchanged.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

from wbansim.cli import EXIT_NO_CONVERGENCE, EXIT_OK, main

CASES = {
    "simulate-trace": (
        ["simulate", "--set", "duration_s=0.5", "--set", "node_count=3",
         "--set", "seed=88"],
        True,
        {"out.csv": "2692f8e2b5fd5fbba38c8d12d3032125ada6ec6b36afb6f5881e9300ab9eadb3",
         "out.manifest.json": "c43b259028b41fc7d322ece17df1a869d961543f98e98e42f90fe60263c264f9",
         "trace.txt": "f4b230e0e3399861126a2b95e684a0825cbc524da81a97128239cdc6cec6d410"},
    ),
    "sweep-retries": (
        ["sweep", "--set", "duration_s=0.3", "--set", "node_count=2",
         "--set", "seed=88", "--axis", "max_retries", "--values", "0..2"],
        False,
        {"out.csv": "42304591d774518254982089925d312c55df781be741a416e92fe2bf2af1806f",
         "out.manifest.json": "75aafe12debc13e861f4b367d8eba582a5f0003631afba378f89e338e97d0ed4"},
    ),
    # untraced, so clean exchanges take the arithmetic path
    "simulate-untraced-16": (
        ["simulate", "--set", "node_count=16", "--set", "duration_s=0.5",
         "--set", "seed=88"],
        False,
        {"out.csv": "c9ba490256d4156cf871e44959da3868966682a68f9ed4fc265d53eb8282c3da",
         "out.manifest.json": "949324948b8279747a79f79d45bf857597426aeb96a1725651fd2c814438404e"},
    ),
    # untraced; clean runs cross sequence wraps
    "simulate-wired-untraced-20s": (
        ["simulate", "--set", "preset=wired", "--set", "node_count=2",
         "--set", "duration_s=20"],
        False,
        {"out.csv": "1b5b82724c18f1b31e650700e0106d704aef79c3797145a29af2d346ee7df271",
         "out.manifest.json": "a45c85f3256036bd87706e55132f2423e32d05d49336d76b813527eadd5c03af"},
    ),
    # a calibrated preset whose table a flat `ber` overrides
    "simulate-wired-ber-override": (
        ["simulate", "--set", "preset=wired", "--set", "ber=1e-3",
         "--set", "node_count=2", "--set", "duration_s=1", "--set", "seed=88"],
        False,
        {"out.csv": "5d3c8ded224cd2768af1f0ee6e0b09607bb929074f1de29d8a54e9c5c419d59f",
         "out.manifest.json": "6991710ddd16f1d17b244ac07eb1a88b09c41232d3b3d0364c06d851950c95d9"},
    ),
    "simulate-explicit-lossy": (
        ["simulate", "--set", "preset=explicit", "--set", "ber=2e-3",
         "--set", "node_count=3", "--set", "duration_s=2", "--set", "seed=5"],
        True,
        {"out.csv": "4d76bdb764832f0184131acefc0f925a57249c3640cf06ca4c1c06c0b16459af",
         "out.manifest.json": "6f097fb9e390ba23eeb33d23b9985666098966330a97c23481db1f55ed07280e",
         "trace.txt": "f16989e368bddf9d5f0dd39284dbb0f682953f7fe306bf9b03ab5d2359854d2c"},
    ),
    # the optimizer's trace CSV: every iterate, weight and objective value
    "optimize": (
        ["optimize", "--p-ber", "1e-3"],
        False,
        {"out.csv": "efe61eed64fe69217f56e4a4ea38386354db6d417820381c7e1048094c480805",
         "out.manifest.json": "142c29acf9b968835b2b67485eaf332d94061cf39ea2a55ff56c0f30251ad963"},
    ),
    "optimize-verbatim": (
        ["optimize", "--p-ber", "1e-3", "--verbatim-gradient"],
        False,
        {"out.csv": "2fc8c82c1d0d6cf72969c679dc366c771654986cbf4295229a9dc4c6935648b2",
         "out.manifest.json": "e00806523c9d9ddb5dc149ad9dbeec90f0a4c6df0aee9e2c759b75d4636f71cc"},
    ),
    # runs out of descent steps: the trace so far, and exit 3
    "optimize-no-convergence": (
        ["optimize", "--p-ber", "0.05", "--max-iterations", "40"],
        False,
        {"out.csv": "5025dee27ff18bb7066d819d23069cf2e9fbbde2376265a1ff385b96d4a084e6",
         "out.manifest.json": "b247a75c484dae6fd763e711ccca4b1f7d4a0f94c1cc83e16ddb8f52290ae11a"},
    ),
    # both retry models, over every m of the default grid
    "analyze-retry": (
        ["analyze", "retry", "--m", "1..30", "--p-fer", "0.01,0.05,0.1,0.3,0.9"],
        False,
        {"out.csv": "c2f2d43a846b131246acab9c826259454c8cbb27a9f2702b1812e6dc2adbfb84",
         "out.manifest.json": "a22294d677aebbf4cfa7b7daad60ccd3de224081bb08bdc14fa1a1c6abd36e7a"},
    ),
    "analyze-payload": (
        ["analyze", "payload", "--payload", "0..30", "--p-ber", "1e-5,1e-3,1e-2"],
        False,
        {"out.csv": "48e88d87f36a570064580b6826c21e752bee468c5287971311f5026160a1d79f",
         "out.manifest.json": "ee7bcda070aab340da43431ab4aaf3331a9a31108417eeaf791bad2eee9219f9"},
    ),
}

# a case not listed here exits 0
EXIT_CODES = {"optimize-no-convergence": EXIT_NO_CONVERGENCE}


def run_case(tmp_path, argv, traced, exit_code=EXIT_OK) -> dict:
    """Run one CLI case in `tmp_path`; return {file name: sha256 hex}."""
    args = list(argv) + ["--output", str(tmp_path / "out.csv")]
    if traced:
        args += ["--trace", str(tmp_path / "trace.txt")]
    assert main(args) == exit_code
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_are_byte_identical(tmp_path, name, monkeypatch):
    monkeypatch.delenv("WBAN_SEED", raising=False)
    argv, traced, expected = CASES[name]
    assert run_case(tmp_path, argv, traced, EXIT_CODES.get(name, EXIT_OK)) == expected


DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_STDOUT = {
    "01_frame_anatomy.py": "f5b54a8a2d37f2848aa7f4a87b9325e507636f008670f25f66b4a5459cf35685",
    "02_two_device_exchange.py": "6b5b2be495c1f4b448ff63a457794701fcea613c31bfc536ab6c9c1dfa011d65",
    "03_retry_tradeoff.py": "44b060cf06517b350e4c3e5f573d4bf77d605ff0819d4fd765efc94dfeecda68",
    "04_payload_vs_fer.py": "84d6514941ae186f0fe4fdda725bfd9f0704bdd20932a6df96b1e4566f21fd40",
    "05_distance_experiment.py": "69020437768921e846f9db1ce0fb0b87f079cc8bd63d1cc75df2a9f4d03b42b3",
    "06_payload_optimizer.py": "1370d1dbd9a8c8b6dfd11759b0b30b107a5c80ccb44e683a035a3d6eda7d5f7b",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_stdout_is_byte_identical(name, capsys, monkeypatch):
    monkeypatch.delenv("WBAN_SEED", raising=False)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == DEMO_STDOUT[name]
