"""The benchmark's trace mode wraps wbansim attributes by name; a rename or
removal in the package must fail here rather than only under
``bench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

from wbansim import analytics, channel, cli, mac, optimizer, simulator

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (analytics, channel, channel.FrameCorruptor, cli, mac, mac.Device,
          optimizer, simulator)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_attribute():
    before = [dict(vars(owner)) for owner in OWNERS]
    with load_tracing().Tracer().installed():
        wrapped = [(owner, attr) for owner, saved in zip(OWNERS, before)
                   for attr, value in saved.items() if vars(owner)[attr] is not value]
    assert (simulator, "send_with_arq") in wrapped
    assert (simulator, "establish_connection") in wrapped
    assert (simulator, "preset") in wrapped
    assert [dict(vars(owner)) for owner in OWNERS] == before
