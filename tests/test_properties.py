"""Property tests: random small experiments, clean-run path against frame path."""

from hypothesis import given, settings, strategies as st

from wbansim.simulator import ExperimentConfig

from test_simulator import links_or_error


@st.composite
def small_configs(draw):
    node_count = draw(st.integers(1, 4))
    preset = draw(st.sampled_from(["explicit", "wireless", "wired"]))
    # every BER source: a flat `ber` on any preset, a calibrated table, a `distance_map`
    ber = draw(st.none() | st.floats(0.0, 0.05))
    distance_map = None
    if preset == "explicit" and ber is None:
        points = draw(st.integers(1, 4))
        distances = draw(st.lists(st.floats(0.5, 12.0), min_size=points,
                                  max_size=points, unique=True))
        bers = draw(st.lists(st.floats(0.0, 0.05), min_size=points, max_size=points))
        distance_map = tuple(zip(sorted(distances), sorted(bers)))
    return ExperimentConfig(
        node_count=node_count,
        distance_m=draw(st.lists(st.floats(0.5, 12.0), min_size=node_count,
                                 max_size=node_count)),
        payload_len=draw(st.integers(0, 40)),
        max_retries=draw(st.integers(0, 3)),
        data_rate_bps=draw(st.floats(2e4, 2.5e5)),
        duration_s=draw(st.floats(0.01, 0.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
        preset=preset,
        ber=ber,
        distance_map=distance_map)


# A traced run takes the frame path for every exchange, so it is the oracle
# for the clean runs an untraced run accounts in one step.
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_configs())
def test_untraced_links_equal_traced_links(config):
    assert links_or_error(config) == links_or_error(config, trace=[])
