"""End-to-end CLI tests: subcommands, config handling, manifests."""

import inspect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import wbansim
from wbansim.cli import MAX_RANGE_VALUES, build_parser, main, parse_values
from wbansim.errors import ConfigError, ProtocolError

FAST = ["--set", "duration_s=0.2", "--set", "node_count=2"]


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------ value parsing

def test_parse_comma_list():
    assert parse_values("1,2,5,10") == [1, 2, 5, 10]


def test_parse_range():
    assert parse_values("0..4") == [0, 1, 2, 3, 4]


def test_parse_range_with_step():
    assert parse_values("5..30 step 5") == [5, 10, 15, 20, 25, 30]


def test_parse_range_ends_at_its_bound_despite_rounding():
    # 0.001 added 1000 times comes to 1.0000000000000007
    values = parse_values("0..1 step 0.001")
    assert len(values) == 1001
    assert values[-1] == 1.0 and max(values) == 1.0


def test_parse_float_range_values_are_the_nearest_floats():
    # repeated addition gave 0.30000000000000004 and 0.7999999999999999,
    # after a first value of int 0
    values = parse_values("0..1 step 0.1")
    assert values == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert all(type(v) is float for v in values)
    assert parse_values("-0.3..0.3 step 0.15") == [-0.3, -0.15, 0.0, 0.15, 0.3]


def test_parse_integer_range_ends_at_its_exact_stop():
    # the float nearest this stop is 5.0, whose floor would take in 5
    assert parse_values("0..4.99999999999999999") == [0, 1, 2, 3, 4]
    values = parse_values("-3..-0.5")
    assert values == [-3, -2, -1] and all(type(v) is int for v in values)


def test_parse_float_values():
    assert parse_values("1e-4,1e-3") == [1e-4, 1e-3]


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_values("")
    with pytest.raises(ConfigError):
        parse_values("1..5 step 0")
    with pytest.raises(ConfigError):
        parse_values("abc")


# ---------------------------------------------------------------- simulate

def test_simulate_default_six_links(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--set", "duration_s=0.2", "-o", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["node", "distance_m", "ber", "s_frm", "r_frm",
                      "s_pkt", "r_pkt", "fer", "per"]
    assert len(rows) == 6
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == ["sim.csv"]


def test_simulate_ber_zero_override(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", *FAST, "--set", "preset=explicit",
                 "--set", "ber=0", "-o", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    fer_col = header.index("fer")
    per_col = header.index("per")
    assert all(float(row[fer_col]) == 0.0 for row in rows)
    assert all(float(row[per_col]) == 0.0 for row in rows)


def test_simulate_missing_config_exits_2(tmp_path):
    code = main(["simulate", str(tmp_path / "nope.conf"),
                 "-o", str(tmp_path / "x.csv")])
    assert code == 2


def test_a_config_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_bytes(b"node_count = 3\n# \xff\n")
    assert main(["simulate", str(conf), "-o", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (f"error: config file {conf} is not UTF-8: "
                                       "invalid start byte at byte 17\n")


def test_a_config_file_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "exp.conf"
    conf.write_text("node_count = 3\n")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))
    monkeypatch.setattr(Path, "read_text", refuse)
    assert main(["simulate", str(conf), "-o", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (f"error: cannot read config file {conf}: "
                                       "Permission denied\n")


NO_DIR = "No such file or directory"
# per command, an output path that cannot be written: the argv, then the
# flag and path the error names, and why the path cannot be written
BAD_OUTPUTS = {
    "simulate": (["simulate", *FAST, "-o", "nodir/x.csv"], "--output nodir/x.csv", NO_DIR),
    "simulate-trace": (["simulate", *FAST, "-o", "ok.csv", "--trace", "nodir/t.txt"],
                       "--trace nodir/t.txt", NO_DIR),
    "sweep-into-a-directory": (["sweep", *FAST, "--axis", "max_retries", "--values", "0,1",
                                "-o", "."], "--output .", "Is a directory"),
    "analyze-retry": (["analyze", "retry", "-o", "nodir/r.csv"], "--output nodir/r.csv", NO_DIR),
    "analyze-payload": (["analyze", "payload", "-o", "nodir/p.csv"], "--output nodir/p.csv",
                        NO_DIR),
    "optimize": (["optimize", "--p-ber", "1e-3", "-o", "nodir/o.csv"], "--output nodir/o.csv",
                 NO_DIR),
}


@pytest.mark.parametrize("name", sorted(BAD_OUTPUTS))
def test_an_output_that_cannot_be_written_exits_2_before_the_run(tmp_path, capsys,
                                                                 monkeypatch, name):
    argv, flag_and_path, reason = BAD_OUTPUTS[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag_and_path}: cannot write: {reason}\n")
    # a run that fails leaves no CSV, manifest or trace behind
    assert list(tmp_path.iterdir()) == []


def test_an_output_check_leaves_an_existing_file_as_it_was(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.write_text("before\n")
    code = main(["simulate", *FAST, "-o", str(out), "--trace", str(tmp_path / "nodir" / "t")])
    assert code == 2
    assert out.read_text() == "before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_an_output_through_a_dangling_link_keeps_the_link(tmp_path):
    link = tmp_path / "r.csv"
    link.symlink_to("target.csv")
    assert main(["analyze", "retry", "--m", "1", "-o", str(link)]) == 0
    assert link.is_symlink() and (tmp_path / "target.csv").read_text().startswith("m,")


def test_simulate_unknown_key_exits_2(tmp_path):
    code = main(["simulate", "--set", "warp_factor=9",
                 "-o", str(tmp_path / "x.csv")])
    assert code == 2


def _no_answer(signum, frame):
    raise TimeoutError("wbansim did not return within 10 s")


def main_within_10s(argv) -> int:
    previous = signal.signal(signal.SIGALRM, _no_answer)
    signal.alarm(10)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("key, value", [
    ("duration_s", "inf"), ("duration_s", "nan"),
    ("data_rate_bps", "inf"), ("data_rate_bps", "nan"),
    ("distance_m", "nan"), ("distance_m", "1,2,3"), ("ber", "nan"), ("ber", "abc"),
    ("distance_map", "1:x"), ("seed", "-1"), ("WBAN_SEED", "x"),
    ("node_count", "2.5"), ("payload_len", "3.7"), ("data_rate_bps", "1e300"),
    ("ber", "0.2"),   # no join handshake gets through
    ("distance_map", "2:1e-3,1:2e-3"), ("distance_map", "1:2,2:3"),
    ("distance_map", "1:1e-4,10:1e-3"),   # a valid map, but ber is set too
])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, monkeypatch, key, value):
    argv = ["simulate", *FAST, "--set", "preset=explicit", "--set", "ber=0",
            "-o", str(tmp_path / "x.csv")]
    if key == "WBAN_SEED":
        monkeypatch.setenv(key, value)
    else:
        argv += ["--set", f"{key}={value}"]
    assert main_within_10s(argv) == 2
    assert key in capsys.readouterr().err


def test_a_config_file_line_without_equals_exits_2_naming_it(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("node_count 3\n")
    assert main(["simulate", str(conf), "-o", str(tmp_path / "x.csv")]) == 2
    assert "node_count 3" in capsys.readouterr().err


def test_a_library_error_in_a_subcommand_exits_2_naming_its_type(tmp_path, capsys,
                                                                 monkeypatch):
    def fail(args):
        raise ProtocolError("no confirm")
    monkeypatch.setattr(wbansim.cli, "cmd_simulate", fail)
    assert main(["simulate", "-o", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: ProtocolError: no confirm\n"


def test_distance_map_needs_the_explicit_preset(tmp_path, capsys):
    code = main(["simulate", "--set", "distance_map=1:1e-2,10:2e-2",
                 "--set", "node_count=1", "-o", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "distance_map" in err and "preset" in err


def test_simulate_explicit_distance_map_sets_link_bers(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--set", "duration_s=0.2", "--set", "node_count=2",
                 "--set", "preset=explicit", "--set", "distance_map=1:1e-4,10:1e-3",
                 "--set", "distance_m=1,10", "-o", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert [float(row[header.index("ber")]) for row in rows] == [1e-4, 1e-3]


def test_simulate_reads_config_file(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "# two quiet nodes\n"
        "node_count = 2\n"
        "duration_s = 0.2\n"
        "preset = explicit\n"
        "ber = 0\n"
        "seed = 5\n")
    out = tmp_path / "sim.csv"
    assert main(["simulate", str(conf), "-o", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 2


def test_simulate_env_seed_override(tmp_path, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    monkeypatch.setenv("WBAN_SEED", "12345")
    main(["simulate", *FAST, "--set", "seed=1", "-o", str(out_a)])
    monkeypatch.delenv("WBAN_SEED")
    main(["simulate", *FAST, "--set", "seed=12345", "-o", str(out_b)])
    assert out_a.read_text() == out_b.read_text()


def test_simulate_writes_primitive_trace(tmp_path):
    out = tmp_path / "sim.csv"
    trace = tmp_path / "trace.log"
    main(["simulate", *FAST, "--trace", str(trace), "-o", str(out)])
    lines = trace.read_text().splitlines()
    assert lines
    t, dev, family, kind = lines[0].split()
    float(t)
    int(dev)
    assert family in ("MANAGEMENT", "DATA_SERVICE", "DATA_TRANSFER")
    assert kind in ("REQUEST", "CONFIRM", "INDICATION")


# -------------------------------------------------------------------- sweep

def test_sweep_retry_rows_and_trend(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *FAST, "--set", "distance_m=10",
                 "--set", "duration_s=1.0", "--axis", "max_retries",
                 "--values", "0..4", "-o", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["axis", "value", "s_frm", "r_frm", "s_pkt", "r_pkt",
                      "fer", "per"]
    assert [row[1] for row in rows] == ["0", "1", "2", "3", "4"]
    pers = [float(row[7]) for row in rows]
    assert all(a >= b for a, b in zip(pers, pers[1:]))


def test_sweep_payload_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *FAST, "--axis", "payload_len",
                 "--values", "5..30 step 5", "-o", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert [row[1] for row in rows] == ["5", "10", "15", "20", "25", "30"]


def test_sweep_distance_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *FAST, "--axis", "distance", "--values", "1,5",
                 "-o", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert [row[:2] for row in rows] == [["distance", "1"], ["distance", "5"]]
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["config"]["values"] == [1, 5]


def test_sweep_empty_values_exits_2(tmp_path):
    code = main(["sweep", *FAST, "--axis", "max_retries",
                 "--values", "", "-o", str(tmp_path / "s.csv")])
    assert code == 2


@pytest.mark.parametrize("axis", ["max_retries", "payload_len"])
@pytest.mark.parametrize("values", ["inf", "1.5,2.5"])
def test_sweep_integer_axis_rejects_non_integers(tmp_path, capsys, axis, values):
    code = main(["sweep", *FAST, "--axis", axis, "--values", values,
                 "-o", str(tmp_path / "s.csv")])
    assert code == 2
    assert axis in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_bad_axis_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--axis", "frequency", "--values", "1",
              "-o", str(tmp_path / "s.csv")])


# ------------------------------------------------------------------ analyze

def test_analyze_retry_surface(tmp_path):
    out = tmp_path / "retry.csv"
    code = main(["analyze", "retry", "--m", "1..30",
                 "--p-fer", "0.05,0.1,0.3", "-o", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["m", "p_fer", "success_final_attempt",
                      "success_within_m", "per"]
    assert len(rows) == 90


def test_analyze_payload_surface(tmp_path):
    out = tmp_path / "payload.csv"
    code = main(["analyze", "payload", "--payload", "0..30",
                 "--p-ber", "1e-5,1e-4,1e-3", "-o", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["payload", "p_ber", "l_data", "l_ack", "fer"]
    assert len(rows) == 93


def test_analyze_single_point(tmp_path):
    out = tmp_path / "one.csv"
    code = main(["analyze", "payload", "--payload", "10",
                 "--p-ber", "1e-3", "-o", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0][4]) == pytest.approx(0.1944098625849618, rel=1e-9)


def test_analyze_malformed_range_exits_2(tmp_path):
    code = main(["analyze", "retry", "--m", "five..ten",
                 "-o", str(tmp_path / "r.csv")])
    assert code == 2


# ----------------------------------------------------------------- optimize

def test_optimize_writes_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--p-ber", "1e-3", "-o", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["iteration", "payload", "epsilon", "objective"]
    assert len(rows) > 2
    text = capsys.readouterr().out
    assert "optimum payload" in text and "integer candidates" in text


def test_optimize_flags_default_to_the_librarys_defaults():
    args = build_parser().parse_args(["optimize", "--p-ber", "1e-3"])
    defaults = inspect.signature(wbansim.optimize_payload).parameters
    assert (args.start, args.tolerance, args.max_iterations) == tuple(
        defaults[name].default for name in ("payload_0", "tolerance", "max_iterations"))
    assert args.start == wbansim.optimizer.DEFAULT_START == 15.0


def test_optimize_out_of_range_exits_2(tmp_path):
    assert main(["optimize", "--p-ber", "0.0",
                 "-o", str(tmp_path / "o.csv")]) == 2
    assert main(["optimize", "--p-ber", "1.0",
                 "-o", str(tmp_path / "o.csv")]) == 2


BAD_FLAG_VALUES = {
    "retry-m-inf": (["analyze", "retry", "--m", "inf"], "--m"),
    "retry-m-nan": (["analyze", "retry", "--m", "nan"], "--m"),
    "retry-m-1.5": (["analyze", "retry", "--m", "1.5"], "--m"),
    "retry-m-1100": (["analyze", "retry", "--m", "1100", "--p-fer", "0.1"], "--m"),
    "payload-nan": (["analyze", "payload", "--payload", "nan"], "--payload"),
    "payload-inf": (["analyze", "payload", "--payload", "inf"], "--payload"),
    "retry-m-words": (["analyze", "retry", "--m", "five..ten"], "--m"),
    "retry-p-fer-nan": (["analyze", "retry", "--p-fer", "nan"], "--p-fer"),
    "payload-p-ber-word": (["analyze", "payload", "--p-ber", "1e-3..x"], "--p-ber"),
    "sweep-retries-words": (["sweep", "--axis", "max_retries", "--values", "a..b"],
                            "--values"),
    "sweep-distance-nan": (["sweep", "--axis", "distance", "--values", "1..nan"],
                           "--values"),
    # ranges longer than MAX_RANGE_VALUES
    "payload-range-2e5": (["analyze", "payload", "--payload", "0..2e5", "--p-ber", "1e-3"],
                          "--payload"),
    "retry-m-range-1e9": (["analyze", "retry", "--m", "1..1e9"], "--m"),
    # grids of more than MAX_RANGE_VALUES cells from two lists within it
    "retry-grid-150030": (["analyze", "retry", "--m", "1..30", "--p-fer", "0..1 step 0.0002"],
                          "--m x --p-fer"),
    "payload-grid-128256": (["analyze", "payload", "--payload", "0..255",
                             "--p-ber", "0..0.5 step 0.001"], "--payload x --p-ber"),
    "sweep-retries-range-1e9": (["sweep", "--axis", "max_retries", "--values", "0..1e9"],
                                "--values"),
    # a step below the float spacing at 1e20 never moves the range on
    "sweep-distance-lost-step": (["sweep", "--axis", "distance", "--values", "1e20..1e20"],
                                 "--values"),
    # exact decimal arithmetic on 10**99999999999 would never finish
    "payload-range-decimal-places": (["analyze", "payload", "--payload", "1e-99999999999..1"],
                                     "--payload"),
    "start-inf": (["optimize", "--p-ber", "1e-3", "--start", "inf"], "--start"),
    "start-nan": (["optimize", "--p-ber", "1e-3", "--start", "nan"], "--start"),
    "start-1e300": (["optimize", "--p-ber", "0.5", "--start", "1e300"], "--start"),
    "start-1e-200": (["optimize", "--p-ber", "1e-3", "--start", "1e-200"], "--start"),
    "start-1e6": (["optimize", "--p-ber", "1e-3", "--start", "1e6"], "--start"),
    "tolerance-nan": (["optimize", "--p-ber", "1e-3", "--tolerance", "nan"], "--tolerance"),
    "tolerance-0": (["optimize", "--p-ber", "1e-3", "--tolerance", "0"], "--tolerance"),
    "max-iterations--5": (["optimize", "--p-ber", "1e-3", "--max-iterations", "-5"],
                          "--max-iterations"),
    "max-iterations-0": (["optimize", "--p-ber", "1e-3", "--max-iterations", "0"],
                         "--max-iterations"),
    "sweep-values-empty-range": (["sweep", "--axis", "max_retries", "--values", "5..1"],
                                 "--values"),
    "sweep-values-empty-list": (["sweep", "--axis", "max_retries", "--values", ","],
                                "--values"),
    "set-without-equals": (["simulate", "--set", "node_count"], "node_count"),
    # every attempt of a 255-byte packet fails at this ber, so a packet's
    # retries, which run past duration_s, would take hours
    "max-retries-1e9-on-a-lossy-link": (["simulate", "--set", "node_count=1",
                                         "--set", "preset=explicit", "--set", "ber=0.01",
                                         "--set", "payload_len=255", "--set", "duration_s=0.01",
                                         "--set", "max_retries=1000000000"], "max_retries"),
    # with no ber beside it, a distance_map reaches its own checks
    "distance-map-entry-without-colon": (["simulate", "--set", "preset=explicit",
                                          "--set", "distance_map=1-0.001"], "distance_map"),
    "distance-map-decreasing": (["simulate", "--set", "preset=explicit",
                                 "--set", "distance_map=2:0.001,1:0.002"], "distance_map"),
    "distance-map-ber-over-one": (["simulate", "--set", "preset=explicit",
                                   "--set", "distance_map=1:2,2:3"], "distance_map"),
}


@pytest.mark.parametrize("name", sorted(BAD_FLAG_VALUES))
def test_bad_flag_value_exits_2_naming_its_flag(tmp_path, capsys, name):
    argv, flag = BAD_FLAG_VALUES[name]
    out = tmp_path / "x.csv"
    assert main_within_10s([*argv, "-o", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_parse_rejects_a_non_finite_range_bound():
    # an unbounded range would otherwise grow its value list without end
    for spec in ("1..inf", "nan..3", "1..3 step nan"):
        with pytest.raises(ConfigError):
            parse_values(spec)


def test_parse_caps_a_range_at_max_range_values():
    assert parse_values(f"1..{MAX_RANGE_VALUES}") == list(range(1, MAX_RANGE_VALUES + 1))
    with pytest.raises(ConfigError, match="more than"):
        parse_values(f"0..{MAX_RANGE_VALUES}")


def test_optimize_non_convergence_exit_3_trace_still_written(tmp_path):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--p-ber", "1e-3", "--max-iterations", "1",
                 "-o", str(out)])
    assert code == 3
    assert out.exists()


def test_optimize_flat_start_exits_3_naming_the_rate_and_start(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--p-ber", "0.2", "-o", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "p_ber=0.2" in err and "payload_0=15.0" in err
    _, rows = read_rows(out)
    assert [row[1] for row in rows] == ["15.0", "15.0"]


def test_optimize_verbatim_flag(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--p-ber", "1e-3", "--verbatim-gradient",
                 "-o", str(out)])
    assert code == 0
    assert "optimum payload" in capsys.readouterr().out


# -------------------------------------------------------------------- codec

def test_codec_dump_round_trip(capsys):
    from wbansim.frames import data_frame, encode_frame
    wire = encode_frame(data_frame(2, 1, 7, b"hi"))
    assert main(["codec", "dump", wire.hex()]) == 0
    text = capsys.readouterr().out
    assert "type=DATA" in text and "seq=7" in text and "payload_len=2" in text


def test_codec_dump_reports_crc_error(capsys):
    from wbansim.frames import data_frame, encode_frame
    wire = bytearray(encode_frame(data_frame(2, 1, 7, b"hi")))
    wire[0] ^= 0x01
    assert main(["codec", "dump", bytes(wire).hex()]) == 1
    assert "CrcError" in capsys.readouterr().out


def test_codec_dump_rejects_non_hex():
    assert main(["codec", "dump", "zz"]) == 2


# -------------------------------------------------------------- determinism

def test_repeat_invocation_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", *FAST, "--set", "seed=31"]
    assert main([*args, "-o", str(out_a)]) == 0
    assert main([*args, "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    manifest_a = json.loads(out_a.with_suffix(".manifest.json").read_text())
    manifest_b = json.loads(out_b.with_suffix(".manifest.json").read_text())
    manifest_a["outputs"] = manifest_b["outputs"] = []
    assert manifest_a == manifest_b


# ----------------------------------------------------- runtime dependencies

SRC = Path(wbansim.__file__).resolve().parents[1]

NUMPY_FREE_COMMANDS = [
    ["simulate", *FAST, "-o", "simulate.csv"],
    ["sweep", *FAST, "--axis", "max_retries", "--values", "0..1", "-o", "sweep.csv"],
    ["analyze", "retry", "--m", "1..5", "-o", "retry.csv"],
    ["optimize", "--p-ber", "1e-3", "-o", "optimize.csv"],
]


def run_python(code, cwd):
    """Run `code` in a fresh interpreter that imports this wbansim."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})


def test_importing_the_cli_loads_no_numpy(tmp_path):
    done = run_python("import sys, wbansim.cli; print('numpy' in sys.modules)", tmp_path)
    assert done.stdout == "False\n", done.stderr


def test_every_command_runs_without_numpy(tmp_path):
    # a None entry in sys.modules makes every `import numpy` fail
    done = run_python("import sys; sys.modules['numpy'] = None\n"
                      "from wbansim.cli import main\n"
                      f"print([main(args) for args in {NUMPY_FREE_COMMANDS!r}])", tmp_path)
    assert done.stdout.splitlines()[-1:] == ["[0, 0, 0, 0]"], done.stderr


def test_no_command_loads_hashlib(tmp_path):
    # substream keys hash with the builtin _sha256, so OpenSSL stays unloaded
    from wbansim.frames import data_frame, encode_frame
    commands = [*NUMPY_FREE_COMMANDS, ["analyze", "payload", "-o", "payload.csv"],
                ["codec", "dump", encode_frame(data_frame(2, 1, 7, b"hi")).hex()]]
    done = run_python("import sys\nfrom wbansim.cli import main\n"
                      f"codes = [main(args) for args in {commands!r}]\n"
                      "print(codes, [m for m in ('hashlib', '_hashlib') if m in sys.modules])",
                      tmp_path)
    assert done.stdout.splitlines()[-1:] == ["[0, 0, 0, 0, 0, 0] []"], done.stderr
