"""Command-line front end: reproducible experiments with CSV outputs.

Subcommands: ``simulate``, ``sweep``, ``analyze``, ``optimize``, and
``codec dump``.  Configs are flat ``key = value`` text files; any key can
be overridden with ``--set key=value`` and the seed with the ``WBAN_SEED``
environment variable (env wins).  Every CSV is written next to a
``<name>.manifest.json`` that captures the fully resolved inputs, so a run
can be repeated bit for bit.

Exit codes: 0 ok, 1 ``codec dump`` bytes that do not decode, 2 usage/config
error, 3 optimizer non-convergence.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, analytics, optimizer, simulator
from .errors import (ConfigError, CrcError, MalformedError, RangeError,
                     TruncatedError, WbanError)
from .frames import decode_frame

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

_FIELD_TYPES = {f.name: f.type for f in fields(simulator.ExperimentConfig)}
MAX_RANGE_VALUES = 100_000   # values in one a..b range, and cells in one analyze grid:
                             # 100x the longest an example uses
MAX_DECIMAL_PLACES = 1074    # of the smallest float, 2**-1074, written out exactly


# ------------------------------------------------------------ config files

def _parse_number(text: str):
    text = text.strip()
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc


def _decimal_range(spec: str, texts: tuple) -> tuple[range, int]:
    """Numerators over one denominator of the exact decimals start + i*step
    up to stop; dividing one gives the float nearest that decimal."""
    # imported here: only float ranges need them, and they add about 4 ms
    # and 0.5 MB to every start-up
    from decimal import Decimal
    from fractions import Fraction
    decimals = [Decimal(text) for text in texts]
    # no float's exact decimal has more places; past them the exact sums
    # grow without bound
    if min(d.as_tuple().exponent for d in decimals) < -MAX_DECIMAL_PLACES:
        raise ConfigError(f"{spec!r} has more than {MAX_DECIMAL_PLACES} decimal places")
    first, last, delta = map(Fraction, decimals)
    den = math.lcm(first.denominator, delta.denominator)
    return range(int(first * den), math.floor(last * den) + 1, int(delta * den)), den


def parse_values(spec: str) -> list:
    """Comma list or inclusive range: ``a,b,c`` | ``a..b`` | ``a..b step s``."""
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty value list")
    m = re.fullmatch(r"(\S+)\s*\.\.\s*([^\s]+)(?:\s+step\s+(\S+))?", spec)
    if m:
        texts = (m.group(1), m.group(2), m.group(3) or "1")
        start, stop, step = (_parse_number(text) for text in texts)
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ConfigError(f"range bounds and step must be finite in {spec!r}")
        if step <= 0:
            raise ConfigError(f"step must be positive in {spec!r}")
        integral = isinstance(start, int) and isinstance(step, int)
        if integral and isinstance(stop, int):
            numerators, den = range(start, stop + 1, step), 1
        elif not integral and step < math.ulp(max(abs(start), abs(stop))):
            raise ConfigError(f"step is below the float spacing in {spec!r}")
        else:
            # an integral range's denominator is 1, so its stop is cut exactly
            numerators, den = _decimal_range(spec, texts)
        # cut before len(): the whole range's length may not fit a C ssize_t
        numerators = numerators[:MAX_RANGE_VALUES + 1]
        if not numerators:
            raise ConfigError(f"range {spec!r} is empty")
        if len(numerators) > MAX_RANGE_VALUES:
            raise ConfigError(f"range {spec!r} holds more than {MAX_RANGE_VALUES} values")
        return list(numerators) if integral else [n / den for n in numerators]
    values = [part for part in (p.strip() for p in spec.split(",")) if part]
    if not values:
        raise ConfigError("empty value list")
    return [_parse_number(v) for v in values]


def load_config_file(path: str) -> dict:
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc.reason} "
                          f"at byte {exc.start}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    return raw


def _parse_distance_map(text: str) -> tuple:
    pairs = []
    for item in text.split(","):
        if ":" not in item:
            raise ConfigError(f"distance_map entry {item!r} must look like `dist:ber`")
        d, b = item.split(":", 1)
        pairs.append((float(d), float(b)))
    return tuple(pairs)


def _parse_field(key: str, value: str):
    if key == "preset":
        return value.strip()
    if key == "distance_m":
        parsed = parse_values(value)
        return parsed[0] if len(parsed) == 1 else parsed
    if key == "distance_map":
        return _parse_distance_map(value)
    if key == "ber":
        return None if value.strip().lower() == "none" else float(value)
    number = _parse_number(value)
    return _integral(number) if _FIELD_TYPES[key] is int else float(number)


def _integral(number) -> int:
    """`number` as an int; a non-integral or non-finite float is an error."""
    if isinstance(number, float) and not number.is_integer():
        raise ConfigError(f"{number!r} is not an integer")
    return int(number)


def _flag_values(flag: str, spec: str, integral: bool = False) -> list:
    """Values of `flag`, finite and (if asked) integral; any error names the flag."""
    try:
        values = parse_values(spec)
        for v in values:
            if not math.isfinite(v):
                raise ConfigError(f"{v!r} is not finite")
        return [_integral(v) for v in values] if integral else values
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _check_grid(flags: str, first: list, second: list) -> None:
    """Refuse a grid of more than MAX_RANGE_VALUES cells; the error names both flags."""
    if len(first) * len(second) > MAX_RANGE_VALUES:
        raise ConfigError(f"{flags}: {len(first)} x {len(second)} values make more than "
                          f"{MAX_RANGE_VALUES} cells")


def build_config(raw: dict) -> simulator.ExperimentConfig:
    config = simulator.ExperimentConfig()
    settings = [(key, key, value) for key, value in raw.items()]
    if "WBAN_SEED" in os.environ:   # env wins over files and --set
        settings.append(("WBAN_SEED", "seed", os.environ["WBAN_SEED"]))
    for source, key, value in settings:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(config, key, _parse_field(key, value))
        except ValueError as exc:
            raise ConfigError(f"{source}={value!r}: {exc}") from None
    config.validate()
    return config


def _resolve_config(args) -> simulator.ExperimentConfig:
    raw = load_config_file(args.config) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return build_config(raw)


# ------------------------------------------------------------- CSV helpers

def _check_writable(flag: str, path: Path) -> None:
    """Refuse an output `path` that cannot be written, naming `flag`; create nothing."""
    existed = os.path.lexists(path)   # a dangling link is kept, not unlinked
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: cannot write: {exc.strerror}") from None
    if not existed:
        path.unlink()


def _checked_output(path: str) -> Path:
    """The `--output` path, checked writable with its manifest."""
    out = Path(path)
    _check_writable("--output", out)
    _check_writable("--output", out.with_suffix(".manifest.json"))
    return out


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_manifest(csv_path: Path, command: str, config: dict, seed) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "outputs": [csv_path.name],
    }
    manifest_path = csv_path.with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# -------------------------------------------------------------- subcommands

def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    out = _checked_output(args.output)
    if args.trace:
        _check_writable("--trace", Path(args.trace))
    trace: list | None = [] if args.trace else None
    result = simulator.run_experiment(config, trace=trace)
    rows = [[link.node_id, link.distance_m, link.ber,
             link.counters.s_frm, link.counters.r_frm,
             link.counters.s_pkt, link.counters.r_pkt,
             link.counters.fer, link.counters.per]
            for link in result.links]
    write_csv(out, ["node", "distance_m", "ber", "s_frm", "r_frm",
                    "s_pkt", "r_pkt", "fer", "per"], rows)
    write_manifest(out, "simulate", asdict(config), config.seed)
    if args.trace:
        Path(args.trace).write_text(
            "".join(f"{t / config.data_rate_bps:.9f} {dev} {family} {kind}\n"
                    for t, dev, family, kind in trace))
    total = result.totals
    print(f"simulate: {len(result.links)} links, fer={total.fer:.6g} per={total.per:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    integral = _FIELD_TYPES[simulator.SWEEP_AXES[args.axis]] is int
    values = _flag_values(f"--values for axis {args.axis}", args.values, integral)
    out = _checked_output(args.output)
    rows = simulator.sweep(config, args.axis, values)
    write_csv(out, ["axis", "value", "s_frm", "r_frm", "s_pkt", "r_pkt", "fer", "per"],
              [[row.axis, row.value, row.counters.s_frm, row.counters.r_frm,
                row.counters.s_pkt, row.counters.r_pkt, row.fer, row.per]
               for row in rows])
    write_manifest(out, "sweep",
                   {"base": asdict(config), "axis": args.axis,
                    "values": values}, config.seed)
    print(f"sweep: {len(rows)} runs over {args.axis}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    out = _checked_output(args.output)
    if args.model == "retry":
        m_values = _flag_values("--m", args.m, integral=True)
        for m in m_values:
            if not 1 <= m <= analytics.PAPER_MAX_M:
                raise ConfigError(f"--m={m} outside 1..{analytics.PAPER_MAX_M}")
        p_values = _flag_values("--p-fer", args.p_fer)
        _check_grid("--m x --p-fer", m_values, p_values)
        rows = []
        for p in p_values:
            for m in m_values:
                paper = analytics.retry_success_paper(m, p)
                geom = analytics.retry_success_geometric(m, p)
                rows.append([m, p, paper, geom, 1.0 - geom])
        write_csv(out, ["m", "p_fer", "success_final_attempt",
                        "success_within_m", "per"], rows)
        write_manifest(out, "analyze",
                       {"model": "retry", "m": m_values, "p_fer": p_values}, None)
    else:
        payloads = _flag_values("--payload", args.payload)
        p_values = _flag_values("--p-ber", args.p_ber)
        _check_grid("--payload x --p-ber", payloads, p_values)
        rows = []
        for p in p_values:
            for payload in payloads:
                rows.append([payload, p, analytics.data_length(payload),
                             analytics.ack_length_term(p),
                             analytics.fer_analytic(payload, p)])
        write_csv(out, ["payload", "p_ber", "l_data", "l_ack", "fer"], rows)
        write_manifest(out, "analyze",
                       {"model": "payload", "payload": payloads,
                        "p_ber": p_values}, None)
    print(f"analyze: wrote {out}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    if not optimizer.MIN_START <= args.start <= optimizer.MAX_START:
        raise ConfigError(f"--start={args.start} outside "
                          f"[{optimizer.MIN_START:.3g}, {optimizer.MAX_START:g}]")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(f"--tolerance={args.tolerance} must be positive and finite")
    if args.max_iterations < 1:
        raise ConfigError(f"--max-iterations={args.max_iterations} must be >= 1")
    out = _checked_output(args.output)
    result = optimizer.optimize_payload(
        args.p_ber, payload_0=args.start, tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        verbatim_gradient=args.verbatim_gradient)
    write_csv(out, ["iteration", "payload", "epsilon", "objective"],
              [[pt.iteration, pt.payload, pt.epsilon, pt.objective]
               for pt in result.trace])
    write_manifest(out, "optimize",
                   {"p_ber": args.p_ber, "start": args.start,
                    "tolerance": args.tolerance,
                    "max_iterations": args.max_iterations,
                    "verbatim_gradient": args.verbatim_gradient}, None)
    candidates = ", ".join(
        f"payload {c.payload}: fer={c.fer:.6g}" for c in result.candidates)
    print(f"optimum payload {result.payload_opt:.6g} (fer={result.fer_opt:.6g}); "
          f"integer candidates: {candidates}")
    if not result.converged:
        print(f"warning: {result.diagnostic}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_codec_dump(args) -> int:
    text = re.sub(r"[\s:]", "", args.hexbytes)
    try:
        wire = bytes.fromhex(text)
    except ValueError:
        print(f"not a hex string: {args.hexbytes!r}", file=sys.stderr)
        return EXIT_USAGE
    print(f"raw ({len(wire)} bytes): {wire.hex()}")
    try:
        frame = decode_frame(wire)
    except (CrcError, TruncatedError, MalformedError) as exc:
        print(f"decode error: {type(exc).__name__}: {exc}")
        if isinstance(exc, CrcError) and exc.header is not None:
            h = exc.header
            print(f"best-effort header: type={h.frame_type.name} "
                  f"to={h.recipient_id} from={h.sender_id} seq={h.sequence}")
        return 1
    h = frame.header
    print(f"type={h.frame_type.name} to={h.recipient_id} from={h.sender_id} "
          f"seq={h.sequence} frag={h.fragment_index} last={h.last_fragment} "
          f"payload_len={len(frame.body)}")
    print(f"body: {frame.body.hex() or '(empty)'}")
    print(f"fcs: 0x{int.from_bytes(wire[-2:], 'big'):04x}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbansim",
        description="Body-area-network MAC simulator and analytics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment")
    p_sim.add_argument("config", nargs="?", help="key = value config file")
    p_sim.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sim.add_argument("--output", "-o", default="simulate.csv")
    p_sim.add_argument("--trace", help="write primitive trace lines here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="repeat an experiment along one axis")
    p_sweep.add_argument("config", nargs="?")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.add_argument("--axis", required=True,
                         choices=sorted(simulator.SWEEP_AXES))
    p_sweep.add_argument("--values", required=True,
                         help="comma list or a..b [step s]")
    p_sweep.add_argument("--output", "-o", default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="tabulate the closed-form models")
    an_sub = p_an.add_subparsers(dest="model", required=True)
    p_retry = an_sub.add_parser("retry", help="retry-success surface")
    p_retry.add_argument("--m", default="1..30")
    p_retry.add_argument("--p-fer", dest="p_fer", default="0.05,0.1,0.3")
    p_retry.add_argument("--output", "-o", default="retry.csv")
    p_retry.set_defaults(func=cmd_analyze, model="retry")
    p_payload = an_sub.add_parser("payload", help="payload/FER surface")
    p_payload.add_argument("--payload", default="0..30")
    p_payload.add_argument("--p-ber", dest="p_ber", default="1e-5,1e-4,1e-3,1e-2")
    p_payload.add_argument("--output", "-o", default="payload.csv")
    p_payload.set_defaults(func=cmd_analyze, model="payload")

    p_opt = sub.add_parser("optimize", help="barrier search for payload")
    p_opt.add_argument("--p-ber", dest="p_ber", type=float, required=True)
    p_opt.add_argument("--start", type=float, default=optimizer.DEFAULT_START)
    p_opt.add_argument("--tolerance", type=float, default=optimizer.DEFAULT_TOLERANCE)
    p_opt.add_argument("--max-iterations", type=int,
                       default=optimizer.DEFAULT_MAX_ITERATIONS)
    p_opt.add_argument("--verbatim-gradient", action="store_true",
                       help="descend the printed gradient form")
    p_opt.add_argument("--output", "-o", default="optimize.csv")
    p_opt.set_defaults(func=cmd_optimize)

    p_codec = sub.add_parser("codec", help="wire-format utilities")
    codec_sub = p_codec.add_subparsers(dest="codec_command", required=True)
    p_dump = codec_sub.add_parser("dump", help="hex-dump and parse a frame")
    p_dump.add_argument("hexbytes")
    p_dump.set_defaults(func=cmd_codec_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WbanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
