"""Span tracer for the traced runs, and the per-layer metrics drawn from it.

Public wbansim functions are wrapped in the module namespace they are
called through: ``mac`` calls ``decode_frame`` through its own import, so
the wrapper goes on ``mac.decode_frame``.  Each span records its name,
start, end and the index of its parent span; spans stay in memory and the
last traced pass's spans are written out at the end.  Calls too frequent
to afford a span (``Device.poll_step``, ``fer_analytic``) are only counted.
"""

import contextlib
import time
from collections import Counter, defaultdict
from pathlib import Path

from wbansim import analytics, channel, cli, mac, optimizer, simulator

# Units of the per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "frames.encode_calls": "count", "frames.encode_us": "us",
    "frames.decode_calls": "count", "frames.decode_us": "us",
    "frames.decode_ok_ratio": "ratio",
    "channel.corrupt_calls": "count", "channel.corrupt_us": "us",
    "channel.flip_ratio": "ratio",
    "mac.arq_calls": "count", "mac.arq_self_us": "us", "mac.poll_steps": "count",
    "mac.attempts_per_packet": "ratio", "mac.delivered_ratio": "ratio",
    "simulator.run_s": "s", "simulator.self_s": "s",
    "mac.join_ms": "ms", "channel.preset_calls": "count", "channel.preset_ms": "ms",
    "analytics.invert_calls": "count", "analytics.invert_ms": "ms",
    "analytics.fer_analytic_calls": "count",
    "optimizer.solve_ms": "ms", "optimizer.steps_per_solve": "count",
    "cli.parse_ms": "ms", "cli.write_ms": "ms",
}


def _flipped(counts, args, result) -> None:
    if result != args[1]:
        counts["channel.flipped"] += 1


def _arq_outcome(counts, args, result) -> None:
    counts["mac.attempts"] += result.attempts_used
    counts["mac.delivered"] += result.success


def _solve_steps(counts, args, result) -> None:
    counts["optimizer.steps"] += result.iterations


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start_ns, end_ns, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def span(self, name: str, fn, observe=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        raised = name + ".raised"

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[raised] += 1
                raise
            finally:
                stack.pop()
                record[2] = clock()
            if observe is not None:
                observe(counts, args, result)
            return result
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        targets = [
            (mac, "encode_frame", lambda f: self.span("frames.encode", f)),
            (mac, "decode_frame", lambda f: self.span("frames.decode", f)),
            (channel.FrameCorruptor, "corrupt",
             lambda f: self.span("channel.corrupt", f, _flipped)),
            (mac.Device, "poll_step", lambda f: self.counted("mac.poll_step", f)),
            (simulator, "send_with_arq", lambda f: self.span("mac.arq", f, _arq_outcome)),
            (simulator, "establish_connection", lambda f: self.span("mac.join", f)),
            (simulator, "run_experiment", lambda f: self.span("simulator.run", f)),
            (simulator, "preset", lambda f: self.span("channel.preset", f)),
            (channel, "preset", lambda f: self.span("channel.preset", f)),
            (channel, "invert_fer_analytic", lambda f: self.span("analytics.invert", f)),
            (analytics, "fer_analytic", lambda f: self.counted("analytics.fer_analytic", f)),
            (optimizer, "fer_analytic", lambda f: self.counted("analytics.fer_analytic", f)),
            (optimizer, "optimize_payload",
             lambda f: self.span("optimizer.solve", f, _solve_steps)),
            (cli, "build_config", lambda f: self.span("cli.parse", f)),
            (cli, "parse_values", lambda f: self.span("cli.parse", f)),
            (cli, "write_csv", lambda f: self.span("cli.write", f)),
            (cli, "write_manifest", lambda f: self.span("cli.write", f)),
        ]
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrap in targets:
                setattr(owner, attr, wrap(vars(owner)[attr]))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        lines = ["index\tname\tstart_ns\tend_ns\tparent"]
        lines += [f"{i}\t{name}\t{start}\t{end}\t{parent}"
                  for i, (name, start, end, parent) in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset."""
        spans, counts = self.spans, self.counts
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: defaultdict = defaultdict(int)   # nested same-name spans count once
        self_ns: defaultdict = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            if parent < 0 or spans[parent][0] != name:
                total_ns[name] += end - start

        def per_call(ns: int, name: str, scale: float) -> float:
            return ns / calls[name] / scale if calls[name] else 0.0

        def share(part: int, name: str) -> float:
            return part / calls[name] if calls[name] else 0.0

        return {
            "frames.encode_calls": calls["frames.encode"],
            "frames.encode_us": per_call(total_ns["frames.encode"], "frames.encode", 1e3),
            "frames.decode_calls": calls["frames.decode"],
            "frames.decode_us": per_call(total_ns["frames.decode"], "frames.decode", 1e3),
            "frames.decode_ok_ratio": share(
                calls["frames.decode"] - counts["frames.decode.raised"], "frames.decode"),
            "channel.corrupt_calls": calls["channel.corrupt"],
            "channel.corrupt_us": per_call(total_ns["channel.corrupt"], "channel.corrupt", 1e3),
            "channel.flip_ratio": share(counts["channel.flipped"], "channel.corrupt"),
            "mac.arq_calls": calls["mac.arq"],
            "mac.arq_self_us": per_call(self_ns["mac.arq"], "mac.arq", 1e3),
            "mac.poll_steps": counts["mac.poll_step"],
            "mac.attempts_per_packet": share(counts["mac.attempts"], "mac.arq"),
            "mac.delivered_ratio": share(counts["mac.delivered"], "mac.arq"),
            "simulator.run_s": total_ns["simulator.run"] / 1e9,
            "simulator.self_s": self_ns["simulator.run"] / 1e9,
            "mac.join_ms": total_ns["mac.join"] / 1e6,
            "channel.preset_calls": calls["channel.preset"],
            "channel.preset_ms": per_call(total_ns["channel.preset"], "channel.preset", 1e6),
            "analytics.invert_calls": calls["analytics.invert"],
            "analytics.invert_ms": per_call(total_ns["analytics.invert"], "analytics.invert", 1e6),
            "analytics.fer_analytic_calls": counts["analytics.fer_analytic"],
            "optimizer.solve_ms": per_call(total_ns["optimizer.solve"], "optimizer.solve", 1e6),
            "optimizer.steps_per_solve": share(counts["optimizer.steps"], "optimizer.solve"),
            "cli.parse_ms": total_ns["cli.parse"] / 1e6,
            "cli.write_ms": total_ns["cli.write"] / 1e6,
        }
