"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed once; every
operation of a run then repeats the same call on the same inputs, so run
times are comparable and every output must be identical to the first.

- ``setup()`` is the work between import and the first timed operation.
- ``run()`` is one timed operation, a closed-loop call into wbansim.
- ``check(output)`` returns the problems with one operation's output.
- ``z_scores(output)`` gives the statistical checks, made once per run.
- ``exchanges(output)`` counts the data-frame ARQ attempts simulated.
"""

import contextlib
import csv
import io
import json
import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

from wbansim import analytics, channel, cli, optimizer, simulator

import oracle

# Shorter than any join handshake: a run of this length builds the channel
# and joins every node, then simulates no data exchange.
JOIN_ONLY_S = 1e-9


def derived_seed(seed: int, workload: str) -> int:
    """Simulator seed for `workload`, made from the benchmark seed."""
    return random.Random(f"{workload}:{seed}").randrange(1, 2**31)


class Star64Calibrated:
    """64 nodes on the calibrated ``wireless`` preset, 1-10 m."""

    name = "star64-calibrated"

    def __init__(self, seed: int, scratch: Path):
        self.config = simulator.ExperimentConfig(
            node_count=64,
            distance_m=[1.0 + 9.0 * i / 63 for i in range(64)],
            payload_len=10, max_retries=3, duration_s=0.5,
            seed=derived_seed(seed, self.name), preset="wireless")
        self._bers = None
        self._first = None

    def setup(self) -> None:
        simulator.run_experiment(replace(self.config, duration_s=JOIN_ONLY_S))

    def run(self):
        return simulator.run_experiment(self.config)

    def exchanges(self, result) -> int:
        return sum(link.counters.s_frm for link in result.links)

    def check(self, result) -> list[str]:
        if self._bers is None:
            table = oracle.calibrated_table(self.config.preset)
            self._bers = [oracle.interpolate(table, d) for d in self.config.distances()]
        problems = []
        if len(result.links) != self.config.node_count:
            return [f"{len(result.links)} links for {self.config.node_count} nodes"]
        for link, ber in zip(result.links, self._bers):
            c = link.counters
            if link.delivered + link.lost != c.s_pkt:
                problems.append(f"node {link.node_id}: delivered {link.delivered} "
                                f"+ lost {link.lost} != s_pkt {c.s_pkt}")
            if c.r_frm > c.s_frm:
                problems.append(f"node {link.node_id}: r_frm {c.r_frm} > s_frm {c.s_frm}")
            if not math.isclose(link.ber, ber, rel_tol=1e-9):
                problems.append(f"node {link.node_id}: ber {link.ber!r}, "
                                f"calibration gives {ber!r}")
        fingerprint = [(link.ber, link.counters.s_frm, link.counters.r_frm,
                        link.counters.s_pkt, link.counters.r_pkt,
                        link.delivered, link.lost) for link in result.links]
        if self._first is None:
            self._first = fingerprint
        elif fingerprint != self._first:
            problems.append("counters differ from the first run of the same config")
        return problems

    def z_scores(self, result) -> dict[str, float]:
        corrupted = failed = 0
        fer_mean = fer_var = fail_mean = fail_var = 0.0
        data_bits = oracle.data_bits(self.config.payload_len)
        for link in result.links:
            s = link.counters.s_frm
            f = oracle.frame_error(data_bits, link.ber)
            g = oracle.frame_error(data_bits + oracle.ACK_BITS, link.ber)
            corrupted += s - link.counters.r_frm
            failed += s - link.delivered
            fer_mean += s * f
            fer_var += s * f * (1.0 - f)
            fail_mean += s * g
            fail_var += s * g * (1.0 - g)
        return {"pooled_fer": oracle.z_score(corrupted, fer_mean, fer_var),
                "pooled_attempt_failure": oracle.z_score(failed, fail_mean, fail_var)}


class LossyRetrySweep:
    """``wbansim sweep --axis max_retries --values 0..4`` on one lossy link."""

    name = "lossy-retry-sweep"
    retries = [0, 1, 2, 3, 4]
    ber = 2e-3
    payload = 10
    seconds_per_point = 100.0
    header = ["axis", "value", "s_frm", "r_frm", "s_pkt", "r_pkt", "fer", "per"]

    def __init__(self, seed: int, scratch: Path):
        self.seed = derived_seed(seed, self.name)
        self.scratch = scratch
        self.settings = {"node_count": 1, "preset": "explicit", "ber": self.ber,
                         "payload_len": self.payload,
                         "duration_s": self.seconds_per_point, "seed": self.seed}
        self.argv = ["sweep", "--axis", "max_retries", "--values", "0..4"]
        for key, value in self.settings.items():
            self.argv += ["--set", f"{key}={value}"]
        self._first = None

    def setup(self) -> None:
        simulator.run_experiment(simulator.ExperimentConfig(
            node_count=1, preset="explicit", ber=self.ber,
            payload_len=self.payload, max_retries=self.retries[0],
            duration_s=JOIN_ONLY_S, seed=self.seed))

    def run(self) -> dict:
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            out = Path(tmp) / "sweep.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv + ["--output", str(out)])
            return {"code": code, "csv": out.read_text(),
                    "manifest": out.with_suffix(".manifest.json").read_text()}

    @staticmethod
    def _rows(output: dict) -> list[dict]:
        return list(csv.DictReader(io.StringIO(output["csv"])))

    def exchanges(self, output: dict) -> int:
        return sum(int(row["s_frm"]) for row in self._rows(output))

    def check(self, output: dict) -> list[str]:
        if output["code"] != cli.EXIT_OK:
            return [f"sweep exited with {output['code']}"]
        problems = []
        if output["csv"].splitlines()[0] != ",".join(self.header):
            problems.append(f"CSV header {output['csv'].splitlines()[0]!r}")
        rows = self._rows(output)
        if [row["axis"] for row in rows] != ["max_retries"] * len(self.retries) \
                or [int(row["value"]) for row in rows] != self.retries:
            problems.append("CSV rows do not follow max_retries 0..4")
        for row in rows:
            s_frm, r_frm, s_pkt, r_pkt = (int(row[k]) for k in
                                          ("s_frm", "r_frm", "s_pkt", "r_pkt"))
            if not (0 <= r_frm <= s_frm and 0 <= r_pkt <= s_pkt and s_pkt > 0):
                problems.append(f"row {row['value']}: counters {s_frm},{r_frm},{s_pkt},{r_pkt}")
                continue
            if float(row["fer"]) != (s_frm - r_frm) / s_frm \
                    or float(row["per"]) != (s_pkt - r_pkt) / s_pkt:
                problems.append(f"row {row['value']}: fer/per do not re-parse to its counters")
        manifest = json.loads(output["manifest"])
        base = manifest["config"]["base"]
        if manifest["command"] != "sweep" or manifest["outputs"] != ["sweep.csv"] \
                or manifest["config"]["values"] != self.retries \
                or any(base[k] != v for k, v in self.settings.items()):
            problems.append("manifest does not hold the generated configuration")
        if self._first is None:
            self._first = (output["csv"], output["manifest"])
        elif (output["csv"], output["manifest"]) != self._first:
            problems.append("CSV or manifest differs from the first run of the same config")
        return problems

    def z_scores(self, output: dict) -> dict[str, float]:
        f = oracle.frame_error(oracle.data_bits(self.payload), self.ber)
        scores = {}
        for row in self._rows(output):
            m = int(row["value"])
            s_frm, r_frm, s_pkt, r_pkt = (int(row[k]) for k in
                                          ("s_frm", "r_frm", "s_pkt", "r_pkt"))
            scores[f"fer_m{m}"] = oracle.binomial_z(s_frm - r_frm, s_frm, f)
            scores[f"per_m{m}"] = oracle.binomial_z(s_pkt - r_pkt, s_pkt, f ** (m + 1))
        return scores


class PaperModels:
    """The closed-form side: calibration, retry and payload tables, optimizer."""

    name = "paper-models"
    retry_m = range(1, 31)
    retry_p = (0.05, 0.1, 0.3)
    payloads = range(0, 31)
    payload_bers = (1e-5, 1e-4, 1e-3, 1e-2)
    optimizer_strata = 6      # log-spaced BER bins over 1e-5..1e-2

    def __init__(self, seed: int, scratch: Path):
        # One BER drawn in each half-decade keeps the optimizer's total
        # work about the same whatever the seed.
        rng = random.Random(f"{self.name}:{seed}")
        self.optimizer_bers = [10 ** (-5 + 0.5 * (k + rng.random()))
                               for k in range(self.optimizer_strata)]
        self._first = None

    def setup(self) -> None:
        pass

    def run(self) -> dict:
        return {
            "presets": {name: channel.preset(name) for name in oracle.PRESET_FER_TARGETS},
            "retry": [(m, p, analytics.retry_success_paper(m, p),
                       analytics.retry_success_geometric(m, p))
                      for p in self.retry_p for m in self.retry_m],
            "payload": [(b, [analytics.fer_analytic(L, b) for L in self.payloads])
                        for b in self.payload_bers],
            "optimize": [(b, verbatim, optimizer.optimize_payload(
                b, verbatim_gradient=verbatim))
                for b in self.optimizer_bers for verbatim in (False, True)],
        }

    def exchanges(self, output: dict) -> None:
        return None

    def check(self, output: dict) -> list[str]:
        problems = []
        for name, model in output["presets"].items():
            targets = oracle.PRESET_FER_TARGETS[name]
            if [d for d, _ in model.distance_map] != [d for d, _ in targets]:
                problems.append(f"{name}: calibration distances changed")
            for (d, ber), (_, target) in zip(model.distance_map, targets):
                fer = oracle.exchange_fer(oracle.CALIBRATION_PAYLOAD, ber)
                if abs(fer / target - 1.0) > 1e-9:
                    problems.append(f"{name} at {d} m: ber {ber!r} gives FER {fer!r}, "
                                    f"target {target}")
        for m, p, paper, within in output["retry"]:
            if not math.isclose(paper, oracle.retry_final_attempt(m, p), rel_tol=1e-9) \
                    or not math.isclose(within, oracle.retry_within(m, p), rel_tol=1e-9):
                problems.append(f"retry table at m={m}, p={p}: {paper!r}, {within!r}")
        for b, fers in output["payload"]:
            if any(hi <= lo for lo, hi in zip(fers, fers[1:])):
                problems.append(f"payload table at ber={b}: FER not increasing")
        for b, verbatim, result in output["optimize"]:
            grid = [oracle.exchange_fer(L, b) for L in self.payloads]
            best = result.best_integer
            if not result.converged:
                problems.append(f"optimize ber={b} verbatim={verbatim}: {result.diagnostic}")
            elif min(grid) < result.fer_opt * (1.0 - 1e-6) \
                    or best.payload != grid.index(min(grid)) \
                    or not math.isclose(best.fer, min(grid), rel_tol=1e-9):
                problems.append(f"optimize ber={b} verbatim={verbatim}: payload "
                                f"{result.payload_opt!r} is beaten on the 0..30 grid")
        fingerprint = ([(name, model.distance_map) for name, model in output["presets"].items()],
                       output["retry"], output["payload"],
                       [(b, v, r.payload_opt, r.fer_opt, r.iterations)
                        for b, v, r in output["optimize"]])
        if self._first is None:
            self._first = fingerprint
        elif fingerprint != self._first:
            problems.append("outputs differ from the first pass")
        return problems

    def z_scores(self, output: dict) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Star64Calibrated, LossyRetrySweep, PaperModels)}
