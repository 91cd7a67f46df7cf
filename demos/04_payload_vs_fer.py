"""Bigger frames fail more often: the payload/FER trade-off.

Evaluates the analytic exchange failure model over payload sizes and bit
error rates, then cross-checks one column against the event simulator.
Run me:  python demos/04_payload_vs_fer.py
"""

from wbansim import fer_analytic, invert_fer_analytic
from wbansim.simulator import ExperimentConfig, sweep

payloads = [0, 5, 10, 15, 20, 25, 30]
rates = [1e-5, 1e-4, 1e-3]

print("=== analytic exchange FER: rows = payload bytes, cols = BER ===")
header = "payload " + "".join(f"{p:>12.0e}" for p in rates)
print(header)
for payload in payloads:
    cells = "".join(f"{fer_analytic(payload, p):>12.6f}" for p in rates)
    print(f"{payload:>7} {cells}")
print("every column grows monotonically: each extra byte adds 8 bits of "
      "exposure to corruption")

print()
print("=== simulator against the data-frame corruption law ===")
ber = invert_fer_analytic(0.005, 10)   # the wireless 2 m calibration point
base = ExperimentConfig(node_count=1, distance_m=2.0, payload_len=10,
                        max_retries=3, duration_s=60.0, seed=404,
                        preset="explicit", ber=ber)
rows = sweep(base, "payload_len", [5, 10, 15, 20, 25, 30])
print(f"{'payload':>8} {'frames':>8} {'simulated FER':>14} {'analytic law':>13}")
for row in rows:
    law = 1.0 - (1.0 - ber) ** (8 * (row.value + 8))
    print(f"{row.value:>8} {row.counters.s_frm:>8} {row.counters.fer:>14.6f} {law:>13.6f}")
print("\nsimulated hub-side FER tracks 1-(1-p)^(8(payload+8)); the analytic "
      "exchange model above additionally charges the 9-byte ack")
