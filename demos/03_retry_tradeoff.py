"""How many retransmissions are worth it?

Tabulates both retry models: the combinatorial form (chance the first
clean exchange lands exactly on the last attempt) and the cumulative form
(chance of any clean exchange within the attempt budget), then finds where
extra retries stop paying.  Run me:  python demos/03_retry_tradeoff.py
"""

from wbansim import retry_success_geometric, retry_success_paper
from wbansim.simulator import ExperimentConfig, sweep

P_FER = 0.1
print(f"=== closed forms at per-frame error rate {P_FER} ===")
print(f"{'m':>3} {'exactly at m':>14} {'within m':>10} {'residual loss':>14}")
for m in range(1, 11):
    exact = retry_success_paper(m, P_FER)
    within = retry_success_geometric(m, P_FER)
    print(f"{m:>3} {exact:>14.6f} {within:>10.6f} {1 - within:>14.6f}")

threshold = 2e-3   # roughly what a plotted curve can resolve
first_good = next(m for m in range(1, 31)
                  if 1 - retry_success_geometric(m, P_FER) < threshold)
print(f"\nresidual loss sinks below {threshold} at m = {first_good} attempts, "
      f"i.e. {first_good - 1} retries; beyond that the curve is flat")

print()
print("=== desk-scale simulation, 10 m wireless link ===")
base = ExperimentConfig(node_count=2, distance_m=10.0, payload_len=10,
                        duration_s=20.0, seed=42, preset="wireless")
rows = sweep(base, "max_retries", [0, 1, 2, 3, 4])
print(f"{'retries':>8} {'packets':>8} {'PER':>10}")
for row in rows:
    print(f"{row.value:>8} {row.counters.s_pkt:>8} {row.counters.per:>10.6f}")
print("\nthree retries already push every packet through, matching the "
      "closed-form plateau")
