"""One node joins a hub and pushes packets through a noisy link.

Shows the management handshake, stop-and-wait ARQ with retries on a
channel that corrupts bits at random, and the primitive trace the stack
logs along the way.  Run me:  python demos/02_two_device_exchange.py
"""

from wbansim import ChannelModel
from wbansim.mac import (Device, Role, establish_connection, make_link,
                         send_with_arq)
from wbansim.simulator import DEFAULT_DATA_RATE_BPS

trace = []
hub = Device(Role.HUB, 0, trace=trace)
node = Device(Role.NODE, 5, max_retries=3, trace=trace)

# a harsh channel so retries actually happen: ~17% of exchanges fail
link = make_link(node, hub, ChannelModel(rng_seed=20260809), 8e-4)

print("=== handshake ===")
establish_connection(node, link)
print(f"node 5 state: {node.connection.name}; hub registry: {sorted(hub.registry)}")

print()
print("=== 40 packets of 10 bytes under ber=8e-4 ===")
for i in range(40):
    outcome = send_with_arq(node, link, 10)
    marker = "ok " if outcome.success else "LOST"
    if outcome.attempts_used > 1 or not outcome.success:
        print(f"packet {i:2d}: {marker} after {outcome.attempts_used} attempts")

print()
print(f"frames sent (attempts) : {node.frames_sent}")
print(f"packets delivered/lost : {node.packets_delivered}/{node.packets_lost}")
print(f"hub intact frames      : {hub.rx_frames[5]} "
      f"(duplicates from lost acks: {hub.drops['duplicate']})")
print(f"hub accepted packets   : {hub.rx_packets[5]}")

print()
print("=== first primitive trace lines (time device family kind) ===")
# trace times are ticks, one bit period each at the default data rate
for entry in trace[:8]:
    print(f"{entry[0] / DEFAULT_DATA_RATE_BPS:.6f} {entry[1]} {entry[2]} {entry[3]}")
