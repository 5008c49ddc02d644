"""Constant-composition information climbing toward I_alpha(N).

Uses the two-pure-state channel {|0>, |+>}: for blocklengths from 1 to
200 the best type class (over blocklengths up to n) is reported together
with its per-use information and the gap to the optimized channel
quantity. Two pure letters take the closed-form Johnson-scheme spectrum,
so n = 200 costs about a second.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cqexp import best_type_up_to, load_channel, renyi_mi_channel

CHANNEL_FILE = pathlib.Path(__file__).resolve().parent.parent / "channels" / "pure_pair.json"
ALPHA = 0.5
SHOWN = (1, 2, 3, 4, 5, 6, 10, 20, 50, 100, 200)


def main() -> None:
    channel = load_channel(CHANNEL_FILE)
    target = renyi_mi_channel(channel, ALPHA).value
    print(f"I_alpha(N) at alpha={ALPHA}: {target:.6f} bits/use")
    print()
    print(f"{'n':>3} {'best type':>12} {'value/use':>10} {'gap':>10}")
    for n, t, value in best_type_up_to(channel, SHOWN[-1], ALPHA):
        if n in SHOWN:
            counts = "(" + ",".join(str(c) for c in t.counts) + ")"
            print(f"{n:3d} {counts:>12} {value:10.6f} {target - value:10.6f}")


if __name__ == "__main__":
    main()
