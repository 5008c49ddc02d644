"""Exact coding simulation against the exponent bounds at r = 0.3.

Draws random codebooks at a fixed rate, decodes with the pretty-good
measurement, and compares the best-of-trials implied exponents with the
achievability/sphere-packing band (plus the finite-blocklength slack).
Two channels: BSC(0.1) up to n = 8 on the diagonal path, and the pure
pair {|0>, |+>} up to n = 24 on the Gram path, where M = 147 codewords
replace states of dimension 2^24.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cqexp import ChannelAnalysis, estimate_exponent, load_channel

CHANNELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "channels"
RATE = 0.3
SEED = 1234
# (channel file, blocklengths, trials per blocklength and mode)
RUNS = (
    ("bsc01.json", [2, 4, 6, 8], 200),
    ("pure_pair.json", [4, 8, 12, 16, 20, 24], 50),
)


def report(channel_file: str, n_list: list[int], trials: int) -> None:
    channel = load_channel(CHANNELS_DIR / channel_file)
    session = ChannelAnalysis(channel)
    lower = session.lower_bound(RATE).value
    upper = session.upper_bound(RATE).value
    print(f"{channel_file}, rate {RATE} bits/use: bound band [{lower:.6f}, {upper:.6f}]")
    print()
    print(f"{'n':>3} {'M':>4} {'best_pe':>12} {'mean_pe':>12} {'implied':>9} {'band+slack':>22}")
    rows = estimate_exponent(channel, RATE, n_list, trials, SEED, analysis=session)
    for row in rows:
        slack = (2 * np.log2(row.n + 1) + 2) / row.n
        band = f"[{lower - slack:7.3f}, {upper + slack:7.3f}]"
        print(
            f"{row.n:3d} {row.size:4d} {row.best_pe:12.6e} {row.mean_pe:12.6e} "
            f"{row.implied_exponent:9.4f} {band:>22}"
        )


def main() -> None:
    for i, (channel_file, n_list, trials) in enumerate(RUNS):
        if i:
            print()
        report(channel_file, n_list, trials)


if __name__ == "__main__":
    main()
