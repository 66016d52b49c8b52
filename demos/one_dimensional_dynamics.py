"""Scalar retraining dynamics: a finite interval pins, a half line drifts off.

Two runs of the one-dimensional mean-estimation loop. First, a biased finite
acceptance interval: the estimate leaves the true mean and locks onto the
interval midpoint at the predicted geometric rate. Second, a semi-infinite
interval (upper bound only): there is no fixed point, and the estimate wanders
downward without bound — slowly, because the drift dies off once the estimate
sits a few standard deviations below the boundary.
"""
import argparse
import math

import numpy as np

from verisynth import (
    Interval1D,
    contraction_rate,
    derive_stream,
    hitting_time,
    retrain_step,
)


def trajectory(interval: Interval1D, n: int, rounds: int, rng) -> np.ndarray:
    """Estimates of rounds 0..rounds, every draw from the one stream ``rng``:
    the mean of 100 real N(0, 1) draws, then ``rounds`` rounds of ``n``
    verified samples each."""
    means = [float(rng.standard_normal(100).mean())]
    for _ in range(rounds):
        means.append(retrain_step(means[-1], interval, 1.0, n, rng))
    return np.array(means)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1109)
    args = parser.parse_args()

    print("== finite biased interval: contraction to the midpoint ==")
    interval = Interval1D(2.0, 4.0)
    means = trajectory(interval, 200, 40, derive_stream(args.seed, 1, 0, 0))
    rho = contraction_rate(interval, 1.0)
    print(f"true mean 0, acceptance interval [2, 4], contraction rate "
          f"rho = {rho:.4f}")
    print("round   estimate   |estimate - midpoint|")
    for k in (0, 1, 2, 3, 5, 10, 20, 40):
        print(f"{k:>5}   {means[k]:>8.4f}   {abs(means[k] - interval.midpoint):>10.6f}")
    inside = hitting_time(means, interval.lower, direction="up")
    print(f"first round at or above the interval's lower edge: {inside}\n")

    print("== semi-infinite interval (-inf, 1]: unbounded downward drift ==")
    means = trajectory(Interval1D(-math.inf, 1.0), 50, 2000,
                       derive_stream(args.seed, 2, 0, 0))
    print("round   estimate")
    for k in (0, 10, 50, 100, 500, 1000, 2000):
        print(f"{k:>5}   {means[k]:>8.3f}")
    for level in (-2.0, -5.0, -10.0):
        ht = hitting_time(means, level)
        print(f"first round below {level:>5.1f}: "
              f"{ht if ht is not None else 'never (within 2000 rounds)'}")
    print("\nthe early slide is fast (the boundary truncates half the draws)")
    print("but the pull weakens like exp(-t^2/2) in the standardized distance")
    print("t below the boundary, so deep levels are reached only by diffusion")


if __name__ == "__main__":
    main()
