#!/usr/bin/env python3
"""Closed-form oracle run: g(x) = kx has all sectional curvatures equal to -k^2.

Every quantity has an exact value (stable solution e^{-kt} I, contraction
rate e^{-k}), which makes this the calibration scenario.  Writes
results/constant-curvature/, relative to the working directory.
"""
import sys

from warpflow.cli import main

RUNS = (
    [
        "anosov-check",
        "--scenario", "constant-curvature",
        "--k", "1", "--n", "2",
        "--seed", "0",
        "--workers", "0",
        "--out", "results/constant-curvature",
    ],
    [
        "green",
        "--scenario", "constant-curvature",
        "--k", "1", "--n", "2",
        "--b0", "0", "--tend", "5", "--step", "0.01", "--tobs", "5",
        "--out", "results/constant-curvature",
    ],
)

if __name__ == "__main__":
    rc = 0
    for argv in RUNS:
        rc = rc or main(argv)
    sys.exit(rc)
