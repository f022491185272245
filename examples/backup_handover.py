#!/usr/bin/env python3
"""Smarter backup (paper §4.2 / Figure 2a).

A transfer starts on the primary path of a dual-homed host; after one second
the primary becomes 30 % lossy.  The SmartBackupController watches the
``timeout`` events and, when the retransmission timer exceeds one second,
closes the primary subflow and continues on the backup path
(break-before-make).  Prints the sequence-progress table of Figure 2a.

Run with:  python examples/backup_handover.py [--seed N]
"""

import argparse

from repro.experiments.fig2a_backup import run_fig2a


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    result = run_fig2a(seed=args.seed)
    print(result.format_report())
    if result.switch_time is not None:
        print(f"\nThe controller abandoned the primary path "
              f"{result.switch_time - result.loss_start:.2f} s after the loss started.")


if __name__ == "__main__":
    main()
