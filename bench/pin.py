"""Rewrite pins.json: the digests of the pinned seed's first items.

    python3 bench/pin.py

Run it only after a change that alters output bytes on purpose, and say so
in CHANGES.md: the pins are the byte-identical fixed point every other
change must keep.
"""

from __future__ import annotations

import json
import os

import run

# Rounds pinned per workload: about what one run of the seed code reaches.
# Items past the pins are checked by meaning only.
PINNED_ROUNDS = {"sweep": 180, "tight": 1, "smallcut": 350}


def main() -> None:
    run.use_checkout_src()
    import tracing
    import workloads

    null = tracing.NullTracer()
    pins = {}
    for name, rounds in PINNED_ROUNDS.items():
        plan = workloads.plan(name, run.PINNED_SEED)
        digests = {item.key: item.run(null) for r in range(rounds) for item in plan(r)}
        pins[name] = digests if name == "tight" else [digests[str(i)] for i in range(len(digests))]
    with open(os.path.join(run.HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
