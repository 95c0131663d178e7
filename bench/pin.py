"""Regenerate bench/pins.json from the program in ./src.

Run from the root of a checkout, only when a change is meant to alter the
pinned outputs (edge sets per (n, ell) and the seed-0 summaries):

    python3 bench/pin.py

Each workload runs one untimed pass at seed 0, full size and tiny size,
recording instead of comparing. Review the diff of pins.json before
committing it.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    pins = {}
    for scale in ("tiny", "full"):
        for workload in run.WORKLOADS:
            result = run.run(workload, 0, 0, False, scale=scale, pins=pins, record=True)
            if result["failed"]:
                print(f"{scale} {workload}: {result['failed']} checks failed; pins not written")
                return 1
            print(f"{scale} {workload}: {result['attempted']} checks recorded", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.PINS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
