#!/usr/bin/env python3
"""Validate the criterion-shim bench baselines (`BENCH_*.json`).

The CI bench-smoke job runs this twice: once against the committed
baselines (so a missing or malformed file fails the build loudly instead
of silently shipping a broken perf reference) and once against the files
the bench run just regenerated.
"""

import json
import pathlib
import sys

BASELINES = ("sampler", "oue", "synthesis", "collection", "topology")
REQUIRED = {"id", "median_ns", "mean_ns", "min_ns", "samples", "iters_per_sample"}

# Arms that must be present per baseline file (beyond well-formedness).
# The blocked collection kernel ships with a hard acceptance ratio, and the
# sequential synthesis arms are the only synthesis baselines, so a bench
# run that silently dropped any of them must fail the build.
REQUIRED_IDS = {
    "synthesis": {
        "synthesis_step/20000",
        "synthesis_step_100k_grid32/alias",
        "synthesis_step_100k_grid32/vec_reference",
        "synthesis_size_swing_5000/shrink_20pct",
    },
    "collection": {
        "collection_per_user_100k_d4096/fused",
        "collection_per_user_100k_d4096/blocked",
    },
}

# The ISSUE 8 acceptance gate: the blocked kernel's median must be at
# least 1.5x faster than the fused kernel's median *from the same file*
# (same run, same toolchain, same machine — no cross-machine skew).
BLOCKED_SPEEDUP_GATE = 1.5


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("crates/bench")
    ok = True

    def error(msg: str) -> None:
        nonlocal ok
        ok = False
        print(f"::error::{msg}")

    for name in BASELINES:
        path = root / f"BENCH_{name}.json"
        if not path.is_file():
            error(f"missing bench baseline {path}")
            continue
        try:
            rows = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            error(f"malformed bench baseline {path}: {exc}")
            continue
        if not isinstance(rows, list) or not rows:
            error(f"bench baseline {path} must be a non-empty JSON array")
            continue
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                error(f"{path} row {i} is not an object")
                continue
            missing = REQUIRED - row.keys()
            if missing:
                error(f"{path} row {row.get('id', i)!r} missing keys {sorted(missing)}")
            for key in REQUIRED - {"id"}:
                value = row.get(key)
                # bool is an int subclass in Python: reject it explicitly so
                # a corrupted `true` still counts as malformed.
                if key in row and (
                    isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0
                ):
                    error(f"{path} row {row.get('id', i)!r} has non-positive {key}: {value!r}")

        ids = {row.get("id") for row in rows if isinstance(row, dict)}
        for required_id in sorted(REQUIRED_IDS.get(name, ())):
            if required_id not in ids:
                error(f"{path} is missing required bench arm {required_id!r}")

        if name == "collection":
            medians = {
                row["id"]: row["median_ns"]
                for row in rows
                if isinstance(row, dict)
                and isinstance(row.get("median_ns"), (int, float))
                and not isinstance(row.get("median_ns"), bool)
            }
            fused = medians.get("collection_per_user_100k_d4096/fused")
            blocked = medians.get("collection_per_user_100k_d4096/blocked")
            if fused and blocked:
                speedup = fused / blocked
                if speedup < BLOCKED_SPEEDUP_GATE:
                    error(
                        f"{path}: blocked kernel regressed — fused/blocked median "
                        f"ratio {speedup:.2f} < required {BLOCKED_SPEEDUP_GATE}x "
                        f"(fused {fused:.0f} ns, blocked {blocked:.0f} ns)"
                    )
                else:
                    print(f"blocked collection kernel speedup: {speedup:.2f}x (gate {BLOCKED_SPEEDUP_GATE}x)")

    if ok:
        print(f"bench baselines OK: {', '.join(f'BENCH_{n}.json' for n in BASELINES)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
