"""Record the arrestment reference the correctness gates compare against.

Runs the arrestment grid of :mod:`perfbench.workloads` twice at the
benchmark seed:

* in the naive mode (``reuse_golden_prefix=False, fast_forward=False``:
  every injection run simulated from time zero to the end), recording
  one strategy digest per grid coordinate — what
  ``arrestment-serial`` must reproduce;
* exhaustively with the default strategies, recording the digest of
  every complete outcome record — what each outcome the adaptive
  workload samples must equal byte for byte.

Both runs must agree on every strategy digest before anything is
written.  Run from the root of a checkout (takes about a minute)::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: The seed the reference is recorded at.  Bit-flip traps draw nothing
#: from their seed, so the outcomes hold for every seed; the gates
#: would report any seed for which they do not.
BENCHMARK_SEED = 2001


def main() -> int:
    from repro.arrestment import build_arrestment_model, build_arrestment_run
    from repro.arrestment.testcases import reduced_test_cases
    from repro.injection.campaign import InjectionCampaign

    from perfbench import workloads

    inputs = workloads.make_inputs(workloads.ARRESTMENT_SERIAL, BENCHMARK_SEED)
    cases = reduced_test_cases(workloads.ARRESTMENT_CASES)
    naive = InjectionCampaign(
        build_arrestment_model(),
        build_arrestment_run,
        cases,
        workloads.arrestment_config(
            inputs, reuse_golden_prefix=False, fast_forward=False
        ),
    ).execute()
    exhaustive = InjectionCampaign(
        build_arrestment_model(),
        build_arrestment_run,
        cases,
        workloads.arrestment_config(inputs),
    ).execute()
    strategy = {workloads.coordinate(o): workloads.strategy_digest(o) for o in naive}
    again = {
        workloads.coordinate(o): workloads.strategy_digest(o) for o in exhaustive
    }
    if strategy != again:
        print("naive and exhaustive campaigns disagree; nothing written",
              file=sys.stderr)
        return 1
    reference = {
        "grid": workloads.grid_description(),
        "seed": BENCHMARK_SEED,
        "strategy": strategy,
        "record": {
            workloads.coordinate(o): workloads.record_digest(o) for o in exhaustive
        },
    }
    path = ROOT / "perfbench" / "reference" / "arrestment.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{len(strategy)} coordinates recorded to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
