"""One timed set-up, in a fresh interpreter: import envarkit and load the
workload's inputs (the pinned manifest, written and read back), with the
host-speed sampler running from before the first import.

    python3 perfbench/setup_once.py --workload batch-mid --seed 1 --out DIR

``run.py`` times the whole process; this script prints the host speed it
sampled as one JSON object, by which ``run.py`` scales that time to the
reference speed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import SpeedSampler, loop_probe  # noqa: E402  (standard library only)

sampler = SpeedSampler(loop_probe)
sampler.start()

import argparse  # noqa: E402
import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (imports numpy; prepare imports envarkit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload].prepare(args.seed, out)
    sampler.stop()
    print(json.dumps({"speed": sampler.speed()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
