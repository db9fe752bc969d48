"""One cold start: a fresh interpreter up to a structure ready to verify.

Prints, as JSON, the seconds from before ``import qkt`` until the
manifold is built and sampled (and, on the conformal kinds, the
conformal ingredients are built): the steps ``run_suite`` takes before
its first identity.  Usage (run.py starts it):

    python3 perfbench/setup_child.py <workload> <halton seed>
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from qkt.cli import build_parser  # noqa: E402
from qkt.zoo import ManifoldSpec, build_manifold, conformal_ingredients, sample_points  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(workload: str, halton_seed: int) -> None:
    args = build_parser().parse_args(["verify", *WORKLOADS[workload], "--seed", str(halton_seed)])
    spec = ManifoldSpec(kind=args.manifold, n=args.n, f=args.f, seed=args.seed,
                        point_count=args.points, h=args.h, h2=args.h2)
    points = sample_points(spec)
    build_manifold(spec, check_points=points[: min(3, len(points))])
    conformal_ingredients(spec)
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
