"""Command line front end.

`hyperfast solve --config run.cfg` executes one configured run; a flag
overrides the config key it writes (--seed writes problem.seed). Exit codes:
0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import build_run_config, load_config, run
from .oracles import ConfigError, SolverError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfast",
        description="Third-order convex optimization using gradients and "
                    "Hessians only")
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="run one configured solve")
    ps.add_argument("--config", help="flat key=value config file")
    ps.add_argument("--problem", help="registered problem name")
    ps.add_argument("--method",
                    choices=["hyperfast", "natmi-exact", "sliding", "gd"])
    ps.add_argument("--eps", type=float, help="target accuracy")
    ps.add_argument("--max-iters", type=int, help="outer iteration cap")
    ps.add_argument("--trace", help="trace CSV output path")
    ps.add_argument("--summary", help="summary output path")
    ps.add_argument("--seed", type=int,
                    help="problem.seed, for the problems that take one")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        mapping = load_config(args.config) if args.config else {}
        overrides = {
            "problem": args.problem, "method": args.method, "eps": args.eps,
            "max_iters": args.max_iters, "trace": args.trace,
            "summary": args.summary, "problem.seed": args.seed,
        }
        for key, value in overrides.items():
            if value is not None:
                mapping[key] = str(value)
        cfg = build_run_config(mapping)
        outcome = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    s = outcome.summary
    print(f"{cfg.method} on {cfg.problem}: f = {s['final_f']:.12g}, "
          f"grad_norm = {s['final_grad_norm']:.3e}, iters = {s['iters']}, "
          f"status = {s['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
