"""Command line front end.

`hyperfast solve --config run.cfg` executes one configured run. Each flag
writes its config key as text over the file's value (--seed writes
problem.seed), and the config parser reads flags and file alike. Exit codes:
0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import build_run_config, load_config, run
from .oracles import ConfigError, SolverError


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with one ConfigError line, not a usage block."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="hyperfast", allow_abbrev=False,
                     description="Third-order convex optimization using "
                                 "gradients and Hessians only")
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", allow_abbrev=False, help="run one configured solve")
    ps.add_argument("--config", help="flat key=value config file")
    # Every other flag's dest is the config key it writes.
    ps.add_argument("--problem", help="registered problem name")
    ps.add_argument("--method", help="hyperfast, natmi_exact, sliding or "
                                     "gd_baseline (or natmi-exact, gd)")
    ps.add_argument("--eps", help="target accuracy")
    ps.add_argument("--max-iters", dest="max_iters", help="outer iteration cap")
    ps.add_argument("--trace", help="trace CSV output path")
    ps.add_argument("--summary", help="summary output path")
    ps.add_argument("--seed", dest="problem.seed",
                    help="problem.seed, for the problems that take one")
    try:
        flags = vars(parser.parse_args(argv))
        del flags["command"]
        path = flags.pop("config")
        mapping = load_config(path) if path else {}
        mapping.update((key, text) for key, text in flags.items() if text is not None)
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
