"""Command line front end.

    ullsim run sim.cfg --trials 50 --mode sp --combiner smmse --out out.csv
    ullsim sweep sim.cfg --param snr_db --values -5,0,5,10 --trials 20

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

from .config import ConfigError, load_config
from .harness import Campaign, gaussian_symbol_study, run_campaign


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="scenario config file (key = value lines)")
    sub.add_argument("--trials", type=int, default=10)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--mode", choices=["rp", "sp"], default="rp")
    sub.add_argument("--combiner", choices=["mr", "smmse"], default="mr")
    sub.add_argument("--imax", type=int, default=8, dest="i_max")
    sub.add_argument("--psi", choices=["bound"], default="bound",
                     help="data-aided observation covariance: the closed-form bound")
    sub.add_argument("--pipeline", choices=["coded", "gaussian"], default="coded")
    sub.add_argument("--rate", choices=["1/2", "3/4"], default="1/2")
    sub.add_argument("--out", default="results.csv")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ullsim",
                                     description="Uplink link-level simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="single-point campaign")
    _add_common(run)

    sweep = subs.add_parser("sweep", help="sweep one parameter over a grid")
    _add_common(sweep)
    sweep.add_argument("--param", required=True,
                       help="sigma_est, snr_db, tau_c, tau_p, M, K, L, delta")
    sweep.add_argument("--values", required=True,
                       help="comma-separated grid values")
    sweep.add_argument("--study", action="store_true",
                       help="gaussian-symbol study: rp reuse 1/3 and sp curves "
                            "plus per-figure CSVs next to --out")

    return parser


def _parse_values(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            value = float(tok)
        except ValueError:
            raise ConfigError(f"--values: {tok!r} is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"--values: {tok!r} is not finite")
        out.append(int(value) if value == int(value) else value)
    if not out:
        raise ConfigError("--values is empty")
    return tuple(out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        if args.command == "run":
            grid_param, grid_values = "none", (0.0,)
        else:
            grid_param, grid_values = args.param, _parse_values(args.values)
        study = getattr(args, "study", False)
        if study:
            # The study runs the gaussian pipeline and sets tau_p per variant;
            # validate the campaign as it runs.
            config = config.replace(tau_p=config.K)
        campaign = Campaign(config=config,
                            pipeline="gaussian" if study else args.pipeline,
                            mode=args.mode, combiner=args.combiner,
                            grid_param=grid_param, grid_values=grid_values,
                            trials=args.trials, seed=args.seed,
                            i_max=args.i_max, code_rate=args.rate,
                            workers=args.workers)
        if study:
            from pathlib import Path
            out_dir = Path(args.out).parent if Path(args.out).suffix else Path(args.out)
            rows = gaussian_symbol_study(campaign, out_dir)
            written = out_dir / "results.csv"
        else:
            rows = run_campaign(campaign, args.out)
            written = args.out
        logging.getLogger("ullsim").info("wrote %d rows to %s", len(rows), written)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
