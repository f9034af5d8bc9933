"""Batch command-line interface; each subcommand is one pipeline stage."""

from __future__ import annotations

import argparse
import logging
import sys

from .config import ConfigError, load_config
from .data import IngestError
from .hybrid import PRESETS
from .pipeline import STAGES, ArtifactStore, StageError, run_all, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metahybrid",
        description="Meta-hybrid recommender experiment pipeline")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*STAGES, "run-all"]:
        p = sub.add_parser(name, help=f"run the {name} stage"
                           if name != "run-all" else "run every stage in order")
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="candidate preset override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    overrides = {}
    for flag, key in (("out", "output_dir"), ("seed", "seed"), ("preset", "preset")):
        value = getattr(args, flag)
        if value is not None:
            overrides[key] = value
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "run-all":
            result = run_all(cfg)
        else:
            result = run_stage(args.command, cfg, ArtifactStore(cfg.output_dir))
    except (ConfigError, StageError, IngestError, ValueError) as e:
        print(f"error [{args.command}]: {e}", file=sys.stderr)
        return 1
    if "summary" in result:
        print(f"[{args.command}] {result['summary']}")
    if "report" in result and args.command in ("report", "run-all"):
        print(result["report"].to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
