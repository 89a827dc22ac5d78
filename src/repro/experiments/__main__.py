"""Run experiments and write their artifacts: the package's one entry point.

Usage::

    python -m repro.experiments                        # every experiment
    python -m repro.experiments fig07 fleet --out DIR  # DIR/<artifact>.json

Each experiment's ``main()`` prints its tables and returns its JSON
artifacts by name; with ``--out`` every artifact is written to
``DIR/<name>.json`` (``DIR`` is created first, before anything runs).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List

from . import ALL_FIGURES
from .report import write_json


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("names", nargs="*", metavar="NAME", help="experiments to run (default: all)")
    parser.add_argument("--out", metavar="DIR", help="directory for the JSON artifacts")
    args = parser.parse_args(argv)
    names = args.names or list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}")
        print(f"available: {', '.join(ALL_FIGURES)}")
        return 2
    out = None
    if args.out is not None:
        out = pathlib.Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"cannot write artifacts to {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    for name in names:
        module = ALL_FIGURES[name]
        print(f"{'=' * 72}\n{name}: {module.__doc__.strip().splitlines()[0]}\n{'=' * 72}")
        started = time.perf_counter()
        artifacts = module.main()
        if out is not None:
            for key, payload in artifacts.items():
                write_json(payload, str(out / f"{key}.json"))
        print(f"[{name} completed in {time.perf_counter() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
