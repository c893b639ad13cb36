#!/usr/bin/env python3
"""Run recipes: JSON files each bundling one or more CLI invocations.

Usage: python scripts/run_recipe.py scripts/recipes/<name>.json [...] [--out DIR]

Each recipe holds {"description": ..., "runs": [{"name": ..., "argv": [...]}]};
outputs land in DIR/<recipe>/<run-name>/.  The exit code is the worst exit
code of any run, so `scripts/recipes/*.json` checks that every recipe finishes.
"""

import argparse
import json
import sys
from pathlib import Path

from fhn.cli import main as fhn_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("recipes", type=Path, nargs="+")
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()

    worst = 0
    for path in args.recipes:
        recipe = json.loads(path.read_text())
        print(f"{path.stem}: {recipe['description']}")
        for run in recipe["runs"]:
            outdir = args.out / path.stem / run["name"]
            argv = run["argv"] + ["--out", str(outdir)]
            print(f"  -> {run['name']}: fhn {' '.join(argv)}")
            code = fhn_main(argv)
            if code != 0:
                print(f"     exited with code {code}", file=sys.stderr)
                worst = max(worst, code)
    return worst

if __name__ == "__main__":
    raise SystemExit(main())
