"""Run every scenario under demos/scenarios and check its outputs.

Each scenario writes into a temporary directory, never into
demos/scenarios/out/, whose files are the committed reference outputs.
Every fresh CSV and report is compared byte for byte with its reference;
the script names each file that differs and exits 1 if a scenario fails
a check or any file differs.
"""

import pathlib
import sys
import tempfile

from nonsep.cli import main

here = pathlib.Path(__file__).parent / "scenarios"
failed, differ = [], []
with tempfile.TemporaryDirectory() as tmp:
    for path in sorted(here.glob("*.json")):
        print(f"== {path.name}")
        if main(["run", str(path), "--out", str(pathlib.Path(tmp) / path.stem)]) != 0:
            failed.append(path.name)
        for suffix in (".csv", ".report.json"):
            name = path.stem + suffix
            fresh = pathlib.Path(tmp) / name
            if not fresh.exists() or fresh.read_bytes() != (here / "out" / name).read_bytes():
                differ.append(name)
if failed:
    print("failed:", ", ".join(failed))
if differ:
    print("differs from demos/scenarios/out:", ", ".join(differ))
sys.exit(1 if failed or differ else 0)
