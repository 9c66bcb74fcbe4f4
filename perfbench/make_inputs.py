#!/usr/bin/env python3
"""Regenerate the stored waves in perfbench/inputs/ with the iswaves CLI.

    python3 perfbench/make_inputs.py

The BFD_finite wave (the `bfd_finite` fixture, N = 2048) is the initial
state of the `wave_transport` evolution; the BO branch (the `bo_branch`
fixture, N = 4096) is the input of `decay`.  Both come from the configs in
perfbench/configs/ at their fixture sizes.  Takes about a minute.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from iswaves.cli import main  # noqa: E402

STORED = {"bfd_finite_wave": ("solve", "bfd_finite"), "bo_branch": ("continue", "c_branch")}

if __name__ == "__main__":
    for target, (command, config) in STORED.items():
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            rc = main([command, "--config", str(HERE / "configs" / f"{config}.cfg"), "--out", tmp])
            if rc != 0:
                sys.exit(f"{command} {config} exited with {rc}")
            dest = HERE / "inputs" / target
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(Path(tmp) / "branch", dest)
