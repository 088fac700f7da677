"""Set-up probe: import ptcoupler, run minimal-size CLI commands that make the
first call into each layer a workload uses, then print time.monotonic().

    python probe.py OUTDIR '[["fig2", "--points", "2"], ...]'
"""

import json
import sys
import time

import ptcoupler  # noqa: F401  (the import is part of the set-up being timed)
from ptcoupler.cli import main

out, commands = sys.argv[1], json.loads(sys.argv[2])
code = 0
for j, argv in enumerate(commands):
    code = code or main([*argv, "--out", f"{out}/c{j}"])
print(repr(time.monotonic()))
sys.exit(code)
