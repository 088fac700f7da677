import os
import subprocess
import sys
from pathlib import Path

import ptcoupler


def test_public_surface():
    from ptcoupler import classical, core, scattering

    assert len(ptcoupler.__all__) == len(set(ptcoupler.__all__)) == 28
    for name in ptcoupler.__all__:
        assert hasattr(ptcoupler, name), name
    # Tolerances are importable by module path but are not public names.
    for module, name in ((core, "PASSIVITY_TOL"), (classical, "EP_DISCRIMINANT_TOL"),
                         (scattering, "SINC_SERIES_THRESHOLD")):
        assert getattr(module, name) > 0.0
        assert name not in module.__all__ and name not in ptcoupler.__all__


def test_import_and_cli_load_no_scipy(tmp_path):
    # scipy is needed only by the oracles, which import it when called;
    # neither importing the package nor running its commands may load it.
    config = tmp_path / "sweep.cfg"
    config.write_text("backend = lattice\nrho = 1\nsigma = 2\nphi = 0\nz = 0.5\n")
    code = f"""
import sys
import ptcoupler
assert not [m for m in sys.modules if m.startswith("scipy")], "import ptcoupler"
from ptcoupler.cli import main
small = ["--points", "3", "--zmax", "0.5", "--out", {str(tmp_path)!r}]
for argv in (["fig2"], ["fig3"], ["fig4"], ["fig5", "--sigma", "2"]):
    assert main(argv + small) == 0
assert main(["sweep", "--config", {str(config)!r}, "--out", {str(tmp_path)!r}]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""
    src = str(Path(ptcoupler.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
