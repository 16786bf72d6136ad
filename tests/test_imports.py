"""What a fresh interpreter loads: the layering between the modules, and a
few-mode run that starts on numpy alone (scipy is imported only by the
functions that call it)."""

import os
import subprocess
import sys

import pytest

import ptembed

STATIONARY_RUN = (
    "from ptembed import cli\n"
    "assert cli.main(['run', '--config', 'run.cfg', '--out', 'out']) == 0\n"
)


@pytest.mark.parametrize("code, prefix", [
    # dnlse builds on the variational engine, not the other way round
    ("import ptembed.variational", "ptembed.dnlse"),
    # cli imports every layer, dnlse included
    (STATIONARY_RUN, "scipy"),
], ids=["variational_without_dnlse", "stationary_run_without_scipy"])
def test_fresh_interpreter_leaves_modules_unloaded(tmp_path, code, prefix):
    (tmp_path / "run.cfg").write_text("[scenario]\nname = stationary\n")
    src = os.path.dirname(os.path.dirname(ptembed.__file__))
    probe = f"{code}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "[]"
