"""What a fresh interpreter loads: the layering between the modules, and
runs on numpy alone. The runtime needs numpy only; scipy serves the tests
as an independent reference and is never imported by the program."""

import os
import subprocess
import sys

import pytest

import ptembed

CONFIGS = {
    "run.cfg": "[scenario]\nname = stationary\n",
    "fewmode.cfg": "[scenario]\nname = adiabatic_fewmode\nt_end = 2.0\n",
    "variational.cfg": "[scenario]\nname = adiabatic_variational\nt_end = 0.5\n",
}


def _main(*argv):
    return f"from ptembed import cli\nassert cli.main({list(argv)!r}) == 0\n"


@pytest.mark.parametrize("code, prefix", [
    # dnlse builds on the variational engine, not the other way round
    ("import ptembed.variational", "ptembed.dnlse"),
    # cli imports every layer, dnlse included
    (_main("run", "--config", "run.cfg", "--out", "out"), "scipy"),
    # the ground-state fit is numpy alone
    (_main("fit", "--config", "fewmode.cfg"), "scipy"),
    (_main("params", "--config", "fewmode.cfg"), "scipy"),
    (_main("run", "--config", "fewmode.cfg", "--out", "out"), "scipy"),
    # the variational run solves its Gram systems and takes its complex erf
    # with numpy
    (_main("run", "--config", "variational.cfg", "--out", "out"), "scipy"),
], ids=["variational_without_dnlse", "stationary_run_without_scipy", "fit_without_scipy",
        "params_without_scipy", "adiabatic_fewmode_without_scipy",
        "adiabatic_variational_without_scipy"])
def test_fresh_interpreter_leaves_modules_unloaded(tmp_path, code, prefix):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    src = os.path.dirname(os.path.dirname(ptembed.__file__))
    probe = f"{code}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "[]"
