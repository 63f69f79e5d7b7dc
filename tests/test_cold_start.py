"""What a fresh process imports, and the names that resolve on first use.

`compute` and `table` run on the quadrature route alone, so a process that
makes one of them loads neither the Monte Carlo module nor the verification
table.  Each case runs in a fresh interpreter, since this test session has
long since loaded every module.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import sylvester

SRC = str(pathlib.Path(sylvester.__file__).resolve().parents[1])

# modules that only Monte Carlo, verification and CSV output need
DEFERRED = ("sylvester.geomc", "sylvester.verification", "csv", "concurrent.futures")


def _run(script: str, *args: str):
    """The JSON value on the last line that `script` prints to stdout, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_AFTER_MAIN = (
    "import json, sys\n"
    "from sylvester.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(json.dumps([code, sorted(m for m in {DEFERRED!r} if m in sys.modules)]))\n"
)


def _loaded_after(*argv: str) -> list:
    code, loaded = _run(_AFTER_MAIN, *argv)
    assert code == 0
    return loaded


QUADRATURE_ONLY = [
    ("compute", "--family", family, "--dim", "2", *beta, "--method", method)
    for family, beta in (("gauss", ()), ("beta", ("--beta", "0.5")))
    for method in ("auto", "quadrature")
] + [("table", "--preset", "gauss")]


@pytest.mark.parametrize("argv", QUADRATURE_ONLY, ids=" ".join)
def test_quadrature_commands_load_no_monte_carlo_verification_or_csv(argv):
    assert _loaded_after(*argv) == []


def test_mc_loads_the_monte_carlo_module():
    loaded = _loaded_after("mc", "--family", "gauss", "--dim", "2", "--trials", "1000", "--seed", "1")
    assert "sylvester.geomc" in loaded
    assert "sylvester.verification" not in loaded


def test_csv_output_loads_csv_alone():
    assert _loaded_after("compute", "--family", "gauss", "--dim", "2", "--format", "csv") == ["csv"]


_PACKAGE = """\
import json, sys
import sylvester
facts = {"geomc_at_import": "sylvester.geomc" in sys.modules}
facts["dir_has_all"] = set(sylvester.__all__) <= set(dir(sylvester))
facts["geomc_after_dir"] = "sylvester.geomc" in sys.modules
facts["has_geomc"] = hasattr(sylvester, "geomc")
facts["same_config"] = sylvester.McConfig is sylvester.geomc.McConfig
facts["same_estimator"] = sylvester.estimate_sylvester is sylvester.geomc.estimate_sylvester
try:
    sylvester.no_such_name
except AttributeError as exc:
    facts["unknown"] = str(exc)
print(json.dumps(facts))
"""


def test_package_resolves_monte_carlo_names_on_first_access():
    facts = _run(_PACKAGE)
    assert facts == {
        "geomc_at_import": False,
        "dir_has_all": True,
        "geomc_after_dir": False,
        "has_geomc": True,
        "same_config": True,
        "same_estimator": True,
        "unknown": "module 'sylvester' has no attribute 'no_such_name'",
    }


def test_star_import_binds_every_name_of_all():
    unbound = _run(
        "import json\n"
        "import sylvester\n"
        "namespace = {}\n"
        "exec('from sylvester import *', namespace)\n"
        "print(json.dumps([name for name in sylvester.__all__ if name not in namespace]))\n"
    )
    assert unbound == []


# perfbench/layers.py's order: import, read each hooked name, replace it, run, restore
_HOOKS = """\
import io, json, sys
from contextlib import redirect_stdout
from sylvester import anglesums, cli, verification
calls = []

def recorded(name, original):
    def hook(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    return hook

originals = {"estimate_sylvester": cli.estimate_sylvester, "run_suite": verification.run_suite}
MC = ["mc", "--family", "gauss", "--dim", "2", "--trials", "2000", "--seed", "3"]
VERIFY = ["verify", "--suite", "basic"]

def run(argv):
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)

cli.estimate_sylvester = recorded("estimate_sylvester", originals["estimate_sylvester"])
verification.run_suite = recorded("run_suite", originals["run_suite"])
codes = [run(MC), run(VERIFY)]
hooked = list(calls)
cli.estimate_sylvester = originals["estimate_sylvester"]
verification.run_suite = originals["run_suite"]
codes += [run(MC), run(VERIFY)]
restored = [cli.estimate_sylvester is originals["estimate_sylvester"], verification.run_suite is originals["run_suite"]]
print(json.dumps({"codes": codes, "hooked": hooked, "after_restore": calls[len(hooked):], "restored": restored}))
"""


def test_hooks_replace_and_restore_in_a_fresh_process():
    facts = _run(_HOOKS)
    assert facts == {
        "codes": [0, 0, 0, 0],
        "hooked": ["estimate_sylvester", "run_suite"],
        "after_restore": [],
        "restored": [True, True],
    }


def test_mc_calls_an_estimator_replaced_before_it_loaded():
    facts = _run(
        "import json, sys, types\n"
        "from sylvester import cli\n"
        "seen = []\n"
        "def estimate(dist, mc):\n"
        "    seen.append([dist.d, mc.trials])\n"
        "    return types.SimpleNamespace(estimate=0.5, stderr=0.1, trials=mc.trials, seed=mc.seed)\n"
        "before = 'sylvester.geomc' in sys.modules\n"
        "cli.estimate_sylvester = estimate\n"
        "code = cli.main(['mc', '--family', 'gauss', '--dim', '3', '--trials', '7'])\n"
        "print(json.dumps([before, code, seen]))\n"
    )
    assert facts == [False, 0, [[3, 7]]]
