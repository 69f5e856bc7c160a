"""Every function of `chanhom` is run by `chanhom` or named here with its user.

The four subcommands run in-process on a small study under `sys.setprofile`;
a module-level function or class method whose code lives in a `chanhom`
module and is never entered must be on `NOT_RUN`, with the test or benchmark
that needs it.  Anything else unreached is code only tests would keep alive.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from functools import cached_property

import chanhom
from chanhom import cli
from test_harness import mini_config

# a factor of linsolve.FFT_BLOCKS (256) or more blocks, which the small study here has not
FFT_PATH = "test_linsolve.py::test_fft_transform_matches_the_dense_dct; perfbench ladder64 (1/64)"
# qualified name -> the test or benchmark that calls it
NOT_RUN = {
    "cli._Parser.error": "test_harness.py::test_cli_run_has_no_seed_option (usage errors)",
    "errors.SolverError.__init__": "test_linsolve.py::test_nonconvergence_raises_with_residual",
    "harness.run_micro_study":
        "test_acceptance.py (the sweep of criteria 4, 7 and 8); a study streams each rung",
    "geometry.ChannelProfile.rectangle": "test_microsim.py, test_grid.py (rectangle channels)",
    "grid.RectGrid.cells_dense": "test_shift_oracle.py (dense shift oracle)",
    "grid.inner_product_leps":
        "test_grid.py, test_microsim.py (weighted L2 pairing); apriori_norm inlines it",
    "grid.leps_diff": "test_acceptance.py::test_criterion_3_discretization_self_convergence",
    "grid.leps_project_diff":
        "test_acceptance.py::test_criterion_3_discretization_self_convergence",
    "kinetics.InitialData.constants": "test_acceptance.py::test_criterion_2_conservation",
    "linsolve.CSR.getrow": "test_acceptance.py::test_criterion_5_interface_closure",
    "linsolve.FastCosine.__init__": FFT_PATH,
    "linsolve.FastCosine.forward": FFT_PATH,
    "linsolve.FastCosine.gather": FFT_PATH,
    "linsolve.FastCosine.inverse": FFT_PATH,
    "macrosim.MacroSimulation.flux_balance_residuals":
        "test_acceptance.py::test_criterion_5_interface_closure; perfbench limit_fine check",
    "macrosim.MacroSimulation.steady_conduction":
        "test_acceptance.py::test_criterion_6_conduction_oracle",
    "macrosim.MacroState.values": "test_kinetics.py (one mass check for both simulators)",
    "microsim.DiffusionSpec.isotropic": "test_microsim.py, test_macrosim.py (b1 diffusivity)",
    "microsim.ImexSimulation.mass_report": "test_acceptance.py::test_criterion_2_conservation",
    "microsim.ImexSimulation.weighted_mass":
        "test_acceptance.py::test_criterion_2_conservation; perfbench limit_fine reference",
    "microsim.KineticsBundle.zero": "test_acceptance.py::test_criterion_2_conservation",
}


def chanhom_functions():
    """{code object: qualified name} of every module-level function and class method."""
    found = {}
    for info in pkgutil.iter_modules(chanhom.__path__):
        module = importlib.import_module(f"chanhom.{info.name}")
        source = inspect.getsourcefile(module)

        def add(name, obj):
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            elif isinstance(obj, cached_property):
                obj = obj.func
            code = getattr(obj, "__code__", None)
            if code is not None and code.co_filename == source:  # not dataclass-made
                found[code] = f"{info.name}.{name}"

        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    add(f"{name}.{attr}", member)
            else:
                add(name, obj)
    return found


def test_chanhom_runs_every_function_of_its_modules(tmp_path, capsys):
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(mini_config()))
    study = tmp_path / "study"
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(["run", str(config), "--out", str(study)]),
                 cli.main(["report", str(study)]),
                 cli.main(["export", str(study), "--out", str(tmp_path / "csv")]),
                 cli.main(["verify-operators", str(config)])]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]

    functions = chanhom_functions()
    unreached = sorted(name for code, name in functions.items() if code not in reached)
    assert unreached == sorted(NOT_RUN), (
        "run by chanhom but listed: "
        f"{sorted(set(NOT_RUN) - set(unreached))}; "
        f"not run and not listed: {sorted(set(unreached) - set(NOT_RUN))}"
    )
