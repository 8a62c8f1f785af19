"""SciPy is imported when column generation builds its first HiGHS master.

Only `lp_bounds.solve._HighsMaster` needs SciPy, so the protocol, scan,
certificate and exact-LP paths start without it.  Each check runs in a
fresh interpreter, because this test session imports SciPy elsewhere.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Commands that never build a HiGHS master; then one that does.
NO_MASTER = [
    "protocol --proto trivial-ndisj --n 3",
    "protocol --proto trivial-ndisj-kfold --n 4 --k 1 --compose halving --s 1",
    "scan --n 8 --samples 100 --seed 7",
    "certify --kind search --n 3 --k 1 --m 1 --alpha 1 --beta 1/3 --verify-mode exhaustive",
    "certify --kind search --n 3 --k 1 --m 1 --alpha 1 --beta 1/3 --verify-mode oracle",
    "bound --lp lovasz --family AND --n 1 --solver exact",
]
CG = "bound --lp search --n 2 --k 1 --solver cg"


def run_fresh(script: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scipy_loads_only_with_the_first_cg_master():
    out = run_fresh(
        f"""
        import contextlib, io, json, sys
        import rectbound.cli as cli
        from rectbound.combinatorics import MuParams, check_lemma4

        steps = [["import rectbound.cli", 0, "scipy" in sys.modules]]

        def run(command):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(command.split())
            steps.append([command, code, "scipy" in sys.modules])

        for command in {NO_MASTER!r}:
            run(command)
        holds = check_lemma4("I", MuParams(1, 4, 2)).holds
        steps.append(["check_lemma4", int(not holds), "scipy" in sys.modules])
        run({CG!r})
        print(json.dumps(steps))
        """
    )
    expected = [["import rectbound.cli", 0, False]]
    expected += [[command, 0, False] for command in NO_MASTER]
    expected += [["check_lemma4", 0, False], [CG, 0, True]]
    assert json.loads(out) == expected


def test_solve_resolves_scipy_names_on_demand():
    out = run_fresh(
        """
        import json, sys
        from rectbound.lp_bounds import solve

        found = {"loaded at import": "scipy" in sys.modules}
        from scipy.optimize import linprog
        from scipy.optimize._highspy import _core
        found["linprog"] = solve.linprog is linprog
        found["_Highs"] = solve._Highs is _core._Highs
        found["HighsModelStatus"] = solve.HighsModelStatus is _core.HighsModelStatus
        try:
            solve.no_such_name
        except AttributeError:
            found["unknown name raises"] = True
        print(json.dumps(found))
        """
    )
    assert json.loads(out) == {
        "loaded at import": False,
        "linprog": True,
        "_Highs": True,
        "HighsModelStatus": True,
        "unknown name raises": True,
    }


def test_loading_scipy_keeps_a_stand_in_already_bound():
    out = run_fresh(
        """
        import json
        from rectbound.lp_bounds import solve

        class StandIn:
            pass

        solve._Highs = StandIn
        solve._load_scipy()
        from scipy.optimize._highspy import _core
        print(json.dumps([solve._Highs is StandIn, solve.HighsStatus is _core.HighsStatus]))
        """
    )
    assert json.loads(out) == [True, True]
