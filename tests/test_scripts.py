"""Each research script in scripts/ runs end to end at a tiny size.

The scripts run in-process, with sys.argv set as on the command line, so
that the test pays for no fresh interpreter.  No study number is asserted:
those stay in README with the command that produced them.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script -> (arguments, the start of one line it prints)
RUNS = {
    "chain_diagnostics.py": (["--n", "8", "--stages", "0.5:0,0.5:400", "--t-points", "32", "--flavors", "2"],
                             "annealed vs the 64-member mean:"),
    "locality_trend_study.py": (["--sizes", "8,10", "--samples", "2", "--pool-members", "4"],
                                "   n      nonlocal fraction"),
    "ratio_statistics_study.py": (["--sizes", "8,10", "--samples", "2", "--pool-members", "4"],
                                  "reference gue"),
    "sff_dip_study.py": (["--n", "8", "--members", "4", "--t-points", "32"], "n=8 beta=1.0 members=4"),
}


def test_every_script_is_run():
    assert sorted(RUNS) == sorted(p.name for p in SCRIPTS.glob("*.py"))


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs_at_a_tiny_size(script, monkeypatch, capsys):
    args, line = RUNS[script]
    monkeypatch.setattr(sys, "argv", [script, *args])
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    assert code in (0, None)
    assert any(text.startswith(line) for text in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("stages, rows", [("", 0), ("0.5:0,1.0:0", 2)])
def test_chain_diagnostics_prints_a_chain_that_takes_no_step(stages, rows, monkeypatch, capsys):
    argv = ["--n", "8", "--stages", stages, "--t-points", "8", "--flavors", "1"]
    monkeypatch.setattr(sys, "argv", ["chain_diagnostics.py", *argv])
    runpy.run_path(str(SCRIPTS / "chain_diagnostics.py"), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    header = next(k for k, text in enumerate(out) if text.lstrip().startswith("stage"))
    assert out.index("", header) == header + 1 + rows
    assert any(text.startswith("annealed vs the 64-member mean:") for text in out)


def test_chain_diagnostics_refuses_a_bad_stage(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["chain_diagnostics.py", "--n", "8", "--stages", "0.5"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "chain_diagnostics.py"), run_name="__main__")
    assert exc.value.code == 2
    assert "--stages" in capsys.readouterr().err
