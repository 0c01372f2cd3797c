import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_lr_table_routes_agree():
    out = run_script("lr_table.py", "--max-size", "6")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].endswith(" 0 route disagreements")


def test_run_verification_prints_an_ok_row():
    out = run_script("run_verification.py", "knuth-crystal")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].startswith("knuth-crystal  ok ")


def test_run_verification_refuses_negative_instances():
    out = run_script("run_verification.py", "bumping-lemma", "--instances", "-5")
    assert out.returncode == 2
    assert out.stdout == "" and "must not be negative" in out.stderr
