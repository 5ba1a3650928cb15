"""Temp dirs the engine makes for its fixtures (``analogs.fresh_dirs``,
``telemetry._tar_of``) and the ``__ray_entry__`` queries live under one
root per process, removed when the process exits."""

import os
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = textwrap.dedent("""
    import os, sys
    from etl_ray.pipelines.analogs import fresh_dirs
    from etl_ray.pipelines.telemetry import _tar_of

    made = list(fresh_dirs("probe")) + [_tar_of([("a.txt", b"abc")])]
    os.makedirs(made[0])
    with open(os.path.join(made[0], "seg.parquet"), "w") as fh:
        fh.write("x")
    assert os.path.exists(made[2])
    for p in made:
        assert p.startswith(sys.argv[1] + os.sep), p
    print("OK")
""")


def test_temp_dirs_removed_at_exit(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                         cwd=REPO, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0 and out.stdout.rstrip().endswith("OK"), \
        out.stdout[-2000:] + out.stderr[-2000:]
    assert os.listdir(tmp_path) == []
