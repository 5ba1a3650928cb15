"""``tools/loc.py`` counts code-only lines without blank, comment or
docstring lines, and runs as a script over the package."""

import os
import re
import subprocess
import sys

from tools.loc import count_source

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SRC = '''"""Module docstring
over two lines."""

# a comment
X = 1  # code with a comment


def f(a):
    """Docstring."""

    s = """not a docstring
    but a value"""
    return a + len(s)
'''


def test_count_source_skips_blank_comment_and_docstring_lines():
    assert count_source(SRC) == (13, 5)


def test_loc_script_reports_the_package():
    out = subprocess.run([sys.executable, "tools/loc.py", "etl_ray"],
                         cwd=REPO, capture_output=True, text=True,
                         check=True).stdout
    m = re.fullmatch(r"etl_ray files=(\d+) total=(\d+) code=(\d+)\n", out)
    assert m, out
    files, total, code = map(int, m.groups())
    assert files > 0 and 0 < code < total
