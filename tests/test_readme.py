"""The README's Python examples run as written and print what they say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_print_their_commented_values(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 4
    namespace: dict = {}
    expected = []
    for block in blocks:  # one namespace: later blocks reuse earlier names
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        exec(compile(block, str(README), "exec"), namespace)
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(prints)
        for line, out in zip(prints, printed):
            value = re.search(r"#\s*(-?\d+(?:/\d+)?)\b", line)
            if value:
                assert out == value[1], line
                expected.append(out)
    assert expected == ["9/10", "9/10", "67/80", "1711/1980", "9/10", "399/400"]
