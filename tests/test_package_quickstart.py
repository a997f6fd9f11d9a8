"""The quickstart in the ``repro`` package docstring runs as written.

The docstring is the first code a user copies, so its ``::`` literal blocks
are extracted and executed in order, in one namespace, like a reader pasting
them into one session.
"""

import textwrap

import repro


def literal_blocks(doc):
    """The indented literal block after every paragraph ending in ``::``."""
    lines = doc.splitlines()
    blocks = []
    index = 0
    while index < len(lines):
        if not lines[index].rstrip().endswith("::"):
            index += 1
            continue
        index += 1
        body = []
        while index < len(lines) and (not lines[index].strip()
                                      or lines[index].startswith(" ")):
            body.append(lines[index])
            index += 1
        blocks.append(textwrap.dedent("\n".join(body)).strip())
    return blocks


def test_quickstart_blocks_execute(capsys):
    blocks = literal_blocks(repro.__doc__)
    assert len(blocks) == 3 and all(blocks)
    namespace = {"__name__": "quickstart"}
    for block in blocks:
        exec(compile(block, "<repro quickstart>", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # The first block's comment promises 2 paths on one engine; the cluster
    # explores the same two.
    assert printed[:2] == ["2", "2"]
    assert isinstance(namespace["result"], repro.RunResult)
    assert namespace["outcome"].summary_rows()
