#!/usr/bin/env python3
"""Checks that the paper listings quoted in EXPERIMENTS.md are what the
`paper` binary prints.

    listings_match.py EXPERIMENTS.md PAPER_STDOUT.txt

Takes every fenced block under the "Table 1", "Figure 4", "Figure 5" and
"Ablations" headings of EXPERIMENTS.md and requires each to appear verbatim
in the stdout of `cargo run --release -p ptm-bench --bin paper` at small
scale. Exits 1 naming each listing that does not, so a listing cannot go
stale while the simulator moves on.
"""

import sys

SECTIONS = ("Table 1", "Figure 4", "Figure 5", "Ablations")


def listings(markdown):
    """Yields `(section, listing)` for every fenced block under SECTIONS."""
    section, block = None, None
    for line in markdown.splitlines(keepends=True):
        if block is not None:
            if line.startswith("```"):
                yield section, "".join(block)
                block = None
            else:
                block.append(line)
        elif line.startswith("## "):
            title = line[3:]
            section = next((s for s in SECTIONS if title.startswith(s)), None)
        elif line.startswith("```") and section:
            block = []


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    markdown, stdout = (open(p, encoding="utf-8").read() for p in sys.argv[1:])
    found, stale = set(), []
    for section, listing in listings(markdown):
        found.add(section)
        if listing not in stdout:
            stale.append(section)
    for section in SECTIONS:
        if section not in found:
            stale.append(f"{section} (no listing found)")
    for section in stale:
        print(f"stale listing: {section}")
    print(f"{len(found)} of {len(SECTIONS)} sections checked, {len(stale)} stale")
    sys.exit(1 if stale else 0)


if __name__ == "__main__":
    main()
