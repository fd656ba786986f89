"""The TSV writer as a line loop, one f-string per triple, which the tests
compare the bytes of :func:`ukge.kgdata.write_split_tsv` against."""

from __future__ import annotations


def write_split_lines(store, split: str, path: str) -> None:
    """Write one split of ``store`` to ``path`` a line at a time: each
    triple's names, tab-separated, then an LF, encoded as UTF-8."""
    rows = store.split(split)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for h, r, t in rows:
            fh.write(
                f"{store.entity_names[h]}\t{store.relation_names[r]}\t"
                f"{store.entity_names[t]}\n"
            )
