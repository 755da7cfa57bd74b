"""Tests for run records and table rendering."""

from repro.util.records import Series, format_series_table, format_table


def test_series_add_and_pairs():
    s = Series("cc")
    s.add(128, 2.0)
    s.add(256, 1.4)
    assert s.as_pairs() == [(128, 2.0), (256, 1.4)]


def test_format_table_alignment():
    out = format_table(["name", "value"], [["a", 1], ["long-name", 23.5]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "name" in lines[0] and "value" in lines[0]
    # All rows same width.
    assert len({len(line) for line in lines}) == 1


def test_format_table_title():
    out = format_table(["h"], [[1]], title="Table 1")
    assert out.startswith("Table 1\n")


def test_format_series_table_na_for_missing():
    s1 = Series("2PC")
    s1.add(128, 7.0)
    s2 = Series("CC")
    s2.add(128, 2.0)
    s2.add(256, 1.5)
    out = format_series_table([s1, s2], x_label="procs")
    assert "NA" in out
    assert "2PC" in out and "CC" in out
    # x values appear sorted
    rows = out.splitlines()
    assert rows[-2].strip().startswith("128")
    assert rows[-1].strip().startswith("256")
