"""``reports.write_csv``: columns rendered in one pass, byte for byte as per-cell ``fmt``."""
import numpy as np

from warpflow.reports import config_header_lines, fmt, write_csv


def _per_cell(columns, rows, config):
    lines = config_header_lines(config) + [",".join(columns)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_columns_render_as_cells(tmp_path):
    floats = np.array([-0.0, np.nan, 1e-300, 0.1, -np.inf, 5e-324, 1.0, 2.0**60])
    ints = np.arange(-3, 5)
    shared = np.linspace(0.0, 1.0, 8)
    blocks = [(7, 1e-300, ints, floats, shared), (-2, -0.0, ints[::-1], floats[::-1], shared),
              (3, np.float64(np.nan), [1, 2, 3, 4, 5, 6, 7, 8], list(floats), shared)]
    rows = [row for k, x, i, f, s in blocks for row in zip([k] * 8, [x] * 8, i, f, s)]
    config = {"seed": 3, "step": 0.02, "name": "x"}
    columns = ["k", "x", "i", "f", "s"]
    path = write_csv(tmp_path / "out.csv", columns, blocks, config)
    assert path.read_bytes() == _per_cell(columns, rows, config)
    assert "\n-2,-0,-3,-0,1\n" in path.read_text()  # -0.0 as fmt renders it


def test_block_of_single_values_is_one_row(tmp_path):
    path = write_csv(tmp_path / "one.csv", ["a", "b"], [(np.int64(4), np.float64(0.25))], {})
    assert path.read_text().splitlines()[-1] == "4,0.25"
