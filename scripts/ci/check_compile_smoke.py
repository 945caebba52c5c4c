#!/usr/bin/env python3
"""Artifact guard for the large-macro compile smoke.

Usage: check_compile_smoke.py OUT_DIR

OUT_DIR is the `--out` directory of `sega-dcim compile`. The macro's
column and fusion rows are emitted as Verilog-2001 `generate for` loops,
so even the largest macro stays small. Checked:

* `macro.v` is under 5 MB and contains a `generate` block,
* its `module` / `endmodule` lines balance and it ends on `endmodule`,
* `macro.def` is non-empty.
"""

import os
import sys

MAX_VERILOG_BYTES = 5_000_000


def main() -> None:
    out = sys.argv[1]
    verilog_path = os.path.join(out, "macro.v")
    size = os.path.getsize(verilog_path)
    assert size < MAX_VERILOG_BYTES, f"macro.v is {size} bytes, limit {MAX_VERILOG_BYTES}"
    with open(verilog_path) as f:
        verilog = f.read()
    assert "generate" in verilog, "macro.v has no generate block"
    lines = verilog.splitlines()
    opened = sum(1 for line in lines if line.startswith("module "))
    closed = sum(1 for line in lines if line == "endmodule")
    assert opened > 0 and opened == closed, (
        f"macro.v opens {opened} modules and closes {closed}"
    )
    assert verilog.rstrip().endswith("endmodule"), "macro.v does not end on endmodule"
    def_size = os.path.getsize(os.path.join(out, "macro.def"))
    assert def_size > 0, "macro.def is empty"
    print(f"compile smoke OK: macro.v {size} bytes, {opened} modules; macro.def {def_size} bytes")


if __name__ == "__main__":
    main()
