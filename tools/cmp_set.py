"""Run the byte-identity set of meanlab commands and write each one's
stdout, stderr and exit code under OUTDIR, so that two versions of the
package compare with one ``diff -r``:

    PYTHONPATH=src python tools/cmp_set.py OUTDIR

The commands run in-process through ``meanlab.cli.main``, imported from
whatever ``PYTHONPATH`` names; point it at another checkout's ``src`` to
write that version's set.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from meanlab import cli

#: file stem -> meanlab arguments
COMMANDS = {
    "verify-2000": ["verify", "--points", "2000"],
    "verify-default": ["verify"],
    "verify-min0.1-300k": ["verify", "--grid-min", "0.1", "--points", "300000"],
    "verify-min1e-12-max1e15-300k": [
        "verify", "--grid-min", "1e-12", "--grid-max", "1e15", "--points", "300000",
    ],
    # every probe raises (invalid operand) on this grid's far points
    "verify-max1e300-100": ["verify", "--grid-max", "1e300", "--points", "100"],
    # 54 968 of the 100 000 ratios repeat the one before
    "verify-repeated-100k": [
        "verify", "--grid-min", "1e-15", "--grid-max", "1.00000000001", "--points", "100000",
    ],
    "verify-T21a": ["verify", "--chains", "T21a"],
    "conjecture-default": ["conjecture"],
    "bracket-X-1e-9": ["bracket", "X", "1e-9"],
    "bracket-X-1e-6": ["bracket", "X", "1e-6"],
    "bracket-P-1e-6": ["bracket", "P", "1e-6"],
    "bracket-I-1e-6": ["bracket", "I", "1e-6"],
    "bracket-PX-1e-6": ["bracket", "(P+X)/2", "1e-6"],
    "bracket-X-1e-15": ["bracket", "X", "1e-15"],
    # midpoints in the p -> 0 branch, two power-type targets, and an error
    "bracket-GXG3e-9-1e-9": ["bracket", "G*(X/G)^0.000000003", "1e-9"],
    "bracket-Mp3.5-1e-9": ["bracket", "Mp[3.5]", "1e-9"],
    "bracket-Hp0.5-1e-9": ["bracket", "Hp[0.5]", "1e-9"],
    "bracket-H_2-1e-3": ["bracket", "H/2", "1e-3"],
    # grids smaller than the refined grid's 200 extra points
    "verify-2": ["verify", "--points", "2"],
    "verify-10": ["verify", "--points", "10"],
    # the scalar and whole-grid (not streamed) evaluations
    "emit-PX-300": ["emit", "(P+X)/2", "300"],
    "emit-x_gap_ratio-300": ["emit", "x_gap_ratio", "300"],
    "emit-LXA-P-max1e300-300": ["emit", "L(X, A) - P", "300", "--grid-max", "1e300"],
    "eval-1e300-G-Y": ["eval", "--a", "1e300", "--b", "1", "G - Y"],
    # a nested mean whose operand overflows to +inf
    "eval-nested-overflow": ["eval", "--a", "10", "--b", "1", "L(A*1e308, G)"],
    "emit-nested-overflow": ["emit", "L(A*1e300, G)", "5", "--grid-max", "1e10"],
    "limit-x_gap_ratio": ["limit", "x_gap_ratio"],
    # 10**log10(r_max) rounds past DBL_MAX at the last ratio
    "conjecture-maxDBL_MAX-50": [
        "conjecture", "--grid-max", "1.7976931348623157e308", "--points", "50",
    ],
    # power-type means past |p y| = 700, where p y can overflow
    "eval-1e308-1e-308-Mp[1e308]": ["eval", "--a", "1e308", "--b", "1e-308", "Mp[1e308]"],
    "eval-1e308-1e-308-Mp[-1e308]": ["eval", "--a", "1e308", "--b", "1e-308", "Mp[-1e308]"],
    "eval-1e308-1e-308-Hp[1e308]": ["eval", "--a", "1e308", "--b", "1e-308", "Hp[1e308]"],
    "eval-0.5-5e-324-Mp[1e16]": ["eval", "--a", "0.5", "--b", "5e-324", "Mp[1e16]"],
    # both log10 endpoints round to one double: a step of 0
    "emit-PX-zero-step-5": [
        "emit", "(P+X)/2", "5", "--grid-min", "1e300", "--grid-max", "1.0000000000000002e300",
    ],
}
# each scalar kernel and the log-offset path, at a pair with a sum overflow
# and a subnormal G and at a pair inside the series threshold
for _a, _b in (("1.7e308", "5e-324"), ("1.5", "1")):
    for _what in ("A", "G", "H", "L", "I", "P", "X", "Y", "Mp[2]", "Hp[0.5]", "log(X/A)"):
        _stem = f"eval-{_a}-{_b}-{_what.replace('/', '_')}"
        COMMANDS[_stem] = ["eval", "--a", _a, "--b", _b, _what]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: cmp_set.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(args[0])
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, command in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command)
        (outdir / f"{stem}.stdout").write_text(out.getvalue(), encoding="utf-8")
        (outdir / f"{stem}.stderr").write_text(err.getvalue(), encoding="utf-8")
        (outdir / f"{stem}.exit").write_text(f"{code}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
