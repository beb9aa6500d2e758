#!/usr/bin/env python3
"""Print where the CG / stencil / multigrid kernels sit in a binary's .text.

Usage:

    python3 tools/kernel_placement.py <binary> [<binary> ...]

For every defined text symbol of the stencil Jacobi/multigrid CG
(`cg_impl<StencilView>`), `StencilView::multiply`, the multigrid kernels
(smoother, restriction, prolongation, Galerkin product, V-cycle) and the
row-class walker instances, it prints the symbol's address, its size and
its offset within a 64-byte cache line, read with `nm -C -S`. Kernel bodies
that run inside `parallel_for` live in the `_M_invoke` of their chunk
lambda; those are listed under the kernel's name.

Small-grid wall times (the 720-cell mission march) move by several percent
when these symbols move, with no change to the code itself. Run this on the
two binaries of a before/after comparison to tell a placement shift from a
code change.
"""
import re
import subprocess
import sys

KERNELS = [
    ("cg_impl<StencilView>", re.compile(r"\bcg_impl<[^>]*StencilView")),
    ("StencilView::multiply", re.compile(r"StencilView::multiply\(")),
    ("smooth_colour", re.compile(r"\bsmooth_colour\(")),
    ("restrict_residual", re.compile(r"\brestrict_residual\(")),
    ("prolong_add", re.compile(r"\bprolong_add\(")),
    ("galerkin", re.compile(r"\bgalerkin\(")),
    ("v_cycle", re.compile(r"\bv_cycle<")),
    ("Multigrid::apply", re.compile(r"Multigrid::apply\(")),
    ("Multigrid::cycle", re.compile(r"Multigrid::cycle\(")),
]
TEXT_TYPES = {"t", "T", "w", "W"}


def kind_of(name: str) -> str:
    """Which part of a kernel the symbol is."""
    if "_M_invoke" in name:
        return "chunk body"
    if "rows_of_class<" in name:
        m = re.search(r"rows_of_class<(\d+)u, (\d+)ul", name)
        return f"row class {m.group(1)}, step {m.group(2)}" if m else "row class"
    if "dispatch_class<" in name:
        return "class dispatch"
    if "_M_manager" in name:
        return None
    if re.search(r"\)#\d+\}::operator\(\)", name):
        return "lambda"
    return "entry"


def placement(binary: str):
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", binary], capture_output=True,
                         text=True, check=True).stdout
    rows = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[2] not in TEXT_TYPES:
            continue
        addr, size, _, name = parts
        kind = kind_of(name)
        if kind is None:
            continue
        # A walker instance or chunk body is named after the outermost
        # kernel whose lambda it runs; match the first kernel name in it.
        hits = [(m.start(), label) for label, rx in KERNELS for m in [rx.search(name)] if m]
        if not hits:
            continue
        label = min(hits)[1]
        if name.endswith("[clone .cold]"):
            kind += " (cold)"
        rows.append((int(addr, 16), int(size, 16), label, kind))
    return sorted(rows)


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for binary in sys.argv[1:]:
        rows = placement(binary)
        print(f"{binary}: {len(rows)} kernel symbols")
        print(f"  {'address':>18}  {'size':>6}  {'off64':>5}  kernel / part")
        for addr, size, label, kind in rows:
            print(f"  {addr:#18x}  {size:6d}  {addr % 64:5d}  {label} / {kind}")
        if rows:
            lo = rows[0][0]
            hi = max(a + s for a, s, _, _ in rows)
            print(f"  span {lo:#x}..{hi:#x} ({hi - lo} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
