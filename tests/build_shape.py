#!/usr/bin/env python3
"""Build-shape check of one hot function in a default-build binary.

Disassembles a function (and its .cold part) with objdump and compares it
with a checked-in table. The default function is Interpreter::RunDecoded,
the threaded IR engine's dispatch loop; --symbol names another by its
mangled name (Cpu::AccessLine, the cache model's walk, has a table too).

  - `xmm <n>`: the number of instructions that name an SSE register, or
    `*` for any. GCC's SLP vectorizer paired pend_alu/pend_branch in xmm0
    and rebuilt the pair in every RunDecoded handler tail;
    src/ir/CMakeLists.txt turns it off for engine.cc.
  - `call <target> <n>`: the out-of-line call sites per target, with
    parameter lists and clone suffixes dropped (`indirect` counts calls
    through a register or memory; a jump to another function's entry is a
    tail call and counts too). `<n>` may be `*` for a target allowed at
    any count. A target that is not in the table must not be called: the
    load and store fast path (ops::GuestAccessSet, CommitGuestAccess) makes
    no call, and its bail path is ops::LoadGuestBytes/StoreGuestBytes; the
    8- and 16-way cache walks (SlideWalk) are inline in AccessLine.

Exits 0 when the shape matches, 1 naming every difference, and 77 (ctest's
skip code) when objdump or c++filt (both binutils) is absent.

    python3 tests/build_shape.py --binary build/bench/ir_engine \\
        --table tests/golden/run_decoded_shape.txt
    python3 tests/build_shape.py --binary build/bench/ir_engine \\
        --symbol _ZN4sgxb3Cpu10AccessLineEj --table tests/golden/access_line_shape.txt
    python3 tests/build_shape.py --binary build/bench/ir_engine --print
"""

import argparse
import collections
import re
import shutil
import subprocess
import sys

RUN_DECODED = "_ZN4sgxb11Interpreter10RunDecodedERKNS_15DecodedFunctionERNS_3CpuERKSt6vectorImSaImEEm"
SKIP = 77


def disassemble(objdump, cxxfilt, binary, symbol):
    """The demangled instructions of `symbol` and `symbol`.cold."""
    lines = []
    for sym in (symbol, symbol + ".cold"):
        out = subprocess.run([objdump, "-d", "--no-show-raw-insn", "--disassemble=" + sym, binary],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        out = subprocess.run([cxxfilt], input=out, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        lines += [l for l in out.splitlines() if re.match(r"^\s+[0-9a-f]+:\s", l)]
    return lines


def call_target(insn, name):
    """The function `insn` calls, for a call or for a jump to the entry of a
    function other than `name` (a tail call): `sgxb::ops::LoadGuestBytes`,
    or `indirect` for a call through a register or memory. None for any
    other instruction."""
    jump = not re.search(r"\scall\w*\s", insn)
    m = re.search(r"\b%s\w*\s+[0-9a-f]+\s+<(.*)>\s*$" % ("jmp" if jump else "call"), insn)
    if m is None:
        return None if jump else "indirect"
    if jump and "+0x" in m.group(1):
        return None
    target = re.sub(r"\s*\[clone [^\]]*\]", "", m.group(1))
    target = re.sub(r"(\+0x[0-9a-f]+)$", "", target)
    target = drop_params(target.replace("@plt", ""))
    return None if jump and target == name else target


def drop_params(name):
    """`sgxb::Cpu::AccessLine` for `sgxb::Cpu::AccessLine(unsigned int)`."""
    # The parameter list is the last top-level parenthesised group.
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i] if i > 0 else name
    return name


def shape(lines, name):
    xmm = sum(1 for l in lines if "%xmm" in l)
    calls = collections.Counter(t for t in (call_target(l, name) for l in lines) if t is not None)
    return xmm, calls


def read_table(path):
    xmm, calls = None, {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("xmm "):
                xmm = line.split()[1]
            elif line.startswith("call "):
                target, count = line[len("call "):].rsplit(" ", 1)
                calls[target] = count
            else:
                sys.exit("%s: cannot parse %r" % (path, raw))
    if xmm is None:
        sys.exit("%s: no xmm line" % path)
    return xmm, calls


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--table")
    parser.add_argument("--symbol", default=RUN_DECODED,
                        help="mangled name of the function to check (default RunDecoded)")
    parser.add_argument("--print", action="store_true", help="print the binary's shape as a table")
    args = parser.parse_args()
    objdump = shutil.which("objdump")
    cxxfilt = shutil.which("c++filt")
    if objdump is None or cxxfilt is None:
        print("build_shape: objdump or c++filt not found; skipped")
        return SKIP
    name = drop_params(subprocess.run([cxxfilt, args.symbol], stdout=subprocess.PIPE, text=True,
                                      check=True).stdout.strip())
    lines = disassemble(objdump, cxxfilt, args.binary, args.symbol)
    if not lines:
        print("build_shape: %s has no %s" % (args.binary, name))
        return 1
    xmm, calls = shape(lines, name)
    if args.print or args.table is None:
        print("xmm %d" % xmm)
        for target in sorted(calls):
            print("call %s %d" % (target, calls[target]))
        return 0

    want_xmm, want_calls = read_table(args.table)
    errors = []
    if want_xmm != "*" and xmm != int(want_xmm):
        errors.append("xmm: %d instructions name an SSE register, table says %s" % (xmm, want_xmm))
    for target in sorted(set(calls) | set(want_calls)):
        got = calls.get(target, 0)
        want = want_calls.get(target)
        if want is None:
            errors.append("call %s: %d call sites, not in the table" % (target, got))
        elif want != "*" and got != int(want):
            errors.append("call %s: %d call sites, table says %s" % (target, got, want))
    for e in errors:
        print("build_shape: %s %s" % (name, e))
    if errors:
        print("build_shape: %d difference(s) from %s" % (len(errors), args.table))
        return 1
    print("build_shape: %s matches %s (%d instructions)" % (name, args.table, len(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
