#!/usr/bin/env python3
"""Build-shape check of the threaded IR engine's dispatch loop.

Disassembles Interpreter::RunDecoded (and its .cold part) in a default-build
binary with objdump and compares it with a checked-in table:

  - `xmm <n>`: the number of instructions that name an SSE register. GCC's
    SLP vectorizer paired pend_alu/pend_branch in xmm0 and rebuilt the pair
    in every handler tail; src/ir/CMakeLists.txt turns it off for engine.cc.
  - `call <target> <n>`: the out-of-line call sites per target, with
    parameter lists and clone suffixes dropped (`indirect` counts calls
    through a register or memory). `<n>` may be `*` for a target allowed at
    any count. A target that is not in the table must not be called: the
    load and store fast path (ops::GuestAccessSet, CommitGuestAccess) makes
    no call, and its bail path is ops::LoadGuestBytes/StoreGuestBytes.

Exits 0 when the shape matches, 1 naming every difference, and 77 (ctest's
skip code) when objdump or c++filt (both binutils) is absent.

    python3 tests/build_shape.py --binary build/bench/ir_engine \\
        --table tests/golden/run_decoded_shape.txt
    python3 tests/build_shape.py --binary build/bench/ir_engine --print
"""

import argparse
import collections
import re
import shutil
import subprocess
import sys

SYMBOL = "_ZN4sgxb11Interpreter10RunDecodedERKNS_15DecodedFunctionERNS_3CpuERKSt6vectorImSaImEEm"
SKIP = 77


def disassemble(objdump, cxxfilt, binary):
    """The demangled instructions of RunDecoded and RunDecoded.cold."""
    lines = []
    for sym in (SYMBOL, SYMBOL + ".cold"):
        out = subprocess.run([objdump, "-d", "--no-show-raw-insn", "--disassemble=" + sym, binary],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        out = subprocess.run([cxxfilt], input=out, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        lines += [l for l in out.splitlines() if re.match(r"^\s+[0-9a-f]+:\s", l)]
    return lines


def call_target(insn):
    """`sgxb::ops::LoadGuestBytes` for a direct call, `indirect` otherwise."""
    m = re.search(r"\bcall\w*\s+[0-9a-f]+\s+<(.*)>\s*$", insn)
    if m is None:
        return "indirect"
    name = re.sub(r"\s*\[clone [^\]]*\]", "", m.group(1))
    name = re.sub(r"(\+0x[0-9a-f]+)$", "", name)
    name = name.replace("@plt", "")
    # Drop the parameter list: the last top-level parenthesised group.
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i] if i > 0 else name
    return name


def shape(lines):
    xmm = sum(1 for l in lines if "%xmm" in l)
    calls = collections.Counter(call_target(l) for l in lines if re.search(r"\scall\w*\s", l))
    return xmm, calls


def read_table(path):
    xmm, calls = None, {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("xmm "):
                xmm = int(line.split()[1])
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
    parser.add_argument("--print", action="store_true", help="print the binary's shape as a table")
    args = parser.parse_args()
    objdump = shutil.which("objdump")
    cxxfilt = shutil.which("c++filt")
    if objdump is None or cxxfilt is None:
        print("build_shape: objdump or c++filt not found; skipped")
        return SKIP
    lines = disassemble(objdump, cxxfilt, args.binary)
    if not lines:
        print("build_shape: %s has no Interpreter::RunDecoded" % args.binary)
        return 1
    xmm, calls = shape(lines)
    if args.print or args.table is None:
        print("xmm %d" % xmm)
        for target in sorted(calls):
            print("call %s %d" % (target, calls[target]))
        return 0

    want_xmm, want_calls = read_table(args.table)
    errors = []
    if xmm != want_xmm:
        errors.append("xmm: %d instructions name an SSE register, table says %d" % (xmm, want_xmm))
    for target in sorted(set(calls) | set(want_calls)):
        got = calls.get(target, 0)
        want = want_calls.get(target)
        if want is None:
            errors.append("call %s: %d call sites, not in the table" % (target, got))
        elif want != "*" and got != int(want):
            errors.append("call %s: %d call sites, table says %s" % (target, got, want))
    for e in errors:
        print("build_shape: RunDecoded " + e)
    if errors:
        print("build_shape: %d difference(s) from %s" % (len(errors), args.table))
        return 1
    print("build_shape: RunDecoded matches %s (%d instructions)" % (args.table, len(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
