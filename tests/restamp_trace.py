#!/usr/bin/env python3
"""Copies a .sgxtrace file with a new L1 geometry stamped into its header.

The header has a fixed-width prefix (src/trace/trace_io.cc: magic, version,
policy, enclave mode, threads, seed, space and heap bytes, then l1_bytes and
l1_ways) and no checksum, so the copy reaches the loader's machine-config
check unchanged otherwise. Tests use it to hand the tools a header the cache
model must refuse:

    python3 tests/restamp_trace.py --in tests/golden/kmeans_xs_sgxbounds.sgxtrace \\
        --out wide.sgxtrace --l1_bytes 4294967296 --l1_ways 67108864
"""

import argparse
import struct
import sys

MAGIC = b"SGXTRACE"
# magic, then u32 version, u8 policy, u8 enclave_mode, u32 threads, u64 seed,
# u64 space_bytes, u64 heap_reserve.
L1_OFFSET = len(MAGIC) + struct.calcsize("<IBBIQQQ")
L1_FORMAT = "<QI"  # l1_bytes, l1_ways


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in", dest="src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--l1_bytes", required=True, type=int)
    parser.add_argument("--l1_ways", required=True, type=int)
    args = parser.parse_args()
    with open(args.src, "rb") as f:
        data = bytearray(f.read())
    if not data.startswith(MAGIC) or len(data) < L1_OFFSET + struct.calcsize(L1_FORMAT):
        sys.exit("restamp_trace: %s is not a .sgxtrace file" % args.src)
    struct.pack_into(L1_FORMAT, data, L1_OFFSET, args.l1_bytes, args.l1_ways)
    with open(args.out, "wb") as f:
        f.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
