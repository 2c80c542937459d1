#!/usr/bin/env python3
"""Copies a .sgxtrace file with a new L1 geometry or a cut event stream.

The header has a fixed-width prefix (src/trace/trace_io.cc: magic, version,
policy, enclave mode, threads, seed, space and heap bytes, then l1_bytes and
l1_ways) and no checksum, so a new L1 geometry reaches the loader's
machine-config check unchanged otherwise. --cut_event_bytes drops the last
bytes of the event stream (its end marker first) and re-stamps the summary's
stream hash, so the file loads and the decoder stops short of the end. Tests
use it to hand the tools a header the cache model must refuse, or a complete
trace whose stream is corrupt:

    python3 tests/restamp_trace.py --in tests/golden/kmeans_xs_sgxbounds.sgxtrace \\
        --out wide.sgxtrace --l1_bytes 4294967296 --l1_ways 67108864
    python3 tests/restamp_trace.py --in tests/golden/linear_regression_xs_t2.sgxtrace \\
        --out cut.sgxtrace --cut_event_bytes 1
"""

import argparse
import struct
import sys

MAGIC = b"SGXTRACE"
# magic, then u32 version, u8 policy, u8 enclave_mode, u32 threads, u64 seed,
# u64 space_bytes, u64 heap_reserve.
L1_OFFSET = len(MAGIC) + struct.calcsize("<IBBIQQQ")
L1_FORMAT = "<QI"  # l1_bytes, l1_ways
# l1..l3 bytes/ways and epc_bytes, then the cost table: 13 u32 fields, 17 in
# version 2, then u64 cost_table_id.
CACHES_FORMAT = "<QIQIQIQ"


def fnv1a(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xffffffffffffffff
    return h


def cut_events(data, n):
    """Drops the last n event bytes and re-stamps the summary hash."""
    version = struct.unpack_from("<I", data, len(MAGIC))[0]
    pos = L1_OFFSET + struct.calcsize(CACHES_FORMAT) + 4 * (17 if version >= 2 else 13) + 8
    for _ in range(2):  # workload, note
        pos += 4 + struct.unpack_from("<I", data, pos)[0]
    nbytes = struct.unpack_from("<Q", data, pos)[0]
    begin = pos + 8
    events = data[begin:begin + nbytes - n]
    summary = bytearray(data[begin + nbytes:])
    struct.pack_into("<Q", summary, 8, fnv1a(events))  # after event_count
    return data[:pos] + struct.pack("<Q", len(events)) + events + summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in", dest="src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--l1_bytes", type=int)
    parser.add_argument("--l1_ways", type=int)
    parser.add_argument("--cut_event_bytes", type=int, default=0)
    args = parser.parse_args()
    with open(args.src, "rb") as f:
        data = bytearray(f.read())
    if not data.startswith(MAGIC) or len(data) < L1_OFFSET + struct.calcsize(L1_FORMAT):
        sys.exit("restamp_trace: %s is not a .sgxtrace file" % args.src)
    if args.l1_bytes is not None and args.l1_ways is not None:
        struct.pack_into(L1_FORMAT, data, L1_OFFSET, args.l1_bytes, args.l1_ways)
    if args.cut_event_bytes > 0:
        data = cut_events(data, args.cut_event_bytes)
    with open(args.out, "wb") as f:
        f.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
