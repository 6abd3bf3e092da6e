#!/usr/bin/env python3
"""Check that the -mavx2 objects of libsassi_simt.a stay confined.

Usage: avx_symbols_check.py NM LIBRARY

simd_exec.cc and site_frame.cc are the only translation units built
with -mavx2. An inline function or template instantiation they emit
as a weak symbol may also be emitted, compiled without AVX2, by
another member of the library; the linker then keeps one copy, and
if that is the AVX2 one, code that runs before the launch-time
cpuHasAvx2() check can fault on a host without AVX2. So: no weak
code symbol defined by those objects may be defined by any other
member.
Exits 1 and lists the offending symbols otherwise.
"""

import re
import subprocess
import sys

AVX2_OBJECTS = ("simd_exec.cc.o", "site_frame.cc.o")
WEAK_CODE = "W"  # Weak data (V, u) carries no instruction encoding.

# POSIX format with -A: "lib.a[member.o]: name type [value size]".
LINE = re.compile(r"^.*\[(?P<member>[^\]]+)\]: (?P<name>\S+) (?P<type>\S)")


def main(nm, library):
    out = subprocess.run([nm, "-A", "-P", "--defined-only", library],
                         check=True, capture_output=True, text=True).stdout
    defined = {}
    weak_in_avx2 = {}
    for line in out.splitlines():
        m = LINE.match(line)
        if not m:
            continue
        member, name, kind = m.group("member", "name", "type")
        defined.setdefault(name, set()).add(member)
        if member in AVX2_OBJECTS and kind in WEAK_CODE:
            weak_in_avx2[name] = member
    if not any(member in AVX2_OBJECTS
               for members in defined.values() for member in members):
        print("no AVX2 object found in %s" % library)
        return 1
    shared = sorted((name, member)
                    for name, member in weak_in_avx2.items()
                    if defined[name] - {member})
    for name, member in shared:
        others = ", ".join(sorted(defined[name] - {member}))
        print("weak %s in %s is also defined by %s" % (name, member, others))
    return 1 if shared else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
