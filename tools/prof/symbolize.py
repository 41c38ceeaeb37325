#!/usr/bin/env python3
"""Turns mrmb-prof sample files (tools/prof/sampler.cc) into a flat profile.

    python3 tools/prof/symbolize.py /tmp/prof.*.txt [--top 40]

Each sample's program counter is mapped to its object through the recorded
/proc/self/maps, and to a function through `nm` (static symbols first, the
dynamic table when the object is stripped). A sample whose program counter
is in no symbol, such as libc's stripped memcpy and memcmp, is charged to
the function holding the word at the stack pointer, the return address in
such leaf code, and printed as "caller [in libc.so.6]". Several files are
pooled, so the three processes of a perfbench run read as one profile.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def read_profile(path):
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#") or not line:
                continue
            if line in ("maps", "samples"):
                section = line
            elif section == "maps":
                fields = line.split(None, 5)
                if len(fields) == 6 and "x" in fields[1] and \
                        fields[5].startswith("/"):
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((start, end, int(fields[2], 16), fields[5]))
            elif section == "samples":
                pc, word = line.split()
                samples.append((int(pc, 16), int(word, 16)))
    return maps, samples


def load_segments(path):
    """(p_offset, p_filesz, p_vaddr) of each PT_LOAD of a 64-bit ELF file."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", header, 32)
        phentsize, phnum = struct.unpack_from("<HH", header, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        kind, _, offset, vaddr, _, filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if kind == 1:
            segments.append((offset, filesz, vaddr))
    return segments


class Symbolizer:
    def __init__(self):
        self.objects = {}

    def _object(self, path):
        if path not in self.objects:
            entries = []
            for dynamic in ([], ["-D"]):
                done = subprocess.run(
                    ["nm", "-C", "-S", "--defined-only", *dynamic, path],
                    capture_output=True, text=True)
                for line in done.stdout.splitlines():
                    parts = line.split(None, 3)
                    if len(parts) == 4 and parts[2] in "TtWwi":
                        entries.append((int(parts[0], 16), int(parts[1], 16),
                                        short_name(parts[3])))
                if entries:
                    break
            entries.sort()
            try:
                segments = load_segments(path)
            except OSError:
                segments = []
            self.objects[path] = ([e[0] for e in entries], entries, segments)
        return self.objects[path]

    def lookup(self, maps, address):
        """(object path or None, function name or None) of `address`."""
        for start, end, offset, path in maps:
            if not start <= address < end:
                continue
            starts, entries, segments = self._object(path)
            file_offset = address - start + offset
            vaddr = None
            for p_offset, p_filesz, p_vaddr in segments:
                if p_offset <= file_offset < p_offset + p_filesz:
                    vaddr = p_vaddr + file_offset - p_offset
            i = bisect.bisect_right(starts, vaddr) - 1 if vaddr is not None \
                else -1
            if i >= 0 and vaddr < entries[i][0] + max(entries[i][1], 1):
                return path, entries[i][2]
            return path, None
        return None, None


def short_name(name):
    """A demangled name without its parameter list."""
    depth = 0
    braced = name.replace("(anonymous namespace)", "{anonymous namespace}")
    for i, c in enumerate(braced):
        if c in "<{":
            depth += 1
        elif c in ">}":
            depth -= 1
        elif c == "(" and depth == 0:
            return name[:i]
    return name


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--top", type=int, default=40)
    args = parser.parse_args()
    symbolizer = Symbolizer()
    functions = collections.Counter()
    objects = collections.Counter()
    total = 0
    for path in args.profiles:
        maps, samples = read_profile(path)
        for pc, word in samples:
            total += 1
            obj, name = symbolizer.lookup(maps, pc)
            where = os.path.basename(obj) if obj else "unmapped"
            objects[where] += 1
            if name is None:
                _, caller = symbolizer.lookup(maps, word)
                name = f"{caller} [in {where}]" if caller else f"?? [{where}]"
            functions[name] += 1
    if total == 0:
        sys.exit("no samples")
    print(f"{total} samples from {len(args.profiles)} file(s)\n")
    print("share  samples  object")
    for name, count in objects.most_common():
        print(f"{count / total:5.1%}  {count:7d}  {name}")
    print("\nshare  samples  function")
    for name, count in functions.most_common(args.top):
        print(f"{count / total:5.1%}  {count:7d}  {name}")


if __name__ == "__main__":
    main()
