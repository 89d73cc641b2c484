"""A naive per-block replay of one volume: the block metrics' oracle.

Written straight from DESIGN.md "Key definitions", with dicts and lists
only: each request in turn, each block it touches in ascending order, and
a dict holding every block's last access.  Same-block accesses with equal
timestamps are therefore taken in request order, the tie rule the block
view relies on.  Sequences come out grouped by block (ascending), each
block's entries in access order, which is the order the view emits.
"""

from collections import OrderedDict, defaultdict

BLOCK_SIZE = 4096
MOSTLY = 0.95
TOP_FRACTIONS = (0.01, 0.10, 0.5, 1.0)
CACHE_FRACTIONS = (0.01, 0.10, 0.5)
KINDS = {(True, False): "raw", (True, True): "waw", (False, False): "rar", (False, True): "war"}


def _top(traffic, fraction):
    traffic = sorted((v for v in traffic.values() if v > 0), reverse=True)
    if not traffic:
        return float("nan")
    k = max(1, int(len(traffic) * fraction))
    return sum(traffic[:k]) / sum(traffic)


def _ratio(part, whole):
    return part / whole if whole > 0 else float("nan")


def _lru(stream, capacity):
    """``(read_hits, read_misses, write_hits, write_misses)`` of a cold,
    unified read+write LRU cache of ``capacity`` blocks."""
    cache = OrderedDict()
    counts = [0, 0, 0, 0]
    for block, write in stream:
        hit = block in cache
        counts[2 * write + (not hit)] += 1
        cache[block] = None
        cache.move_to_end(block)
        if len(cache) > capacity:
            cache.popitem(last=False)
    return tuple(counts)


def replay(trace, block_size=BLOCK_SIZE):
    """Every block metric of ``trace``, by replaying it access by access."""
    last = {}  # block -> (time, is_write) of its latest access
    last_write = {}  # block -> time of its latest write
    read_bytes, write_bytes = defaultdict(int), defaultdict(int)
    reads, writes = defaultdict(int), defaultdict(int)
    times = defaultdict(lambda: {kind: [] for kind in KINDS.values()})
    intervals = defaultdict(list)
    update_traffic = 0
    stream = []
    columns = (trace.timestamps, trace.offsets, trace.sizes, trace.is_write)
    for t, offset, size, write in zip(*(c.tolist() for c in columns)):
        end = offset + size
        for block in range(offset // block_size, (end - 1) // block_size + 1):
            nbytes = min((block + 1) * block_size, end) - max(block * block_size, offset)
            stream.append((block, write))
            if block in last:
                t0, write0 = last[block]
                times[block][KINDS[write0, write]].append(t - t0)
            last[block] = (t, write)
            if write:
                if block in last_write:
                    intervals[block].append(t - last_write[block])
                    update_traffic += nbytes
                last_write[block] = t
                writes[block] += 1
                write_bytes[block] += nbytes
            else:
                reads[block] += 1
                read_bytes[block] += nbytes

    blocks = sorted(last)
    read_to_rm = write_to_wm = 0
    for block in blocks:
        total = read_bytes[block] + write_bytes[block]
        if read_bytes[block] >= MOSTLY * total:
            read_to_rm += read_bytes[block]
        if write_bytes[block] >= MOSTLY * total:
            write_to_wm += write_bytes[block]
    total_read, total_write = sum(read_bytes.values()), sum(write_bytes.values())
    wss = len(blocks)
    miss = {}
    for fraction in CACHE_FRACTIONS:
        if wss:
            capacity = max(1, int(round(fraction * wss)))
            miss[fraction] = (capacity, _lru(stream, capacity))
    return {
        "working_sets": tuple(
            n * block_size
            for n in (
                wss,
                sum(1 for b in blocks if reads[b]),
                sum(1 for b in blocks if writes[b]),
                sum(1 for b in blocks if writes[b] > 1),
            )
        ),
        "update_coverage": _ratio(sum(1 for b in blocks if writes[b] > 1), wss),
        "update_traffic": update_traffic,
        "top": {
            (op, k): _top(traffic, k)
            for op, traffic in (("read", read_bytes), ("write", write_bytes))
            for k in TOP_FRACTIONS
        },
        "mostly_bytes": (read_to_rm, write_to_wm, total_read, total_write),
        "mostly": (_ratio(read_to_rm, total_read), _ratio(write_to_wm, total_write)),
        "transitions": {
            kind: [dt for b in sorted(times) for dt in times[b][kind]] for kind in KINDS.values()
        },
        "update_intervals": [dt for b in sorted(intervals) for dt in intervals[b]],
        "miss": miss,
    }
