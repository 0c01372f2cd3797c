"""Outside-in span tracing of the lrpictures layers.

The tracer wraps a fixed list of public functions at every binding of the
same function object across the ``lrpictures.*`` module namespaces.  The
library calls its own layers through ``from .x import f`` names, so patching
only the defining module would miss most internal calls.

Each call of a wrapped function records one span (name, start, end, parent
span, operation index).  A wrapped generator records one span for the call
and one span per resumption, so the work done while the consumer pulls items
is charged to the generator, not to the consumer.  Spans stay in compact
in-memory arrays while the operations run; self times (duration minus the
part covered by child spans) are reduced from them afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# module -> public functions timed as layers.  ``words`` has no function
# boundary worth wrapping; its cost shows in its callers' self time.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("cmd_run",),
    "correspondence": (
        "s1_picture_to_skewtab",
        "s2_skewtab_to_array",
        "s3_array_to_pair",
        "c1_skewtab_to_picture",
        "c2_array_to_skewtab",
        "c3_pair_to_array",
        "in_s_set",
        "in_w_set",
        "lr_coefficient",
    ),
    "crystal": ("lr_membership", "enumerate_lr_crystal", "cached_ssyt"),
    "tableaux": ("enumerate_ssyt", "validate_semistandard", "me_reading", "p_index"),
    "rsk": ("rsk_forward", "rsk_inverse", "reverse_column_insert"),
    "pictures": ("enumerate_pictures", "validate_picture", "is_pj_standard"),
    "shapes": ("j_order_cells", "add_sequence"),
}
GENERATORS = frozenset({"tableaux.enumerate_ssyt", "pictures.enumerate_pictures"})
MEMBERSHIP = "crystal.lr_membership"
CACHE = "crystal.cached_ssyt"
PICTURE_SEARCH = "pictures.enumerate_pictures"


def layer_metric_units() -> dict[str, str]:
    """Every metric Tracer.metrics reports, with its unit."""
    units: dict[str, str] = {}
    for module, functions in TARGETS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
            if name in GENERATORS:
                units[f"{name}.yielded"] = "count"
        units[f"{module}.self_s"] = "s"
    units[f"{MEMBERSHIP}.member_ratio"] = "ratio"
    units[f"{CACHE}.hit_ratio"] = "ratio"
    units[f"{CACHE}.currsize"] = "count"
    units[f"{PICTURE_SEARCH}.yield_per_call"] = "ratio"
    return units


class Tracer:
    """Records spans around the wrapped functions of one process."""

    def __init__(self) -> None:
        self.names: list[str] = [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
        n = len(self.names)
        self.calls = [0] * n
        self.yielded = [0] * n
        self.members = 0
        self.op = -1  # index of the operation now running; set by the caller
        self.name_of = array("H")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._cache = None

    # -- recording -------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, nid: int, fn):
        name = self.names[nid]
        opened, closed = self._open, self._close
        calls = self.calls

        if name in GENERATORS:
            def resumed(it):
                while True:
                    sid = opened(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        closed(sid)
                    self.yielded[nid] += 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                sid = opened(nid)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    closed(sid)
                return resumed(it)

            return wrapper

        count_members = name == MEMBERSHIP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            sid = opened(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(sid)
            if count_members and out.member:
                self.members += 1
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the target functions in the loaded lrpictures modules."""
        originals = {}
        for nid, name in enumerate(self.names):
            module, fn = name.split(".")
            obj = getattr(sys.modules[f"lrpictures.{module}"], fn)
            originals[id(obj)] = (obj, self._wrap(nid, obj))
            if name == CACHE:
                self._cache = obj
        for modname, module in list(sys.modules.items()):
            if modname != "lrpictures" and not modname.startswith("lrpictures."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- reduction -------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time per wrapped function: span durations minus child coverage.

        Spans of one thread nest properly, so the part of a span covered by
        its children is the sum of the children's durations.
        """
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        covered = [0.0] * len(start)
        for sid in range(len(start)):
            p = parent[sid]
            if p >= 0:
                covered[p] += end[sid] - start[sid]
        totals = [0.0] * len(self.names)
        for sid in range(len(start)):
            totals[name_of[sid]] += end[sid] - start[sid] - covered[sid]
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-function calls, self time and yields, module totals and ratios."""
        out: dict[str, float] = {}
        modules: dict[str, float] = {}
        for nid, (name, self_s) in enumerate(zip(self.names, self.self_seconds())):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self_s
            if name in GENERATORS:
                out[f"{name}.yielded"] = self.yielded[nid]
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + self_s
        for module, self_s in modules.items():
            out[f"{module}.self_s"] = self_s
        index = {name: nid for nid, name in enumerate(self.names)}
        attempts = self.calls[index[MEMBERSHIP]]
        out[f"{MEMBERSHIP}.member_ratio"] = self.members / attempts if attempts else 0.0
        info = self._cache.cache_info()
        lookups = info.hits + info.misses
        out[f"{CACHE}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{CACHE}.currsize"] = info.currsize
        searches = self.calls[index[PICTURE_SEARCH]]
        found = self.yielded[index[PICTURE_SEARCH]]
        out[f"{PICTURE_SEARCH}.yield_per_call"] = found / searches if searches else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write the raw spans: one JSON header line, then the five arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [
                ["name", self.name_of.typecode],
                ["parent", self.parent.typecode],
                ["op", self.op_of.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.op_of, self.start, self.end):
                arr.tofile(fh)
