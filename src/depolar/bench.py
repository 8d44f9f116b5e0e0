"""Benchmark harness: depolarized versus direct dual computations.

Each grid cell runs in its own process under an optional memory cap and
timeout; failures become data (status oom/timeout), never crashes.  The
cell sends each field as it is measured, so a cell that fails keeps the
fields measured before the failure, and a cap that a step hits is named
in the record's cap field.
"""

import csv
import io
import json
import multiprocessing
import resource
import time
from dataclasses import dataclass, fields

from .complexes import facet_complement_complex
from .duality import alexander_dual_ideal, dual_complex_via_depolarization
from .families import FAMILY_BUILDERS as FAMILIES
from .homology import total_betti
from .ideals import InputError, ResourceLimit
from .polarization import polarize_ideal

CSV_SCHEMA = "schema=2"

MAX_TIMEOUT_S = (2 ** 31 - 1) // 1000  # poll(2) counts ms in a C int


@dataclass
class BenchRecord:
    family: str
    params: dict
    n: int = None
    n_prime: int = None
    gens_J: int = None
    gens_Jdual: int = None
    gens_IDelta: int = None
    t_Jdual_ms: float = None
    t_IDelta_ms: float = None
    t_alg1_ms: float = None
    size_res: int = None
    status: str = "ok"
    cap: str = None

    def ratio_gens(self):
        if self.gens_IDelta and self.gens_Jdual:
            return self.gens_IDelta / self.gens_Jdual
        return None

    def ratio_vars(self):
        if self.n_prime and self.n:
            return self.n_prime / self.n
        return None


def _measure_cell(family, params, size_res):
    """Yield the cell's fields as each is measured.  The direct dual of
    the polarization, the step most likely to time out, runs after the
    round trip.  A round trip refused by its cap leaves t_alg1_ms blank
    and names the cap, and the cell goes on."""
    J = FAMILIES[family](**params)
    yield {"n": J.n, "gens_J": J._count()}
    t0 = time.perf_counter()
    Jdual = alexander_dual_ideal(J)
    yield {"t_Jdual_ms": (time.perf_counter() - t0) * 1000.0,
           "gens_Jdual": Jdual._count()}
    P, _ = polarize_ideal(J)
    yield {"n_prime": P.n}
    cx = facet_complement_complex(P)
    t0 = time.perf_counter()
    try:
        dual_complex_via_depolarization(cx)
    except ResourceLimit as exc:
        yield {"cap": f"alg1: {exc}"}
    else:
        yield {"t_alg1_ms": (time.perf_counter() - t0) * 1000.0}
    t0 = time.perf_counter()
    Pdual = alexander_dual_ideal(P)
    yield {"t_IDelta_ms": (time.perf_counter() - t0) * 1000.0,
           "gens_IDelta": Pdual._count()}
    if size_res:
        yield {"size_res": sum(total_betti(J))}


def _warm_up():
    """The first dual and round trip in a fresh process pay one-off costs,
    lazy numpy imports among them: paid here, untimed and before the
    memory cap, which would otherwise fail the imports."""
    warm = FAMILIES["power"](n=2, k=2)
    alexander_dual_ideal(warm)
    dual_complex_via_depolarization(
        facet_complement_complex(polarize_ideal(warm)[0]))


def _cell_worker(conn, family, params, mem_mb, size_res):
    try:
        _warm_up()
        if mem_mb:
            cap = mem_mb * 2 ** 20
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        for part in _measure_cell(family, params, size_res):
            conn.send(("part", part))
        payload = ("ok", None)
    except ResourceLimit as exc:  # the cap is named, the status stays oom
        conn.send(("part", {"cap": str(exc)}))
        payload = ("oom", None)
    except MemoryError:
        payload = ("oom", None)
    except InputError as exc:  # raised again by the parent
        payload = ("input", str(exc))
    except Exception as exc:  # surfaced by the parent
        payload = ("error", repr(exc))
    try:
        conn.send(payload)
    except MemoryError:  # parent reads the dead pipe as oom
        pass


def run_cell(family, params, timeout_s=300, mem_mb=None, size_res=False):
    """Run one benchmark cell in a separate process; failures become status."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    record = BenchRecord(family=family, params=dict(params))
    parent, child = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(
        target=_cell_worker, args=(child, family, params, mem_mb, size_res))
    proc.start()
    child.close()
    deadline = time.monotonic() + timeout_s
    status = "part"
    try:
        while status == "part":
            if not parent.poll(max(0.0, deadline - time.monotonic())):
                status = "timeout"
                break
            status, payload = parent.recv()
            if status == "part":
                for key, val in payload.items():
                    setattr(record, key, val)
    except EOFError:
        status = "oom"
    finally:
        parent.close()
        if proc.is_alive():
            proc.terminate()
        proc.join()
    if status == "input":
        raise InputError(payload)
    if status == "error":
        raise RuntimeError(f"bench cell {family} {params} failed: {payload}")
    record.status = status
    return record


def bench_dual(cells, timeout_s=300, mem_mb=None, size_res=False):
    """Run cells (family, params) pairs one after another, so no two cells
    share the cores they are timed on, and return (records, csv_text) with
    rows in grid order."""
    records = [run_cell(f, p, timeout_s, mem_mb, size_res) for f, p in cells]
    return records, records_to_csv(records)


def table_cells(table):
    """Preset benchmark grids, keyed "1" to "3"."""
    if table == "1":
        return [("power", {"n": n, "k": k})
                for n, k in [(5, 10), (5, 15), (5, 20), (5, 25), (5, 30),
                             (10, 5), (10, 10)]]
    if table == "2":
        return [("varpowers", {"n": n, "k": k})
                for n, k in [(10, 5), (10, 6), (10, 7), (10, 8)]]
    if table == "3":
        return [("jknm", {"n": n}) for n in range(6, 11)]
    raise KeyError(f"unknown table {table!r}")


def records_to_csv(records):
    """CSV with a schema tag line, fixed columns and derived ratio columns."""
    names = [f.name for f in fields(BenchRecord)] + ["ratio_gens", "ratio_vars"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([CSV_SCHEMA])
    writer.writerow(names)
    for r in records:
        row = []
        for name in names[:-2]:
            val = getattr(r, name)
            if name == "params":
                val = json.dumps(val, sort_keys=True)
            row.append("" if val is None else val)
        row.append("" if r.ratio_gens() is None else f"{r.ratio_gens():.6g}")
        row.append("" if r.ratio_vars() is None else f"{r.ratio_vars():.6g}")
        writer.writerow(row)
    return buf.getvalue()
